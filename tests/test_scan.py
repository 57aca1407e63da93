import random

import pytest

from khlee.corpus import random_braids, torus_word
from khlee.cube import build_cube
from khlee.diagrams import BraidWord, from_braid
from khlee.errors import KhleeError
from khlee.lee import s_invariant
from khlee.tlscan import scan_complex


def test_scan_matches_cube_homology():
    words = [(1, (), ()), (2, (), ()), (2, (1, 1), ()), (2, (1, 1, 1), ()),
             (3, (1, -2, 1, -2), ()), (3, torus_word(3, 3), ()),
             (2, (1, -1), ()), (3, (("e", 1), 2, 2), (True, False, True)),
             (4, (1, -2, 3, 2, 2, -1), ())]
    for n, letters, orient in words:
        d = from_braid(BraidWord(n, letters, orient))
        sc = scan_complex(d)
        cu = build_cube(d).complex
        assert sc.dims_at_t0() == cu.dims_at_t0()
        assert sc.dims_at_t(1) == cu.dims_at_t(1)


def test_scan_matches_cube_homology_random():
    for i, w in enumerate(random_braids(count=25, seed=4, max_letters=7)):
        d = from_braid(w)
        sc = scan_complex(d)
        cu = build_cube(d).complex
        assert sc.dims_at_t0() == cu.dims_at_t0(), w.letters
        assert sc.dims_at_t(1) == cu.dims_at_t(1), w.letters


def test_scan_s_matches_brute():
    cases = [(2, (1, 1, 1), ()), (3, (1, -2, 1, -2), ()),
             (2, (1, 1), (True, False)),
             (3, (-1, 2, ("e", 1)), (True, False, True)),
             (4, torus_word(4, 4), (True, True, False, False))]
    for n, letters, orient in cases:
        d = from_braid(BraidWord(n, letters, orient))
        sb = s_invariant(d, engine="brute", with_module=False, _compute_plus=False)
        ss = s_invariant(d, engine="scan", with_module=False, _compute_plus=False)
        assert (sb.s, sb.s_min, sb.s_max) == (ss.s, ss.s_min, ss.s_max)


def test_scan_s_matches_brute_random():
    rng = random.Random(11)
    for w in random_braids(count=15, seed=12, max_letters=6):
        d = from_braid(w)
        sb = s_invariant(d, engine="brute", with_module=False, _compute_plus=False)
        ss = s_invariant(d, engine="scan", with_module=False, _compute_plus=False)
        assert sb.s == ss.s, w.letters


def test_scan_reduced_sizes_are_small():
    d = from_braid(BraidWord(2, (1, 1, 1)))
    assert scan_complex(d).n_gens == 4
    d = from_braid(BraidWord(3, (1, -2, 1, -2)))
    assert scan_complex(d).n_gens == 6


def test_scan_requires_braid():
    from khlee.pdcode import parse_pd
    d = parse_pd("PD[X(1,3,2,4), X(3,1,4,2)]")
    with pytest.raises(KhleeError):
        scan_complex(d)


def test_torus_link_positive_values():
    # s(T(p,p)) = (p-1)^2 through the scan engine
    for p, expect in [(2, 1), (3, 4)]:
        d = from_braid(BraidWord(p, torus_word(p, p)))
        rep = s_invariant(d, engine="scan", with_module=False, _compute_plus=False)
        assert rep.s == expect


def test_scan_output_is_a_complex():
    for n, letters, orient in [(3, (1, -2, 1, -2), ()),
                               (4, torus_word(4, 4), (True, True, False, False)),
                               (3, (-1, 2, ("e", 1)), (True, False, True))]:
        sc = scan_complex(from_braid(BraidWord(n, letters, orient)))
        sc.check_d_squared()


def test_whitehead_doubles():
    from khlee.corpus import whitehead_double

    # twist-knot calibration over the unknot companion
    for t, expect_s, expect_dim in [(0, 0, 2), (1, 0, 6), (2, 0, 10), (-1, 2, 4)]:
        d = whitehead_double((1,), 2, t)
        assert d.n_components == 1
        rep = s_invariant(d, engine="scan", with_module=False, _compute_plus=False)
        assert rep.s == expect_s
        assert sum(scan_complex(d).dims_at_t0().values()) == expect_dim
    # doubles of the trefoils: s jumps at t = 3 for the positive companion
    vals = {}
    for letters, t in [((1, 1, 1), 2), ((1, 1, 1), 3), ((-1, -1, -1), 0)]:
        d = whitehead_double(letters, 2, t)
        vals[(letters, t)] = s_invariant(d, engine="scan", with_module=False,
                                         _compute_plus=False).s
    assert vals[((1, 1, 1), 2)] == 2  # the s != 2*tau example
    assert vals[((1, 1, 1), 3)] == 0
    assert vals[((-1, -1, -1), 0)] == 0  # doubles of negative knots


def test_match_cycles_cache_holds_one_scan():
    # one scan of T(5,5) fits the bounded cache without evicting an entry
    from khlee.tlscan import MATCH_CYCLES_CACHE, match_cycles

    match_cycles.cache_clear()
    d = from_braid(BraidWord(5, torus_word(5, 5)))
    assert s_invariant(d, engine="scan", with_module=False, _compute_plus=False).s == 16
    info = match_cycles.cache_info()
    assert info.maxsize == MATCH_CYCLES_CACHE
    assert info.currsize == info.misses <= MATCH_CYCLES_CACHE


def _scan_cache_infos():
    from khlee.tlscan import _glue_pair, vcomp

    return _glue_pair.cache_info(), vcomp.cache_info()


def test_scan_caches_do_not_change_output(monkeypatch):
    # the memoized gluings are pure: cold, warm from another scan and warm
    # from the same scan give byte-identical reduced complexes
    from khlee import tlscan

    diagrams = [from_braid(BraidWord(4, torus_word(4, 4), (True, True, False, False))),
                from_braid(BraidWord(3, (-1, 2, ("e", 1), 2, -1), (True, False, True)))]
    diagrams += [from_braid(w) for w in random_braids(count=6, seed=5, max_letters=8)]
    cold = [scan_complex(d).export_text() for d in diagrams]
    monkeypatch.setattr(tlscan, "clear_scan_caches", lambda: None)
    for i, d in enumerate(diagrams):
        assert scan_complex(d).export_text() == cold[i]  # warm from other scans
        assert scan_complex(d).export_text() == cold[i]  # warm from this scan
    assert all(info.hits for info in _scan_cache_infos())


def test_scan_caches_are_bounded_and_cleared(monkeypatch):
    from khlee import tlscan

    on_entry = []  # cache sizes at the first letter of each scan_word call
    scan_word, tensor_letter = tlscan.scan_word, tlscan._tensor_letter

    def scan_word_probe(*args, **kwargs):
        on_entry.append(None)
        return scan_word(*args, **kwargs)

    def tensor_letter_probe(*args):
        if on_entry[-1] is None:
            on_entry[-1] = [info.currsize for info in _scan_cache_infos()]
        return tensor_letter(*args)

    monkeypatch.setattr(tlscan, "scan_word", scan_word_probe)
    monkeypatch.setattr(tlscan, "_tensor_letter", tensor_letter_probe)
    d = from_braid(BraidWord(5, torus_word(5, 5)))
    assert s_invariant(d, engine="scan", with_module=False, _compute_plus=False).s == 16
    glue, vc = _scan_cache_infos()
    assert glue.maxsize == tlscan.GLUE_CACHE and vc.maxsize == tlscan.VCOMP_CACHE
    assert 0 < glue.currsize <= glue.maxsize and 0 < vc.currsize <= vc.maxsize
    scan_complex(from_braid(BraidWord(3, (1, 1, 2, 2))))
    assert len(on_entry) >= 2 and all(sizes == [0, 0] for sizes in on_entry)


def test_scan_generator_counts():
    # exact work done by the scanner: closed and reduced generator counts
    from khlee.corpus import builtin_diagram
    from khlee.reduction import scan_reduce
    from khlee.tlscan import scan_word

    expect = {"T(5,5)": (1000, 54), "Wh+(trefoil+,2)": (622, 24),
              "F_2(2)": (432, 46), "C_(3,2)(2)": (70, 16)}
    for name, (closed, reduced) in expect.items():
        closure = scan_word(builtin_diagram(name), track_lee=False)
        assert closure.gc.n_gens == closed, name
        assert scan_reduce(closure.gc).n_gens == reduced, name  # = scan_complex(d).n_gens


def test_scan_object_budget_message():
    from khlee.errors import ResourceLimit
    from khlee.tlscan import ScanComplex, _vertical_match

    cx = ScanComplex(2, object_cap=2)
    obj = (_vertical_match(2), 0)
    cx.add_object(obj, 0, 0)
    cx.add_object(obj, 0, 0)
    with pytest.raises(ResourceLimit, match=r"reached 3 objects, over its budget of 2 "
                                            r"= max\(generator limit // 8, 4096\)"):
        cx.add_object(obj, 0, 0)
