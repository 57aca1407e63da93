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
