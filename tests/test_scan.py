import random

import pytest

from khlee.corpus import random_braids, torus_word
from khlee.cube import build_cube
from khlee.diagrams import BraidWord, OrientedDiagram, from_braid
from khlee.errors import KhleeError
from khlee.lee import s_invariant
from khlee.smith import homology_qt
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
        assert homology_qt(sc).dims_t1() == homology_qt(cu).dims_t1()


def test_scan_matches_cube_homology_random():
    for i, w in enumerate(random_braids(count=25, seed=4, max_letters=7)):
        d = from_braid(w)
        sc = scan_complex(d)
        cu = build_cube(d).complex
        assert sc.dims_at_t0() == cu.dims_at_t0(), w.letters
        assert homology_qt(sc).dims_t1() == homology_qt(cu).dims_t1(), w.letters


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


class _CountingTable(dict):
    """A memo table that counts the results stored in it and the lookups
    that found one."""

    def __init__(self):
        super().__init__()
        self.stored = self.hits = 0

    def __setitem__(self, key, value):
        self.stored += 1
        super().__setitem__(key, value)

    def get(self, key, default=None):
        value = super().get(key, default)
        self.hits += value is not None
        return value


def test_memo_holds_one_scan(monkeypatch):
    # one scan of T(5,5) fits the bounded memo without the table starting over
    from khlee import tlscan

    table = _CountingTable()
    monkeypatch.setattr(tlscan, "_memo_table", table)
    d = from_braid(BraidWord(5, torus_word(5, 5)))
    assert s_invariant(d, engine="scan", with_module=False, _compute_plus=False).s == 16
    assert 0 < len(table) == table.stored <= tlscan.MEMO_CACHE


def test_scan_caches_do_not_change_output(monkeypatch):
    # the memoized plans, cycles and stackings are pure: cold, warm from
    # another scan, warm from the same scan and with the smallest bound give
    # byte-identical reduced complexes
    from khlee import tlscan

    diagrams = [from_braid(BraidWord(4, torus_word(4, 4), (True, True, False, False))),
                from_braid(BraidWord(3, (-1, 2, ("e", 1), 2, -1), (True, False, True)))]
    diagrams += [from_braid(w) for w in random_braids(count=6, seed=5, max_letters=8)]
    cold = [scan_complex(d).export_text() for d in diagrams]
    table = _CountingTable()
    monkeypatch.setattr(tlscan, "_memo_table", table)
    monkeypatch.setattr(tlscan, "clear_scan_caches", lambda: None)
    for i, d in enumerate(diagrams):
        assert scan_complex(d).export_text() == cold[i]  # warm from other scans
        stored = table.stored
        assert scan_complex(d).export_text() == cold[i]  # warm from this scan
        assert table.stored == stored  # every result was found in the memo
    assert table.hits
    monkeypatch.setattr(tlscan, "MEMO_CACHE", 1)
    table.clear()
    for i, d in enumerate(diagrams):
        assert scan_complex(d).export_text() == cold[i]
        assert len(table) == 1


def test_scan_caches_are_bounded_and_cleared(monkeypatch):
    from khlee import tlscan

    on_entry = []  # memo sizes at the first letter of each scan_word call
    scan_word, tensor_letter = tlscan.scan_word, tlscan._tensor_letter

    def scan_word_probe(*args, **kwargs):
        on_entry.append(None)
        return scan_word(*args, **kwargs)

    def tensor_letter_probe(*args):
        if on_entry[-1] is None:
            on_entry[-1] = len(tlscan._memo_table)
        return tensor_letter(*args)

    monkeypatch.setattr(tlscan, "scan_word", scan_word_probe)
    monkeypatch.setattr(tlscan, "_tensor_letter", tensor_letter_probe)
    d = from_braid(BraidWord(5, torus_word(5, 5)))
    assert s_invariant(d, engine="scan", with_module=False, _compute_plus=False).s == 16
    assert 0 < len(tlscan._memo_table) <= tlscan.MEMO_CACHE
    scan_complex(from_braid(BraidWord(3, (1, 1, 2, 2))))
    assert len(on_entry) >= 2 and all(size == 0 for size in on_entry)


def test_scan_generator_counts():
    # exact work done by the scanner: closed and reduced generator counts
    from khlee.corpus import builtin_diagram
    from khlee.reduction import scan_reduce
    from khlee.tlscan import scan_word

    expect = {"T(5,5)": (1000, 54), "Wh+(trefoil+,2)": (622, 24),
              "F_2(2)": (432, 46), "C_(3,2)(2)": (70, 16)}
    for name, (closed, reduced) in expect.items():
        closure = scan_word(builtin_diagram(name))
        assert closure.gc.n_gens == closed, name
        assert scan_reduce(closure.gc).n_gens == reduced, name  # = scan_complex(d).n_gens
    # the same scans windowed to degrees -1 and 0, as the s-invariant runs them
    expect_windowed = {"T(5,5)": (32, 32), "Wh+(trefoil+,2)": (156, 126),
                       "F_2(2)": (94, 90), "C_(3,2)(2)": (8, 8)}
    for name, (closed, reduced) in expect_windowed.items():
        closure = scan_word(builtin_diagram(name), h_window=(-1, 0))
        assert closure.gc.n_gens == closed, name
        assert scan_reduce(closure.gc).n_gens == reduced, name


def test_scan_entry_counts(monkeypatch):
    # exact work left after each letter: the entries after its elimination,
    # summed over the letters of the full and of the windowed scan; a change
    # of basis or pivot order moves these totals, so a new value needs a reason
    from khlee import tlscan
    from khlee.corpus import builtin_diagram

    counts = []
    eliminate = tlscan._eliminate

    def counting(cx, tracked):
        eliminate(cx, tracked)
        counts.append(sum(len(row) for row in cx.out.values()))

    monkeypatch.setattr(tlscan, "_eliminate", counting)
    expect = {"F_2(2)": (3788, 1558), "Wh+(trefoil+,2)": (3962, 1421)}
    for name, (full, windowed) in expect.items():
        for window, total in ((None, full), ((-1, 0), windowed)):
            counts.clear()
            tlscan.scan_word(builtin_diagram(name), h_window=window)
            assert sum(counts) == total, (name, window)


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


def _scan_values(diagrams):
    return [(r.s, r.s_min, r.s_max, r.s_plus)
            for r in (s_invariant(d, engine="scan", with_module=False) for d in diagrams)]


def _window_diagrams():
    from khlee.corpus import small_corpus

    diagrams = [d for _name, d in small_corpus() if d.braid is not None]
    diagrams += [from_braid(w) for w in random_braids(count=20, seed=31, max_letters=8)]
    return diagrams + [d.mirror() for d in diagrams]


def test_windowed_scan_matches_full_scan(monkeypatch):
    # the (-1, 0) window of the module-free scan, s_+'s mirror pass included,
    # gives the values of the full scan
    from khlee import tlscan

    scan_word, windows = tlscan.scan_word, []

    def recording(*args, h_window=None, **kwargs):
        windows.append(h_window)
        return scan_word(*args, h_window=h_window, **kwargs)

    def full(*args, h_window=None, **kwargs):
        return scan_word(*args, **kwargs)

    diagrams = _window_diagrams()
    monkeypatch.setattr(tlscan, "scan_word", recording)
    windowed = _scan_values(diagrams)
    assert windows and set(windows) == {(-1, 0)}
    monkeypatch.setattr(tlscan, "scan_word", full)
    assert windowed == _scan_values(diagrams)


def test_too_narrow_window_is_caught(monkeypatch):
    # dropping degree -1 loses the boundaries the level solve reduces by:
    # s(trefoil-) and s_+(trefoil+) come out wrong, which the oracle values see
    from khlee import tlscan
    from khlee.corpus import builtin_diagram

    scan_word = tlscan.scan_word

    def narrow(*args, h_window=None, **kwargs):
        return scan_word(*args, h_window=h_window and (0, 0), **kwargs)

    diagrams = [builtin_diagram("trefoil-"), builtin_diagram("trefoil+")]
    assert _scan_values(diagrams) == [(-2, -3, -1, -2), (2, 1, 3, 2)]
    monkeypatch.setattr(tlscan, "scan_word", narrow)
    assert _scan_values(diagrams) == [(-4, -5, -3, -2), (2, 1, 3, 4)]


def test_window_never_cuts_the_tracked_column():
    # the tracked Lee column lives in degree 0; a cut that reaches it is a
    # hard error, not a silent wrong level
    from khlee.tlscan import ScanComplex, TrackedColumn, _cut_to_window, identity_morphism

    cx = ScanComplex(2, object_cap=8)
    tracked = TrackedColumn(2, {(0, 1): 1, (0, 2): -1})
    obj = tracked.source
    kept = cx.add_object(obj, 0, 0)
    cx.add_object(obj, 2, 0)
    tracked.maps[1][kept] = identity_morphism(obj)
    _cut_to_window(cx, tracked, -1, 1)
    assert set(cx.obj) == {kept}
    with pytest.raises(KhleeError, match=r"tracked Lee column reached an object of degree 0, "
                                         r"outside the scan window \[1, 1\]"):
        _cut_to_window(cx, tracked, 1, 1)


def test_f2_3_all_orientations():
    # every class of F_2(3), among them (1, -1, -1, 1) with 24 Seifert circles
    from khlee.corpus import builtin_diagram
    from khlee.lee import s_all_orientations

    reports = s_all_orientations(builtin_diagram("F_2(3)"), engine="scan")
    assert [(r.orientation, r.s, r.s_min, r.s_max, r.s_plus) for r in reports] == [
        ((1, 1, 1, 1), -3, -4, -2, -1), ((1, -1, 1, 1), 3, 2, 4, 5),
        ((1, 1, -1, 1), 3, 2, 4, 5), ((1, -1, -1, 1), -3, -4, -2, -1),
        ((1, 1, 1, -1), 3, 2, 4, 5), ((1, -1, 1, -1), -3, -4, -2, -1),
        ((1, 1, -1, -1), 33, 32, 34, 33), ((1, -1, -1, -1), 3, 2, 4, 5)]


def test_tracked_columns_stay_small(monkeypatch):
    # each Seifert circle is capped as soon as it closes, so the two tracked
    # maps of windowed F_2(4) stay at a few dozen terms in all
    from khlee import tlscan
    from khlee.corpus import builtin_diagram

    sizes = []

    def measured(fn):
        def run(cx, tracked, *args):
            fn(cx, tracked, *args)
            sizes.append(sum(len(m) for maps in tracked.maps for m in maps.values()))
        return run

    for name in ("_tensor_letter", "_deloop_all", "_eliminate"):
        monkeypatch.setattr(tlscan, name, measured(getattr(tlscan, name)))
    rep = s_invariant(builtin_diagram("F_2(4)"), engine="scan", with_module=False,
                      _compute_plus=False)
    assert (rep.s, rep.s_min) == (-3, -4)
    assert 0 < max(sizes) <= 40


def test_a_piece_with_the_wrong_sign_is_caught(monkeypatch):
    # a slot whose Lee sign disagrees with the rest of its Seifert circle
    # stops the scan instead of capping the circle with a wrong weight
    from khlee import tlscan
    from khlee.corpus import builtin_diagram

    slot_signs = tlscan._slot_signs

    def one_flipped(chain):
        signs = slot_signs(chain)
        signs[(1, 1)] = -signs[(1, 1)]
        return signs

    monkeypatch.setattr(tlscan, "_slot_signs", one_flipped)
    with pytest.raises(KhleeError, match="could not match a scan circle to a Seifert circle"):
        s_invariant(builtin_diagram("trefoil+"), engine="scan", with_module=False)


def _closed_scan_with_lee_vectors(d):
    """Full scan of d's Lee orientation: the closure and (s_o, s_obar)."""
    from khlee.lee import lee_generator
    from khlee.tlscan import scan_word

    chain = lee_generator(d)
    closure = scan_word(chain.diagram, chain=chain)
    return closure, closure.lee_vectors()


@pytest.mark.parametrize("name", ["trefoil+", "hopf+", "Wh+(trefoil+,2)", "F_2(2)",
                                  "C_(3,2)(2)", "turnback"])
def test_closed_evaluator_gives_a_complex_and_lee_cycles(name):
    # the closed differential and both Lee vectors come from one evaluator of
    # closed cobordisms; a fault in it breaks d^2 = 0 or the cycle condition
    from khlee.corpus import builtin_diagram
    from khlee.cube import specialize_t

    if name == "turnback":
        d = from_braid(BraidWord(3, (-1, 2, ("e", 1)), (True, False, True)))
    else:
        d = builtin_diagram(name)
    closure, vectors = _closed_scan_with_lee_vectors(d)
    closure.gc.check_d_squared()
    at_one = specialize_t(closure.gc, 1)
    for vec in vectors:
        assert any(vec.values())
        image = {}
        for g, c in vec.items():
            for tgt, v in at_one.out[g].items():
                image[tgt] = image.get(tgt, 0) + c * v
        assert not any(image.values())


def test_one_resolve_per_tracked_scan(monkeypatch):
    # the scanner reads the oriented resolution's circles from the Lee chain
    # and does not resolve the diagram again
    calls = []
    resolve = OrientedDiagram.resolve
    monkeypatch.setattr(OrientedDiagram, "resolve",
                        lambda self, choice: calls.append(choice) or resolve(self, choice))
    d = from_braid(BraidWord(3, (1, 1, -2, 1, ("e", 1), -2), (True, True, False)))
    s_invariant(d, engine="scan", with_module=False, _compute_plus=False)
    assert len(calls) == 1
