import hashlib
import random
from fractions import Fraction

import pytest

from khlee.complexes import GradedComplex
from khlee.corpus import random_braids, small_corpus, torus_word
from khlee.cube import build_cube, specialize_t
from khlee.diagrams import BraidWord, from_braid
from khlee.errors import KhleeError
from khlee.linalg import rank_of_columns
from khlee.reduction import scan_reduce
from khlee.smith import homology_qt
from khlee.tlscan import scan_complex, scan_levels

from rank_oracle import dims_t0_by_rank, dims_t_by_rank, rank_over_q


def test_zero_differential_unchanged():
    c = build_cube(from_braid(BraidWord(2, ()))).complex
    red = scan_reduce(c)
    assert red.n_gens == c.n_gens


def test_hopf_reduction():
    c = build_cube(from_braid(BraidWord(2, (1, 1)))).complex
    red = scan_reduce(c)
    assert red.n_gens <= 8
    assert red.dims_at_t0() == dims_t0_by_rank(c)
    assert homology_qt(red).dims_t1() == dims_t_by_rank(c, 1)


def test_no_unit_entries_left_and_equivalence():
    rng = random.Random(1)
    words = [(2, (1, 1, 1)), (3, (1, -2, 1, -2)), (3, (1, 2, 1)),
             (2, (1, -1, 1)), (3, (-1, -2, -1, 2))]
    for _ in range(4):
        n = rng.randint(2, 3)
        letters = tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(5))
        words.append((n, letters))
    for n, letters in words:
        c = build_cube(from_braid(BraidWord(n, letters))).complex
        red = scan_reduce(c)
        red.check_d_squared()
        for src, row in red.out.items():
            for tgt in row:
                assert red.gen_q[tgt] > red.gen_q[src], \
                    "an invertible entry survived the reduction"
        assert red.dims_at_t0() == dims_t0_by_rank(c)
        assert homology_qt(red).dims_t1() == dims_t_by_rank(c, 1)


def _raw_window_levels(d, chain):
    """The levels of (s_o, s_obar, s_o + s_obar, s_o - s_obar), solved on the
    unreduced (-1, 0) window of the cube."""
    from khlee.lee import lee_vector_in_cube
    from rank_oracle import filtration_level

    window = build_cube(d, h_window=(-1, 0))
    filt = specialize_t(window.complex, 1)
    zo = lee_vector_in_cube(chain, window)
    zbar = lee_vector_in_cube(chain.conjugate(), window)
    keys = set(zo) | set(zbar)
    plus = {g: zo.get(g, 0) + zbar.get(g, 0) for g in keys}
    minus = {g: zo.get(g, 0) - zbar.get(g, 0) for g in keys}
    return tuple(filtration_level(filt, z) for z in (zo, zbar, plus, minus))


def test_tracked_vector_retraction_preserves_class():
    # push a cycle through the reduction of the full cube and compare the
    # level of its class with the raw solve on the unreduced window
    from khlee.lee import _reduced_levels_from_tracked, lee_generator, lee_vector_in_cube

    for n, letters, orient in [(2, (1, 1, 1), ()), (3, (1, -2, 1, -2), ()),
                               (2, (1, 1), (True, False))]:
        d = from_braid(BraidWord(n, letters, orient))
        chain = lee_generator(d)
        cube = build_cube(d)
        vo = lee_vector_in_cube(chain, cube)
        vbar = lee_vector_in_cube(chain.conjugate(), cube)
        red, (vo, vbar) = scan_reduce(cube.complex, tracked=[vo, vbar])
        reduced = _reduced_levels_from_tracked(red, vo, vbar)
        assert _raw_window_levels(d, chain) == reduced


def test_covector_follows_the_pivot():
    # d(a) = d(b) = c: the pivot (a, c) goes first, v = a - b keeps b, and
    # w = a* is pulled back to e - d(e -> c) / lam a at e = b, so <w, v> = 1
    # stays; a flipped sign or w read at c instead of a breaks it
    cx = GradedComplex()
    a, b, c = cx.add_gen(0, 0), cx.add_gen(0, 0), cx.add_gen(1, 0)
    cx.add_entry(a, c, 1, 0)
    cx.add_entry(b, c, 1, 0)
    _red, (v,), (w,) = scan_reduce(cx, tracked=[{a: 1, b: -1}], cotracked=[{a: 1}])
    assert (v, w) == ({b: -1}, {b: -1})
    # a non-unit pivot: d(a) = 2c, d(b) = 3c, so w(b) = -3/2
    cx = GradedComplex()
    a, b, c = cx.add_gen(0, 0), cx.add_gen(0, 0), cx.add_gen(1, 0)
    cx.add_entry(a, c, 2, 0)
    cx.add_entry(b, c, 3, 0)
    _red, (v,), (w,) = scan_reduce(cx, tracked=[{a: 3, b: -2}], cotracked=[{a: 1}])
    assert (v, w) == ({b: -2}, {b: Fraction(-3, 2)})


def _pairings(vectors, covectors):
    return [[sum(c * v.get(g, 0) for g, c in w.items()) for v in vectors]
            for w in covectors]


def test_covectors_keep_the_lee_pairing():
    # the Lee cycles v_o, v_obar and the same vectors read as cocycles pair
    # as 2^k delta (k circles) before and after the reduction of the (-1, 1)
    # window and of the full cube, whose pivots hit both sides of h = 0
    from khlee.lee import lee_generator, lee_vector_in_cube

    diagrams = [d for _name, d in small_corpus() if d.n_components and d.n_crossings <= 6]
    diagrams += [from_braid(w) for w in random_braids(count=10, seed=53, max_letters=6)]
    for d in diagrams:
        chain = lee_generator(d)
        k = len(chain.circle_signs)
        for window in ((-1, 1), None):
            cube = build_cube(chain.diagram, h_window=window)
            vs = [lee_vector_in_cube(ch, cube) for ch in (chain, chain.conjugate())]
            assert _pairings(vs, vs) == [[2**k, 0], [0, 2**k]]
            red, vs, ws = scan_reduce(cube.complex, tracked=vs, cotracked=vs)
            assert _pairings(vs, ws) == [[2**k, 0], [0, 2**k]], d.braid
            assert all(red.gen_h[g] == 0 for w in ws for g in w)


def test_broken_pairing_is_inconsistent(monkeypatch):
    from khlee import lee
    from khlee.errors import InconsistentModule

    def dropped_covector(cx, tracked, cotracked):
        red, vs, ws = scan_reduce(cx, tracked=tracked, cotracked=cotracked)
        return red, vs, [ws[0], {}]

    monkeypatch.setattr(lee, "scan_reduce", dropped_covector)
    d = from_braid(BraidWord(2, (1, 1, 1)))
    chain = lee.lee_generator(d)
    with pytest.raises(InconsistentModule, match=r"<w_1, v_1> = 0 after the reduction"):
        lee._brute_levels(d, chain, None, want_plus=True)


def test_brute_levels_match_raw_window_solve():
    # the brute engine solves on the reduced window; the raw solve on the
    # unreduced window is its oracle, over both mirror images
    from khlee.lee import _brute_levels, lee_generator

    diagrams = [d for _name, d in small_corpus()]
    diagrams += [from_braid(w) for w in random_braids(count=20, seed=31, max_letters=7)]
    compared = 0
    for d in diagrams + [d.mirror() for d in diagrams]:
        if not d.n_components:
            continue
        if build_cube(d, h_window=(-1, 0)).complex.n_gens > 1000:
            continue
        chain = lee_generator(d)
        levels, mirror, module = _brute_levels(d, chain, None)
        assert mirror is None and module is None
        assert levels == _raw_window_levels(d, chain), d.braid
        compared += 1
    assert compared >= 100


def _cube(d, ordered, h_window=None):
    """The cube of d; without its positions unless ``ordered``, so that
    ``scan_reduce`` takes its pivots in Markowitz order alone."""
    cube = build_cube(d, h_window=h_window)
    if not ordered:
        cube.complex.pos = None
    return cube


def _window_levels(d, chain, ordered):
    """The four levels on the reduced (-1, 0) window, its pivots in cube
    order or in Markowitz order alone."""
    from khlee.lee import _reduced_levels_from_tracked, lee_vector_in_cube

    cube = _cube(d, ordered, h_window=(-1, 0))
    vo = lee_vector_in_cube(chain, cube)
    vbar = lee_vector_in_cube(chain.conjugate(), cube)
    red, (vo, vbar) = scan_reduce(cube.complex, tracked=[vo, vbar])
    return _reduced_levels_from_tracked(red, vo, vbar)


def test_cube_order_keeps_levels_and_modules():
    # the pivot order changes the leftover complex, so compare values
    from khlee.lee import lee_generator

    diagrams = [d for _name, d in small_corpus()]
    diagrams += [from_braid(w) for w in random_braids(count=20, seed=41)]
    for d in diagrams:
        ordered, plain = _cube(d, True).complex, _cube(d, False).complex
        assert homology_qt(ordered) == homology_qt(plain), d.braid
        assert ordered.dims_at_t0() == plain.dims_at_t0(), d.braid
        if d.n_components:
            chain = lee_generator(d)
            dd = chain.diagram
            assert _window_levels(dd, chain, True) == _window_levels(dd, chain, False), d.braid


def test_cube_order_on_t44_uudd():
    # the unordered kernel takes about a minute on this window; the scanner
    # is the oracle here, and the levels are the ones the unordered kernel
    # gave
    from khlee.lee import lee_generator

    d = from_braid(BraidWord(4, torus_word(4, 4), (True, True, False, False)))
    chain = lee_generator(d)
    dd = chain.diagram
    levels, module = scan_levels(dd, chain)
    assert _window_levels(dd, chain, True) == levels == (-4, -4, -4, -2)
    assert homology_qt(build_cube(dd).complex) == module


def test_dims_match_rank_oracle():
    # the dimensions read off the reduced complex against ranks over the
    # full cube, on the named corpus and on seeded random braids
    named = [d for _, d in small_corpus()]
    named += [from_braid(w) for w in random_braids(count=12, seed=7, max_letters=6)]
    for d in named:
        c = build_cube(d).complex
        assert c.dims_at_t0() == dims_t0_by_rank(c)
        assert homology_qt(c).dims_t1() == dims_t_by_rank(c, 1)


def test_inhomogeneous_entry_raises():
    # an entry set straight into the table, whose q gap is negative or not a
    # multiple of 4, so that no power of t fits it; add_entry refuses it too
    readers = (scan_reduce, homology_qt, GradedComplex.dims_at_t0)
    for gap in (-4, -2, -1, 2, 6):
        cx = GradedComplex()
        a, b = cx.add_gen(0, 0), cx.add_gen(1, gap)
        for texp in (0, 1, 2):
            with pytest.raises(KhleeError, match="inhomogeneous"):
                cx.add_entry(a, b, 1, texp)
        assert cx.out[a] == {}
        cx.out[a][b] = 1
        # the same entry on a cube, next to the cube's own
        c = build_cube(from_braid(BraidWord(2, (1, 1, 1)))).complex
        src = c.gens_at(0)[0]
        c.out[src][c.add_gen(1, c.gen_q[src] + gap)] = 1
        for complex_ in (cx, c):
            for reader in readers:
                with pytest.raises(KhleeError, match="inhomogeneous"):
                    reader(complex_)
    # an entry that raises h by two
    cx = GradedComplex()
    a, b = cx.add_gen(0, 0), cx.add_gen(2, 0)
    with pytest.raises(KhleeError, match="raise h by one"):
        cx.add_entry(a, b, 1, 0)
    cx.out[a][b] = 1
    for reader in readers:
        with pytest.raises(KhleeError, match="inhomogeneous"):
            reader(cx)
    # add_entry refuses a negative power of t, even one that q would fit
    cx = GradedComplex()
    a, b = cx.add_gen(0, 4), cx.add_gen(1, 0)
    with pytest.raises(KhleeError, match="negative power"):
        cx.add_entry(a, b, 1, -1)


def test_scan_closure_entries_are_checked(monkeypatch):
    # the closure writes its entries straight into its complex; one whose
    # target label is swapped on the first circle moves q by 2, and the
    # reduction refuses it
    from khlee import tlscan

    closed_entries = tlscan._closed_entries

    def off_by_a_label(closed, k):
        return [(ms, mt ^ 1, c) for ms, mt, c in closed_entries(closed, k)]

    monkeypatch.setattr(tlscan, "_closed_entries", off_by_a_label)
    d = from_braid(BraidWord(2, (1, 1, 1)))
    gc = tlscan.scan_word(d).gc
    with pytest.raises(KhleeError, match="inhomogeneous"):
        scan_reduce(gc)
    with pytest.raises(KhleeError, match="inhomogeneous"):
        scan_complex(d)


def test_non_dividing_pivot_stays_exact():
    # d(b) = 2 c0 + t f and d(e) = t c0: the only unit pivot is 2, and the
    # fill-in e -> f is -1/2 t^2; the tracked c0 retracts to -1/2 t f, which
    # is -1/2 f at t = 1
    cx = GradedComplex()
    b, c0, f, e = cx.add_gen(0, 0), cx.add_gen(1, 0), cx.add_gen(1, 4), cx.add_gen(0, -4)
    cx.add_entry(b, c0, 2, 0)
    cx.add_entry(b, f, 1, 1)
    cx.add_entry(e, c0, 1, 1)
    red, (v,) = scan_reduce(cx, tracked=[{c0: 1}])
    assert red.gens() == [f, e]
    assert red.out[e] == {f: Fraction(-1, 2)}
    assert red.gen_q[f] - red.gen_q[e] == 4 * 2
    assert type(red.out[e][f]) is Fraction
    assert v == {f: Fraction(-1, 2)}
    assert type(v[f]) is Fraction
    assert cx.n_gens == 4  # the input is left alone


def test_rank_of_columns_is_exact():
    # the third column is 2 * first - second over Q; a float quotient left a
    # residual of -1.8e-15 and counted it as independent
    assert rank_of_columns([{0: -3, 1: 1}, {0: -5, 2: 5}, {0: 4, 1: 2, 2: -10}]) == 2
    # an explicit zero entry is no pivot
    assert rank_of_columns([{0: 0, 1: 1}, {0: 1}]) == 2
    # seeded integer systems with dependent columns, against the oracle's
    # fraction-free echelon
    rng = random.Random(3)
    for _ in range(300):
        rows = rng.randint(1, 6)
        base = [{r: rng.randint(-6, 6) for r in range(rows) if rng.random() < 0.6}
                for _ in range(rng.randint(1, 4))]
        cols = list(base)
        for _ in range(rng.randint(1, 3)):
            mult = [rng.randint(-3, 3) for _b in base]
            cols.append({r: sum(m * b.get(r, 0) for m, b in zip(mult, base))
                         for r in range(rows)})
        rng.shuffle(cols)
        assert rank_of_columns(cols) == rank_over_q(cols) <= len(base)


def _exact_numbers(values):
    # the one number form: an int where integral, a Fraction only where not
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in values)


def test_coefficients_are_never_floats():
    # the cube, the kernel's output and the tracked vectors stay exact
    from khlee.lee import lee_generator, lee_vector_in_cube

    for _name, d in small_corpus():
        cube = build_cube(d)
        tracked = []
        if d.n_components:
            chain = lee_generator(d)
            tracked = [lee_vector_in_cube(ch, cube) for ch in (chain, chain.conjugate())]
        red, vectors = scan_reduce(cube.complex, tracked=tracked)
        for v in vectors:
            assert _exact_numbers(v.values())
        reduced = [cube.complex, red] + ([] if d.braid is None else [scan_complex(d)])
        for cx in reduced:
            for row in cx.out.values():
                assert _exact_numbers(row.values())


def test_scan_tracked_vectors_are_never_floats(monkeypatch):
    # the scan engine's tracked Lee vectors reach the level solve exact
    from khlee import lee

    handed = []
    levels_from_tracked = lee._reduced_levels_from_tracked

    def probe(red, vo, vbar):
        handed.append((vo, vbar))
        return levels_from_tracked(red, vo, vbar)

    monkeypatch.setattr(lee, "_reduced_levels_from_tracked", probe)
    braids = [d for _name, d in small_corpus() if d.braid is not None and d.n_components]
    for d in braids:
        lee.s_invariant(d, engine="scan", with_module=False, _compute_plus=False)
    assert len(handed) >= len(braids)
    for vectors in handed:
        for v in vectors:
            assert _exact_numbers(v.values())


def test_complexes_and_modules_are_pinned():
    # every entry the cube, the kernel and the scanner write, and every
    # module and dimension read off them, on the named corpus: pinned by a
    # digest of the text export, which spells each power of t out
    from khlee.tlscan import scan_word

    lines = []
    for name, d in small_corpus():
        cx = build_cube(d).complex
        lines += [name, cx.export_text(), scan_reduce(cx).export_text(),
                  repr(homology_qt(cx).to_dict()), repr(sorted(cx.dims_at_t0().items()))]
        if d.braid is not None:
            scanned = scan_complex(d)
            lines += [scan_word(d).gc.export_text(), scanned.export_text(),
                      repr(homology_qt(scanned).to_dict())]
    assert len(lines) == 5 * 52 + 3 * sum(d.braid is not None for _n, d in small_corpus())
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "4d484434f93716ea8ee6e770409cefc42733476c5d4c9a57686bc9e917931631"
