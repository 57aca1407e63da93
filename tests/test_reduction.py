import random
from fractions import Fraction

import pytest

from khlee import qt
from khlee.complexes import GradedComplex
from khlee.corpus import random_braids, small_corpus
from khlee.cube import build_cube, specialize_t
from khlee.diagrams import BraidWord, from_braid
from khlee.errors import KhleeError
from khlee.reduction import scan_reduce
from khlee.tlscan import scan_complex

from rank_oracle import dims_t0_by_rank, dims_t_by_rank


def test_zero_differential_unchanged():
    c = build_cube(from_braid(BraidWord(2, ()))).complex
    red = scan_reduce(c)
    assert red.n_gens == c.n_gens


def test_hopf_reduction():
    c = build_cube(from_braid(BraidWord(2, (1, 1)))).complex
    red = scan_reduce(c)
    assert red.n_gens <= 8
    assert red.dims_at_t0() == dims_t0_by_rank(c)
    assert red.dims_at_t(1) == dims_t_by_rank(c, 1)


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
            for tgt, (coeff, e) in row.items():
                assert e >= 1, "an invertible entry survived the reduction"
        assert red.dims_at_t0() == dims_t0_by_rank(c)
        assert red.dims_at_t(1) == dims_t_by_rank(c, 1)


def _raw_window_levels(d, chain):
    """The levels of (s_o, s_obar, s_o + s_obar, s_o - s_obar), solved on the
    unreduced (-1, 0) window of the cube."""
    from khlee.lee import filtration_level, lee_vector_in_cube

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
        vo = {g: qt.mono(c) for g, c in lee_vector_in_cube(chain, cube).items()}
        vbar = {g: qt.mono(c) for g, c in
                lee_vector_in_cube(chain.conjugate(), cube).items()}
        red, (vo, vbar) = scan_reduce(cube.complex, tracked=[vo, vbar])
        reduced = _reduced_levels_from_tracked(red, vo, vbar)
        assert _raw_window_levels(d, chain) == reduced


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
        levels, module = _brute_levels(d, chain, None)
        assert module is None
        assert levels == _raw_window_levels(d, chain), d.braid
        compared += 1
    assert compared >= 100


def test_dims_match_rank_oracle():
    # the dimensions read off the reduced complex against ranks over the
    # full cube, on the named corpus and on seeded random braids
    named = [d for _, d in small_corpus()]
    named += [from_braid(w) for w in random_braids(count=12, seed=7, max_letters=6)]
    for d in named:
        c = build_cube(d).complex
        assert c.dims_at_t0() == dims_t0_by_rank(c)
        assert c.dims_at_t(1) == dims_t_by_rank(c, 1)


def _plain(cx, src, tgt, coeff, texp):
    """Set an entry straight into the dictionaries, past add_entry."""
    cx.out[src][tgt] = cx.inc[tgt][src] = (Fraction(coeff), texp)


def test_inhomogeneous_entry_raises():
    c = build_cube(from_braid(BraidWord(2, (1, 1, 1)))).complex
    src = c.gens_at(0)[0]
    tgt = next(g for g in c.gens_at(1) if c.gen_q[g] != c.gen_q[src])
    _plain(c, src, tgt, 1, 0)
    with pytest.raises(KhleeError, match="inhomogeneous"):
        scan_reduce(c)
    with pytest.raises(KhleeError, match="inhomogeneous"):
        c.dims_at_t0()  # the entry leaves its q slice
    cx = GradedComplex()
    a, b = cx.add_gen(0, 0), cx.add_gen(2, 0)
    _plain(cx, a, b, 1, 0)  # raises h by two
    with pytest.raises(KhleeError, match="inhomogeneous"):
        scan_reduce(cx)


def test_non_dividing_pivot_stays_exact():
    # d(b) = 2 c0 + t f and d(e) = t c0: the only unit pivot is 2, and the
    # fill-in e -> f is -1/2 t^2
    cx = GradedComplex()
    b, c0, f, e = cx.add_gen(0, 0), cx.add_gen(1, 0), cx.add_gen(1, 4), cx.add_gen(0, -4)
    cx.add_entry(b, c0, 2, 0)
    cx.add_entry(b, f, 1, 1)
    cx.add_entry(e, c0, 1, 1)
    red, (v,) = scan_reduce(cx, tracked=[{c0: qt.mono(1)}])
    assert red.gens() == [f, e]
    assert red.out[e] == {f: (Fraction(-1, 2), 2)}
    assert type(red.out[e][f][0]) is Fraction
    assert v == {f: {1: Fraction(-1, 2)}}
    assert type(v[f][1]) is Fraction
    assert cx.n_gens == 4  # the input is left alone


def test_reduced_coefficients_are_fractions():
    # no int or float may reach the Smith form, where int / int is a float
    from khlee.lee import lee_generator, lee_vector_in_cube

    for _name, d in small_corpus():
        cube = build_cube(d)
        tracked = []
        if d.n_components:
            chain = lee_generator(d)
            tracked = [{g: qt.mono(c) for g, c in lee_vector_in_cube(ch, cube).items()}
                       for ch in (chain, chain.conjugate())]
        red, vectors = scan_reduce(cube.complex, tracked=tracked)
        for v in vectors:
            assert all(type(c) is Fraction for poly in v.values() for c in poly.values())
        reduced = [red] if d.braid is None else [red, scan_complex(d)]
        for cx in reduced:
            for row in list(cx.out.values()) + list(cx.inc.values()):
                assert all(type(c) is Fraction for c, _e in row.values())


def test_scan_tracked_vectors_are_fractions(monkeypatch):
    # the scan engine computes with ints; its tracked Lee vectors must still
    # reach the level solve as Fractions
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
            assert all(type(c) is Fraction for poly in v.values() for c in poly.values())
