from collections import Counter

import pytest

from khlee.complexes import GradedComplex
from khlee.corpus import builtin_diagram, random_braids, small_corpus
from khlee.cube import build_cube
from khlee.diagrams import BraidWord, from_braid
from khlee.errors import InconsistentModule, KhleeError
from khlee.smith import _graded_snf, homology_qt
from khlee.tlscan import scan_word

from rank_oracle import dims_t0_by_rank, dims_t_by_rank
from snf_oracle import module_by_snf


def module_of(n, letters, orient=()):
    return homology_qt(build_cube(from_braid(BraidWord(n, letters, orient))).complex)


def test_unknot_module():
    hs = module_of(1, ())
    assert hs.free == [(0, -1), (0, 1)]
    assert hs.torsion == []


def test_unlink_module():
    hs = module_of(2, ())
    assert hs.free == [(0, -2), (0, 0), (0, 0), (0, 2)]
    assert hs.torsion == []


def test_trefoil_module():
    hs = module_of(2, (1, 1, 1))
    assert hs.free == [(0, 1), (0, 3)]
    # one Q[t]/(t) summand; the torsion class lives at (3, 9) and its t=0
    # companion generator at (2, 5)
    assert hs.torsion == [(3, 9, 1)]


def test_figure8_module():
    hs = module_of(3, (1, -2, 1, -2))
    assert hs.free == [(0, -1), (0, 1)]
    assert hs.torsion == [(-1, -1, 1), (2, 5, 1)]


def test_free_rank_is_two_to_components():
    for n, letters, orient in [(1, (), ()), (3, (), ()), (2, (1, 1), ()),
                               (2, (1, 1), (True, False)),
                               (3, (1, 2, 1, 2), ()),
                               (3, (-1, 2, ("e", 1)), (True, False, True))]:
        d = from_braid(BraidWord(n, letters, orient))
        hs = homology_qt(build_cube(d).complex)
        assert hs.free_rank() == 2 ** d.n_components


def test_module_consistent_with_specializations():
    for n, letters in [(2, (1, 1, 1)), (3, (1, -2, 1, -2)), (3, (1, 2, -1, -2)),
                       (2, (1, 1, 1, 1))]:
        c = build_cube(from_braid(BraidWord(n, letters))).complex
        hs = homology_qt(c)
        assert hs.dims_t0() == c.dims_at_t0() == dims_t0_by_rank(c)
        assert hs.dims_t1() == dims_t_by_rank(c, 1)


def _module(cx):
    hs = homology_qt(cx)
    return hs.free, hs.torsion


def test_module_matches_snf_oracle_on_cubes():
    named = list(small_corpus())
    named += [(w.letters, from_braid(w)) for w in random_braids(count=20, seed=10, max_letters=6)]
    for name, d in named:
        cx = build_cube(d).complex
        assert _module(cx) == module_by_snf(cx), name


@pytest.mark.parametrize("name", ["T(4,4)", "Wh+(trefoil+,2)", "F_2(2)"])
def test_module_matches_snf_oracle_on_scan_closures(name):
    # the scanner's closed complex before any elimination
    closure = scan_word(builtin_diagram(name))
    assert _module(closure.gc) == module_by_snf(closure.gc)


def _two_term(src_q, tgt_q, entries):
    """Generators src_q at h = 0 and tgt_q at h = 1 (ids in that order);
    entries {(i, j): coeff} map source i to target j with the t-power that
    homogeneity asks for."""
    cx = GradedComplex()
    srcs = [cx.add_gen(0, q) for q in src_q]
    tgts = [cx.add_gen(1, q) for q in tgt_q]
    for (i, j), c in entries.items():
        cx.add_entry(srcs[i], tgts[j], c, (tgt_q[j] - src_q[i]) // 4)
    return cx


def test_torsion_orders_past_one():
    # [[t, t^2], [t^2, 2t^3]] has invariant factors t and t^3: the pass at
    # k = 1 leaves the fill-in 2t^3 - t^3 at level 3
    cx = _two_term([0, -4], [4, 8], {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 2})
    assert _module(cx) == module_by_snf(cx) == ([], [(1, 4, 1), (1, 8, 3)])
    # t^2 alone, and a rank-one block [[t, t^2], [t^2, t^3]]
    cx = _two_term([0], [8], {(0, 0): 5})
    assert _module(cx) == ([], [(1, 8, 2)])
    cx = _two_term([0, -4], [4, 8], {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})
    assert _module(cx) == module_by_snf(cx) == ([(0, -4), (1, 8)], [(1, 4, 1)])
    hs = homology_qt(cx)
    assert hs.dims_t0() == dims_t0_by_rank(cx)
    assert hs.dims_t1() == dims_t_by_rank(cx, 1)
    dims0 = Counter()
    for (h, _q), v in hs.dims_t0().items():
        dims0[h] += v
    assert dims0 == dims_t_by_rank(cx, 0)


def test_three_term_torsion_at_two_degrees():
    # d(a) = t b + t^2 f, d(c) = 3t^2 g, d(b) = t^2 e, d(f) = -t e: the
    # cycles b + t f and g carry Q[t]/(t) and Q[t]/(t^2), and e carries Q[t]/(t)
    cx = GradedComplex()
    a, c = cx.add_gen(0, 0), cx.add_gen(0, 0)
    b, f, g = cx.add_gen(1, 4), cx.add_gen(1, 8), cx.add_gen(1, 8)
    e = cx.add_gen(2, 12)
    for src, tgt, coeff, texp in [(a, b, 1, 1), (a, f, 1, 2), (c, g, 3, 2),
                                  (b, e, 1, 2), (f, e, -1, 1)]:
        cx.add_entry(src, tgt, coeff, texp)
    expect = ([], [(1, 4, 1), (1, 8, 2), (2, 12, 1)])
    assert _module(cx) == module_by_snf(cx) == expect
    hs = homology_qt(cx)
    assert hs.dims_t0() == dims_t0_by_rank(cx)
    assert hs.dims_t1() == dims_t_by_rank(cx, 1) == {}


def test_snf_refuses_a_non_complex():
    cx = GradedComplex()
    a, b, c = cx.add_gen(0, 0), cx.add_gen(1, 4), cx.add_gen(2, 8)
    cx.add_entry(a, b, 1, 1)
    cx.add_entry(b, c, 1, 1)
    with pytest.raises(InconsistentModule, match="not a chain complex"):
        _graded_snf(cx)


def test_snf_refuses_an_inhomogeneous_entry():
    # an entry set past add_entry across a q gap that no power of t fits
    for gap in (-4, -2, 1, 6):
        cx = _two_term([0], [gap], {})
        cx.out[0][1] = 1
        with pytest.raises(KhleeError, match="inhomogeneous entry"):
            _graded_snf(cx)
    # across a q gap of 4 the same entry is t
    cx = _two_term([0], [4], {})
    cx.out[0][1] = 1
    hs = _graded_snf(cx)
    assert (hs.free, hs.torsion) == ([], [(1, 4, 1)])
