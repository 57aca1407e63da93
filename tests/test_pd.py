import pytest

from khlee.diagrams import BraidWord, disjoint_union, from_braid
from khlee.errors import NonPlanar, ParseError
from khlee.lee import s_invariant
from khlee.pdcode import parse_pd

TREFOIL_R = "PD[X(4,2,5,1), X(6,4,1,3), X(2,6,3,5)]"
FIG8 = "PD[X(4,2,5,1), X(8,6,1,5), X(6,3,7,4), X(2,7,3,8)]"
TWO_HOPFS = "PD[X(1,3,2,4), X(3,1,4,2), X(5,7,6,8), X(7,5,8,6)]"
# closures of the small_corpus() braids rand3 and rand5, which are not
# 3-connected
NOT_3_CONNECTED = [
    ((4, (2, 3, -1, -1, 3)),
     "PD[X(3,6,5,2), X(4,8,7,6), X(1,5,10,9), X(9,10,2,1), X(8,4,3,7)]"),
    ((4, (1, -3, 1, -3, 3, 2, -3)),
     "PD[X(2,6,5,1), X(3,4,8,7), X(6,9,1,5), X(7,8,11,10), X(11,13,12,10), "
     "X(12,14,2,9), X(14,13,4,3)]"),
]


def test_empty():
    d = parse_pd("PD[]")
    assert d.n_crossings == 0
    assert d.n_components == 0


def test_positive_trefoil_pd():
    d = parse_pd(TREFOIL_R)
    assert (d.n_plus, d.n_minus, d.n_components) == (3, 0, 1)
    assert d.euler_check()


def test_figure8_pd():
    d = parse_pd(FIG8)
    assert (d.n_plus, d.n_minus) == (2, 2)
    assert d.writhe == 0
    assert d.n_components == 1
    # agrees with the braid closure of (s1 s2^-1)^2
    from khlee.cube import build_cube
    braid = from_braid(BraidWord(3, (1, -2, 1, -2)))
    assert build_cube(d).complex.dims_at_t0() == build_cube(braid).complex.dims_at_t0()


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_pd("X(1,2,3,4)")
    with pytest.raises(ParseError):
        parse_pd("PD[X(1,2,3)]")
    with pytest.raises(ParseError):
        parse_pd("PD[X(1,4,2,5)]")  # arcs appearing once
    # virtual-knot-like incidence data fails the Euler check
    with pytest.raises(NonPlanar):
        parse_pd("PD[X(1,2,3,4), X(2,3,1,4)]")


def test_orient_suffix():
    base = parse_pd("PD[X(1,3,2,4), X(3,1,4,2)]")
    assert base.linking_matrix()[0][1] == 1
    flipped = parse_pd("PD[X(1,3,2,4), X(3,1,4,2)]; orient: comp2=-")
    assert flipped.linking_matrix()[0][1] == -1
    with pytest.raises(ParseError):
        parse_pd("PD[X(1,3,2,4), X(3,1,4,2)]; orient: comp9=-")


def test_kinks():
    for code in ("PD[X(1,2,2,1)]", "PD[X(2,1,1,2)]", "PD[X(1,1,2,2)]"):
        d = parse_pd(code)
        assert d.n_crossings == 1
        assert d.n_components == 1
        rep = s_invariant(d, engine="brute", with_module=False, _compute_plus=False)
        assert rep.s == 0


def test_pd_s_values():
    assert s_invariant(parse_pd(TREFOIL_R), engine="brute",
                       with_module=False, _compute_plus=False).s == 2
    assert s_invariant(parse_pd(FIG8), engine="brute",
                       with_module=False, _compute_plus=False).s == 0


def test_split_pd():
    d = parse_pd(TWO_HOPFS)
    assert (d.n_crossings, d.n_components) == (4, 4)
    hopf = from_braid(BraidWord(2, (1, 1)))
    assert s_invariant(d) == s_invariant(disjoint_union(hopf, hopf))


def test_pd_not_3_connected():
    for (n, word), code in NOT_3_CONNECTED:
        rep = s_invariant(parse_pd(code), with_module=False)
        ref = s_invariant(from_braid(BraidWord(n, word)), engine="scan", with_module=False)
        assert (rep.s, rep.s_plus) == (ref.s, ref.s_plus)
