import pytest

from khlee.corpus import builtin_ssr
from khlee.cube import build_cube
from khlee.diagrams import BraidWord, from_braid
from khlee.errors import KhleeError, NotNullHomologous, NotPositive, ParseError
from khlee.ssr import (SsrDiagram, approx_threshold, bennequin_report, eta,
                       full_twist, insert_twists, is_null_homologous,
                       is_two_divisible, positivity_formula, s_ssr,
                       stabilization_check)


def test_full_twist_words():
    assert full_twist(2, 1).letters == (1, 1)
    assert full_twist(2, -1).letters == (-1, -1)
    assert len(full_twist(4, 1).letters) == 12
    assert full_twist(3, 1, offset=1).letters == (2, 3, 2, 3, 2, 3)
    assert full_twist(1, 5).letters == ()


def test_eta_and_divisibility():
    fp = builtin_ssr("F_2")
    assert eta(fp) == (0,)
    assert is_null_homologous(fp)
    c22 = builtin_ssr("C_(2,2)")
    assert eta(c22) == (2,)
    assert not is_null_homologous(c22)
    assert is_two_divisible(c22)
    odd = SsrDiagram(BraidWord(3, ()), ((1, 3, 0),))
    assert eta(odd) == (3,)
    assert not is_two_divisible(odd)


def test_handle_validation():
    with pytest.raises(ParseError):
        SsrDiagram(BraidWord(3, ()), ((0, 2, 0),))
    with pytest.raises(ParseError):
        SsrDiagram(BraidWord(3, ()), ((1, 2, 0), (2, 3, 0)))  # overlap
    with pytest.raises(ParseError):
        SsrDiagram(BraidWord(3, (1,)), ((1, 2, 9),))  # position out of range
    empty = SsrDiagram(BraidWord(2, (1, 1, 1)), ((1, 0, 0),))
    assert eta(empty) == (0,)


def test_insert_twists_families():
    # F_p at k=1 is the mixed-orientation torus link T(2p, 2p)
    f1 = insert_twists(builtin_ssr("F_1"), (1,))
    assert f1.n_crossings == 2
    assert [c.sign for c in f1.crossings] == [-1, -1]
    f2 = insert_twists(builtin_ssr("F_2"), (1,))
    assert f2.n_crossings == 12
    assert f2.n_components == 4
    # Whitehead approximations: D(1) = figure-eight, D(-1) = trefoil
    wh = builtin_ssr("Wh+")
    d1 = insert_twists(wh, (1,))
    assert build_cube(d1).complex.dims_at_t0() == \
        build_cube(from_braid(BraidWord(3, (1, -2, 1, -2)))).complex.dims_at_t0()
    dm1 = insert_twists(wh, (-1,))
    assert build_cube(dm1).complex.dims_at_t0() == \
        build_cube(from_braid(BraidWord(2, (1, 1, 1)))).complex.dims_at_t0()


def test_thresholds():
    assert approx_threshold(builtin_ssr("F_1"), "minus") == 1
    assert approx_threshold(builtin_ssr("F_2"), "plus") == 1
    wh = builtin_ssr("Wh+")
    assert approx_threshold(wh, "minus") == 2
    assert approx_threshold(wh, "plus") == 1
    base5 = SsrDiagram(BraidWord(3, (1, 1, 2, 2, 1)), ((1, 0, 0),))
    assert approx_threshold(base5, "minus") == 4  # ceil((5+2)/2)


def test_s_ssr_whitehead():
    rep = s_ssr(builtin_ssr("Wh+"), engine="scan")
    assert (rep.s_minus, rep.s_plus) == (0, 2)
    assert (rep.gDS_lower, rep.gSD_lower) == (0, 1)
    assert rep.ell == 1
    rep2 = s_ssr(builtin_ssr("Wh-"), engine="scan")
    assert (rep2.s_minus, rep2.s_plus) == (-2, 0)


def test_s_ssr_fp():
    for p in (1, 2):
        rep = s_ssr(builtin_ssr(f"F_{p}"), engine="scan")
        assert (rep.s_minus, rep.s_plus) == (-(2 * p - 1), 2 * p - 1)


def test_s_ssr_local_link():
    rep = s_ssr(builtin_ssr("local(trefoil+)"), engine="scan")
    assert (rep.s_minus, rep.s_plus) == (2, 2)


def test_s_ssr_requires_null_homologous():
    with pytest.raises(NotNullHomologous):
        s_ssr(builtin_ssr("C_(2,1)"))


def test_stabilization_sweeps():
    table, stab = stabilization_check(builtin_ssr("Wh+"), 4, engine="scan")
    assert stab and all(row[1] == 0 for row in table)
    table, stab = stabilization_check(builtin_ssr("F_1"), 3, engine="scan")
    assert stab and all(row[1] == -1 for row in table)
    # shifted sweep for the non-null-homologous cable C_{2,1}
    table, stab = stabilization_check(builtin_ssr("C_(2,1)"), 3, engine="scan",
                                      shift_per_k=2)
    assert stab and all(row[2] == 0 for row in table)


def test_bennequin_reports():
    rep = bennequin_report(BraidWord(2, (1, 1, 1)), engine="scan")
    assert rep == {"sl": 1, "s_plus": 2, "s_plus_bound_ok": True}
    rep = bennequin_report(BraidWord(2, ()), engine="scan")
    assert rep == {"sl": -2, "s_plus": 1, "s_plus_bound_ok": True}


def test_bennequin_report_needs_a_braid_closure():
    # sl = wr - strands holds only when every strand runs up: on these words
    # it gave sl 0 and 2 against s_+ = -1, false violations of the bound
    for word, reason in [(BraidWord(2, (1, 1), (True, False)), "a downward strand"),
                         (BraidWord(2, (1, 1, 1, 1), (True, False)), "a downward strand"),
                         (BraidWord(3, (-1, 2, ("e", 1)), (True, False, True)),
                          "a turnback letter")]:
        with pytest.raises(KhleeError, match=f"the word has {reason}, so its closure "
                                             "is not a braid closure"):
            bennequin_report(word, engine="scan")


def test_positivity_formula():
    assert positivity_formula(builtin_ssr("Wh+")) == 0
    assert positivity_formula(builtin_ssr("F_2")) == -3
    assert positivity_formula(builtin_ssr("local(trefoil+)")) == 2
    with pytest.raises(NotPositive):
        positivity_formula(builtin_ssr("Wh-"))


def test_dehn_twist_spot_check():
    rep = s_ssr(builtin_ssr("DT(Wh+)"), engine="scan")
    assert rep.s_minus == 0
