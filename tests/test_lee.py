import pytest

from khlee.cube import build_cube, specialize_t
from khlee.diagrams import BraidWord, from_braid
from khlee.errors import InconsistentModule
from khlee.lee import lee_generator, lee_vector_in_cube, s_all_orientations, s_invariant
from khlee.smith import HomologySummary, homology_qt
from rank_oracle import filtration_level


def D(n, letters, orient=()):
    return from_braid(BraidWord(n, letters, orient))


def _q_level(chain) -> int:
    """Minimum generator q-degree over the terms of the Lee chain: every term
    is nonzero, and the all-x one has the least degree."""
    d = chain.diagram
    return sum(chain.choice) + d.n_plus - 2 * d.n_minus - len(chain.circle_signs)


def s_from_module(summary: HomologySummary, ell: int):
    """Cross-check: for knots the two free generators sit at q = s -+ 1."""
    if ell != 1:
        return None
    if summary.free_rank() != 2:
        raise InconsistentModule(f"free rank {summary.free_rank()} != 2 for a knot")
    (h1, q1), (h2, q2) = summary.free
    if h1 != 0 or h2 != 0 or abs(q1 - q2) != 2:
        raise InconsistentModule(f"free part {summary.free} has the wrong shape")
    return (q1 + q2) // 2


def test_unknot_generator():
    chain = lee_generator(D(1, ()))
    assert chain.circle_signs == (1,)
    assert _q_level(chain) == -1


def test_unlink_generator():
    chain = lee_generator(D(2, ()))
    assert chain.circle_signs == (1, 1)
    assert _q_level(chain) == -2


def test_hopf_cycles_both_orientations():
    d = D(2, (1, 1))
    lee_generator(d, (1, 1))
    lee_generator(d, (1, -1))  # raises NotACycle on a bug


@pytest.mark.parametrize("orientation", [(1, 0), (1, 2)])
def test_orientation_entries_must_be_signs(orientation):
    # an entry other than +1/-1 is an error, not the orientation (1, 1)
    from khlee.errors import KhleeError

    d = D(2, (1, 1))
    match = f"orientation entry {orientation[1]} is not"
    with pytest.raises(KhleeError, match=match):
        lee_generator(d, orientation)
    with pytest.raises(KhleeError, match=match):
        s_invariant(d, orientation)


def test_conjugate_flips_signs():
    chain = lee_generator(D(2, (1, 1, 1)))
    conj = chain.conjugate()
    assert conj.circle_signs == tuple(-s for s in chain.circle_signs)
    assert _q_level(conj) == _q_level(chain)


def _expanded_cycle(signs):
    """Oracle: the Lee cycle's 2^k terms, label mask -> coefficient, bit j
    set for label x on circle j, which weighs 1 (label 1 weighs eps_j)."""
    terms = {0: 1}
    for j, eps in enumerate(signs):
        new = {}
        for mask, c in terms.items():
            new[mask] = c * eps
            new[mask | 1 << j] = c
        terms = new
    return terms


def test_q_level_and_cube_vector_match_the_expanded_cycle():
    # the closed-form q-level is the least degree over the expanded terms,
    # and the cube vector holds exactly those terms, for o and for obar
    from khlee.corpus import small_corpus

    for name, d in small_corpus():
        if d.n_components == 0:
            continue
        chain = lee_generator(d)
        k = len(chain.circle_signs)
        terms = _expanded_cycle(chain.circle_signs)
        # reversing every component flips each factor's sign: (-1)^(# labels 1)
        bar_terms = {m: c * (-1) ** (k - bin(m).count("1")) for m, c in terms.items()}
        for ch, want in ((chain, terms), (chain.conjugate(), bar_terms)):
            dd = ch.diagram
            base = sum(ch.choice) + dd.n_plus - 2 * dd.n_minus
            assert _q_level(ch) == min(base + k - 2 * bin(m).count("1")
                                       for m, c in want.items() if c), name
            if dd.n_crossings <= 6:
                cube = build_cube(dd, h_window=(-1, 0))
                assert lee_vector_in_cube(ch, cube) == {
                    cube.gen(ch.choice, m): c for m, c in want.items()}, name


def test_lee_generator_on_32_circles():
    # F_2(4)'s class (1, -1, -1, 1) has 32 Seifert circles: the chain keeps
    # their signs, never a 2^32-term table
    from khlee.corpus import builtin_diagram

    chain = lee_generator(builtin_diagram("F_2(4)"), (1, -1, -1, 1))
    assert len(chain.circle_signs) == 32
    assert set(chain.circle_signs) == {1, -1}
    assert chain.conjugate().circle_signs == tuple(-e for e in chain.circle_signs)


def test_orientation_class_budget_message():
    from khlee.corpus import builtin_diagram
    from khlee.errors import ResourceLimit

    with pytest.raises(ResourceLimit, match=r"^128 orientation classes for 8 components, "
                                            r"over the budget of 64$"):
        s_all_orientations(builtin_diagram("U_8"))


def test_filtration_levels():
    d = D(1, ())
    cube = build_cube(d, h_window=(-1, 0))
    chain = lee_generator(d)
    z = lee_vector_in_cube(chain, cube)
    assert filtration_level(specialize_t(cube.complex, 1), z) == -1
    d = D(2, (1, 1, 1))
    cube = build_cube(d, h_window=(-1, 0))
    z = lee_vector_in_cube(lee_generator(d), cube)
    assert filtration_level(specialize_t(cube.complex, 1), z) == 1  # s - 1


def test_s_values_brute():
    cases = [
        ((1, ()), (), 0),
        ((2, ()), (), -1),
        ((3, ()), (), -2),
        ((2, (1, 1)), (), 1),
        ((2, (1, 1, 1)), (), 2),
        ((2, (-1, -1, -1)), (), -2),
        ((3, (1, -2, 1, -2)), (), 0),
        ((2, (1, 1)), (True, False), -1),
    ]
    for (n, letters), orient, expect in cases:
        rep = s_invariant(D(n, letters, orient), engine="brute",
                          with_module=False, _compute_plus=False)
        assert rep.s == expect
        assert rep.s_min == expect - 1
        assert rep.s_max == expect + 1


def test_report_invariants():
    rep = s_invariant(D(2, (1, 1, 1)), engine="brute")
    assert rep.s_minus == rep.s == 2
    assert rep.s_plus == 2
    assert rep.free_gen_q_degrees == [1, 3]
    assert (rep.s - (1 - 1)) % 2 == 0
    d = rep.to_dict()
    assert d["s"] == 2 and d["orientation"] == [1]


def test_empty_link_convention():
    rep = s_invariant(from_braid(BraidWord(1, ())).__class__({}))
    assert rep.s == 1
    assert rep.s_minus == 1 and rep.s_plus == 1


def test_all_orientations_hopf():
    reps = s_all_orientations(D(2, (1, 1)), engine="brute")
    assert sorted(r.s for r in reps) == [-1, 1]
    reps = s_all_orientations(D(2, ()), engine="brute")
    assert [r.s for r in reps] == [-1, -1]


def test_s_from_module():
    hs = homology_qt(build_cube(D(2, (1, 1, 1))).complex)
    assert s_from_module(hs, 1) == 2
    hs8 = homology_qt(build_cube(D(3, (1, -2, 1, -2))).complex)
    assert s_from_module(hs8, 1) == 0
    assert s_from_module(hs, 2) is None
    with pytest.raises(InconsistentModule):
        s_from_module(HomologySummary([(0, 1)], []), 1)


def test_mirror_and_reverse_symmetries():
    for n, letters in [(2, (1, 1, 1)), (3, (1, -2, 1, -2)), (3, (1, 2, 1))]:
        d = D(n, letters)
        s = s_invariant(d, engine="brute", with_module=False, _compute_plus=False).s
        sm = s_invariant(d.mirror(), engine="brute", with_module=False,
                         _compute_plus=False).s
        if d.n_components == 1:
            assert sm == -s
        sr = s_invariant(d.reverse(), engine="brute", with_module=False,
                         _compute_plus=False).s
        assert sr == s


# (s, s_min, s_max, s_minus, s_plus) of the named small_corpus() diagrams,
# recorded before the Lee signs came from the checkerboard colouring
GOLDEN = {
    "unknot": (0, -1, 1, 0, 0), "unknot-kink+": (0, -1, 1, 0, 0),
    "unknot-kink-": (0, -1, 1, 0, 0), "U2": (-1, -2, 0, -1, 1),
    "U3": (-2, -3, -1, -2, 2), "hopf+": (1, 0, 2, 1, 1),
    "hopf-": (-1, -2, 0, -1, -1), "trefoil+": (2, 1, 3, 2, 2),
    "trefoil-": (-2, -3, -1, -2, -2), "figure8": (0, -1, 1, 0, 0),
    "5_1": (4, 3, 5, 4, 4), "5_2": (1, 0, 2, 1, 1), "6_1": (0, -1, 1, 0, 0),
    "6_2": (2, 1, 3, 2, 2), "6_3": (0, -1, 1, 0, 0), "T(2,4)": (3, 2, 4, 3, 3),
    "T(2,6)": (5, 4, 6, 5, 5), "T(3,3)": (4, 3, 5, 4, 4),
    "T(3,4)": (6, 5, 7, 6, 6), "T(2,-4)": (-3, -4, -2, -3, -3),
    "F_1(1)": (-1, -2, 0, -1, -1), "F_1(2)": (-1, -2, 0, -1, -1),
    "Wh+D0": (0, -1, 1, 0, 0), "Wh+D1": (0, -1, 1, 0, 0),
    "Wh+D-1": (2, 1, 3, 2, 2), "granny-braid": (4, 3, 5, 4, 4),
    "square-braid": (0, -1, 1, 0, 0),
}


def test_small_corpus_golden_values():
    from khlee.corpus import small_corpus

    named = dict(small_corpus())
    for name, want in GOLDEN.items():
        rep = s_invariant(named[name], with_module=False)
        assert (rep.s, rep.s_min, rep.s_max, rep.s_minus, rep.s_plus) == want, name


@pytest.mark.parametrize("name", ["trefoil+", "hopf+", "figure8", "Wh+(trefoil+,2)"])
def test_cycle_check_catches_a_wrong_circle_sign(monkeypatch, name):
    # one Seifert circle with the wrong Lee sign leaves d(chain) != 0 on an
    # edge out of the oriented resolution, and the check must say so
    from khlee.corpus import builtin_diagram
    from khlee.diagrams import OrientedDiagram
    from khlee.errors import NotACycle

    seifert_signs = OrientedDiagram.seifert_signs

    def one_flipped(self, res):
        signs = seifert_signs(self, res)
        return (-signs[0],) + signs[1:]

    monkeypatch.setattr(OrientedDiagram, "seifert_signs", one_flipped)
    with pytest.raises(NotACycle, match="not a cycle at t=1"):
        lee_generator(builtin_diagram(name))


def test_brute_module_report_matches_scan_on_f2_1():
    # the module needs the full 45,456-generator cube, reduced in cube order
    from khlee.corpus import builtin_diagram

    d = builtin_diagram("F_2(1)")
    assert s_invariant(d, engine="brute").to_dict() == s_invariant(d, engine="scan").to_dict()


def test_s_reports_are_pinned():
    # every value s_all_orientations gives on the named corpus, and the full
    # report (module and s_+) on its diagrams of at most 8 crossings, with
    # both engines
    import hashlib

    from khlee.corpus import small_corpus

    records = []
    for _name, d in small_corpus():
        for engine in ("brute", "scan"):
            records.append([r.to_dict() for r in s_all_orientations(d, engine=engine)])
            if d.n_crossings <= 8:
                records.append(s_invariant(d, engine=engine).to_dict())
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == "e6ea38ec5225d187fcb6b3e2f1e870edbaaa9b96f1e75732006dac86eab91fd1"
