import hashlib
import random
from dataclasses import FrozenInstanceError, replace

import pytest

import khlee.diagrams as dg
from khlee.diagrams import BraidWord, from_braid
from khlee.errors import OrientationConflict, ParseError


def closure(n, letters, orient=()):
    return from_braid(BraidWord(n, letters, orient))


def test_braid_word_validation():
    with pytest.raises(ParseError):
        BraidWord(2, (2,))
    with pytest.raises(ParseError):
        BraidWord(2, (0,))
    with pytest.raises(ParseError):
        BraidWord(3, (1,), (True,))
    assert BraidWord(3, ("e2", 1)).letters == (("e", 2), 1)


def test_identity_closures():
    u2 = closure(2, ())
    assert u2.n_crossings == 0
    assert u2.n_components == 2
    assert u2.seifert_count() == 2


def test_trefoil_counts():
    t = closure(2, (1, 1, 1))
    assert (t.n_plus, t.n_minus, t.n_components) == (3, 0, 1)
    assert t.oriented_choice() == (0, 0, 0)
    assert t.seifert_count() == 2
    assert t.euler_check()
    assert t.linking_matrix() == [[3]]


def test_figure8_counts():
    f8 = closure(3, (1, -2, 1, -2))
    assert (f8.n_plus, f8.n_minus) == (2, 2)
    assert f8.writhe == 0
    assert f8.seifert_count() == 3
    # 0 at positive crossings, 1 at negative
    choice = f8.oriented_choice()
    assert sorted(choice) == [0, 0, 1, 1]


def test_mixed_orientation_signs():
    # parallel strands: positive letter gives a positive crossing
    hopf = closure(2, (1, 1))
    assert [c.sign for c in hopf.crossings] == [1, 1]
    assert hopf.linking_matrix()[0][1] == 1
    # antiparallel strands flip the sign
    f11 = closure(2, (1, 1), (True, False))
    assert [c.sign for c in f11.crossings] == [-1, -1]
    assert f11.linking_matrix()[0][1] == -1


def test_orientation_conflict():
    # odd power of sigma_1 joins the strands into one component, so the
    # mixed pattern cannot be realized
    with pytest.raises(OrientationConflict):
        closure(2, (1,), (True, False))


def test_constructor_checks_the_pd_convention():
    hopf = closure(2, (1, 1))
    dg.OrientedDiagram(hopf.arcs)  # the braid closure's arcs pass
    # one arc turned round: its crossings' under strands no longer enter at
    # position 0 and leave at 2
    turned = dict(hopf.arcs)
    turned[0] = replace(turned[0], tail=turned[0].head, head=turned[0].tail)
    with pytest.raises(OrientationConflict):
        dg.OrientedDiagram(turned)
    # both over ends of a crossing incoming
    a = dg.Arc
    bad = {0: a(0, 0, (0, 2), (0, 0)), 1: a(1, 1, (0, 3), (0, 1)), 2: a(2, 1, (1, 0), (0, 3)),
           3: a(3, 1, (1, 2), (1, 0)), 4: a(4, 1, (1, 3), (1, 1))}
    with pytest.raises(OrientationConflict):
        dg.OrientedDiagram(bad)


def test_arcs_are_frozen():
    d = closure(2, (1, 1, 1))
    with pytest.raises(FrozenInstanceError):
        d.arcs[0].head = None
    # the mirror keeps its crossingless circles' arcs, the same objects
    u = closure(2, ())
    assert all(u.mirror().arcs[k] is a for k, a in u.arcs.items())


def test_mirror_and_reverse():
    t = closure(2, (1, 1, 1))
    m = t.mirror()
    assert (m.n_plus, m.n_minus) == (0, 3)
    mm = m.mirror()
    assert [c.sign for c in mm.crossings] == [c.sign for c in t.crossings]
    r = t.reverse()
    assert (r.n_plus, r.n_minus) == (3, 0)
    assert r.reverse().oriented_choice() == t.oriented_choice()
    # linking matrix behavior
    hopf = closure(2, (1, 1))
    assert hopf.reverse().linking_matrix() == hopf.linking_matrix()
    assert hopf.mirror().linking_matrix()[0][1] == -hopf.linking_matrix()[0][1]


def test_resolutions_of_hopf():
    hopf = closure(2, (1, 1))
    r00 = hopf.resolve((0, 0))
    assert len(r00.circles) == 2
    # the two Seifert circles meet at both crossings
    assert sorted(hopf.seifert_signs(r00)) == [-1, 1]
    r11 = hopf.resolve((1, 1))
    assert len(r11.circles) == 2
    r01 = hopf.resolve((0, 1))
    assert len(r01.circles) == 1


def test_seifert_equals_oriented_circles():
    for n, letters, orient in [(2, (1, 1, 1), ()), (3, (1, -2, 1, -2), ()),
                               (2, (1, 1), (True, False)),
                               (3, (-1, 2, ("e", 1)), (True, False, True))]:
        d = closure(n, letters, orient)
        res = d.resolve(d.oriented_choice())
        assert len(res.circles) == d.seifert_count()


def test_turnback_letters():
    wh = closure(3, (-1, 2, ("e", 1)), (True, False, True))
    assert wh.n_components == 1
    assert (wh.n_plus, wh.n_minus) == (2, 0)
    assert wh.seifert_count() == 3
    assert wh.euler_check()


def test_disjoint_union():
    t = closure(2, (1, 1, 1))
    u = closure(1, ())
    du = dg.disjoint_union(t, u)
    assert du.n_components == 2
    assert du.n_plus == 3
    assert du.braid is not None  # block sum stays scannable
    assert du.braid.strands == 3


def test_connect_sum_counts():
    t = closure(2, (1, 1, 1))
    granny = dg.connect_sum(t, 0, t, 0)
    assert granny.n_components == 1
    assert granny.n_plus == 6
    assert granny.euler_check()
    assert granny.seifert_count() == 3
    hopf = closure(2, (1, 1))
    hh = dg.connect_sum(hopf, 0, hopf, 1)
    assert hh.n_components == 3  # ell(A # B) = ell(A) + ell(B) - 1
    with pytest.raises(dg.BadComponent):
        dg.connect_sum(t, 1, t, 0)


def test_arc_incidence_invariant():
    for d in [closure(2, (1, 1, 1)), closure(3, (1, -2, 1, -2)),
              closure(3, (-1, 2, ("e", 1)), (True, False, True))]:
        seen = {}
        for c in d.crossings:
            for pos, aid in enumerate(c.ends):
                seen[aid] = seen.get(aid, 0) + 1
        for a in d.arcs.values():
            if a.closed:
                assert a.id not in seen
            else:
                assert seen[a.id] == 2


def _assert_checkerboard_signs(d):
    colour = d.face_colours()
    for a in d.arcs.values():
        if not a.closed:
            assert colour[(a.id, True)] != colour[(a.id, False)]
    res = d.resolve(d.oriented_choice())
    signs = d.seifert_signs(res)
    circle_of = {a: j for j, c in enumerate(res.circles) for a in c.arcs}
    for c in d.crossings:
        # the incoming under and over strands lie on the two circles there
        under = circle_of[c.ends[0]]
        over = circle_of[c.ends[3 if c.sign > 0 else 1]]
        assert under != over
        assert signs[under] == -signs[over]
    for j, circ in enumerate(res.circles):
        if d.arcs[min(circ.arcs)].closed:
            assert signs[j] == 1


def test_seifert_signs_checkerboard():
    from khlee.corpus import small_corpus
    from khlee.pdcode import parse_pd

    diagrams = [d for _, d in small_corpus()]  # U2, U3, kinks, Wh+D0, ...
    diagrams += [parse_pd(code) for code in (
        "PD[X(4,2,5,1), X(8,6,1,5), X(6,3,7,4), X(2,7,3,8)]",
        "PD[X(1,2,2,1)]", "PD[X(2,1,1,2)]", "PD[X(1,1,2,2)]",
        "PD[X(1,3,2,4), X(3,1,4,2), X(5,7,6,8), X(7,5,8,6)]",
        "PD[X(1,3,2,4), X(3,1,4,2)]; orient: comp2=-")]
    t, hopf = closure(2, (1, 1, 1)), closure(2, (1, 1))
    diagrams += [dg.connect_sum(t, 0, t, 0), dg.connect_sum(hopf, 0, hopf, 1),
                 dg.connect_sum(closure(2, ()), 1, t.mirror(), 0),
                 dg.disjoint_union(dg.connect_sum(t, 0, t, 0), hopf)]
    for d in list(diagrams):
        diagrams += [d.mirror()] + ([d.reorient({0})] if d.n_components else [])
    for d in diagrams:
        _assert_checkerboard_signs(d)


def _fields(d):
    """Every value from_braid sets, with the arcs in their dict order."""
    return ([(c.id, c.sign, c.ends) for c in d.crossings],
            [(k, a.id, a.component, a.tail, a.head, sorted(a.slots))
             for k, a in d.arcs.items()],
            d.n_components, d.col_component, sorted(d.slot_direction.items()))


def _seeded_words(count=300, seed=14):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        letters = []
        for _ in range(rng.randint(0, 14) if n > 1 else 0):
            i = rng.randint(1, n - 1)
            letters.append(("e", i) if rng.random() < 0.2 else rng.choice((i, -i)))
        yield BraidWord(n, tuple(letters), tuple(rng.random() < 0.5 for _ in range(n)))


def test_from_braid_values_are_pinned():
    # a crossingless turnback circle (component 1, points (1, 1) and (1, 2),
    # leaving its cup upward on the right) beside a turnback closure
    d = closure(3, (("e", 1), ("e", 1), 2), (True, False, False))
    assert _fields(d) == (
        [(0, 1, (0, 0, 1, 1))],
        [(0, 0, 0, (0, 1), (0, 0), [(0, 1), (0, 2), (2, 1), (2, 2), (3, 1), (3, 2)]),
         (1, 1, 0, (0, 2), (0, 3), [(0, 3), (1, 3), (2, 3), (3, 3)]),
         (2, 2, 1, None, None, [(1, 1), (1, 2)])],
        2, (0, 0, 0),
        [((0, 1), True), ((0, 2), False), ((0, 3), False), ((1, 1), False),
         ((1, 2), True), ((1, 3), False), ((2, 1), True), ((2, 2), False),
         ((2, 3), False), ((3, 1), True), ((3, 2), False), ((3, 3), False)])
    # mixed closure flags: three components, antiparallel at every crossing
    d = closure(3, (1, 1, -2, -2), (True, False, True))
    assert _fields(d) == (
        [(0, -1, (2, 3, 0, 1)), (1, -1, (1, 4, 3, 2)), (2, 1, (6, 5, 4, 7)),
         (3, 1, (5, 6, 7, 0))],
        [(0, 0, 1, (0, 2), (3, 3), [(0, 2), (4, 2)]), (1, 1, 0, (0, 3), (1, 0), [(1, 2)]),
         (2, 2, 1, (1, 3), (0, 0), [(1, 1)]),
         (3, 3, 0, (1, 2), (0, 1), [(0, 1), (2, 1), (3, 1), (4, 1)]),
         (4, 4, 1, (2, 2), (1, 1), [(2, 2)]), (5, 5, 2, (2, 1), (3, 0), [(3, 2)]),
         (6, 6, 1, (3, 1), (2, 0), [(3, 3)]),
         (7, 7, 2, (3, 2), (2, 3), [(0, 3), (1, 3), (2, 3), (4, 3)])],
        3, (0, 1, 2),
        [((0, 1), True), ((0, 2), False), ((0, 3), True), ((1, 1), False),
         ((1, 2), True), ((1, 3), True), ((2, 1), True), ((2, 2), False),
         ((2, 3), True), ((3, 1), True), ((3, 2), True), ((3, 3), False),
         ((4, 1), True), ((4, 2), False), ((4, 3), True)])
    # 300 seeded words with turnbacks and random flags, 140 of them rejected:
    # every value and error message, pinned by a digest
    lines, rejected = [], 0
    for w in _seeded_words():
        try:
            lines.append(repr(_fields(from_braid(w))))
        except OrientationConflict as e:
            lines.append(f"{type(e).__name__}: {e}")
            rejected += 1
    assert rejected == 140
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "f73bd980e91cc68bfae858e8cef776426ebed4406b7a1641b5b5ed84501e33ed"
