import hashlib
import random

import pytest

from khlee.diagrams import BraidWord, connect_sum, disjoint_union, from_braid
from khlee.errors import KhleeError, NonPlanar, OrientationConflict, ParseError
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


def _pd_fields(d):
    """Every value of a diagram, with the arcs in their dict order."""
    return ([(c.id, c.sign, c.ends) for c in d.crossings],
            [(k, a.id, a.component, a.tail, a.head, sorted(a.slots))
             for k, a in d.arcs.items()],
            d.n_components, d.col_component,
            None if d.slot_direction is None else sorted(d.slot_direction.items()))


def _seeded_pd_codes(count=700, seed=17):
    """PD codes of random braid closures with relabelled arcs, and copies
    with some crossings turned one step (over and under swap, which can
    break the orientation), with one entry pair transposed (which can break
    planarity), or with a label repeated."""
    rng = random.Random(seed)
    while count:
        n = rng.randint(2, 5)
        letters = [rng.choice((1, -1)) * rng.randint(1, n - 1)
                   for _ in range(rng.randint(1, 9))]
        try:
            d = from_braid(BraidWord(n, tuple(letters),
                                     tuple(rng.random() < 0.5 for _ in range(n))))
        except OrientationConflict:
            continue
        if any(a.closed for a in d.arcs.values()):
            continue
        labels = rng.sample(range(1, 3 * len(d.arcs) + 1), len(d.arcs))
        xs = [[labels[a] for a in c.ends] for c in d.crossings]
        kind = rng.random()
        if kind < 0.4:
            for x in xs:
                if rng.random() < 0.3:
                    x[:] = x[1:] + x[:1]
        elif kind < 0.5:
            x = rng.choice(xs)
            x[1], x[3] = x[3], x[1]
        elif kind < 0.55:
            rng.choice(xs)[rng.randrange(4)] = rng.choice(labels)
        rng.shuffle(xs)
        code = "PD[" + ", ".join("X(%d,%d,%d,%d)" % tuple(x) for x in xs) + "]"
        yield code
        count -= 1


def test_parse_pd_and_transforms_are_pinned():
    # every value parse_pd, mirror, reorient, connect_sum and disjoint_union
    # give on seeded codes, and the error class of each malformed one
    records, valid = [], []
    for code in _seeded_pd_codes():
        try:
            d = parse_pd(code)
        except KhleeError as e:
            records.append(type(e).__name__)
            continue
        valid.append(d)
        records.append([_pd_fields(d), _pd_fields(d.mirror())]
                       + [_pd_fields(d.reorient({i})) for i in range(d.n_components)])
    for d1, d2 in zip(valid[:40:2], valid[1:40:2]):
        records.append([_pd_fields(connect_sum(d1, 0, d2, d2.n_components - 1)),
                        _pd_fields(disjoint_union(d1, d2))])
    kinds = {r for r in records if isinstance(r, str)}
    assert kinds == {"OrientationConflict", "NonPlanar", "ParseError"}
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == "8807f53aeab57e0e9766bb2a7f9c8e282fb7bce2bfbab766befbe0f014e259b2"
