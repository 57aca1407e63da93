"""The scanner's disc-basis morphism algebra against the partition-basis
oracle: every crossingless matching on 2 and 3 strands, with 0 or 1
circles, and every dot mask of each factor."""

import itertools
import random

import pytest

import cobordism_oracle as oracle
from khlee.tlscan import (_PLAIN, _cap_circles, _closed_entries, _vertical_match, close_morphism,
                          close_object, compose, identity_morphism, stack, stacked_objects)

ONE = {0: 1}


def _matchings(n):
    """Crossingless matchings of the 2n points: bottom 0..n-1 and top
    n..2n-1, both left to right, so the boundary runs 0..n-1, 2n-1..n."""
    ring = list(range(n)) + list(range(2 * n - 1, n - 1, -1))

    def pairings(points):
        if not points:
            yield []
            return
        for k in range(1, len(points), 2):
            for inner in pairings(points[1:k]):
                for outer in pairings(points[k + 1:]):
                    yield [(points[0], points[k])] + inner + outer

    out = []
    for pairs in pairings(ring):
        match = [0] * (2 * n)
        for p, q in pairs:
            match[p], match[q] = q, p
        out.append(tuple(match))
    return out


def _objects(n):
    return [(m, nc) for m in _matchings(n) for nc in (0, 1)]


def _masks(A, B):
    return range(1 << len(oracle.curve_ids(A, B)))


def _disc_term(mask, A, B):
    return oracle.from_discs({mask: ONE}, oracle.curve_ids(A, B))


def _mask_pairs(f_masks, g_masks, rng):
    """Every pair of dot masks of the two factors up to 64 pairs; past that,
    every mask of each factor against a seeded random mask of the other."""
    if len(f_masks) * len(g_masks) <= 64:
        return list(itertools.product(f_masks, g_masks))
    return ([(fm, rng.choice(g_masks)) for fm in f_masks]
            + [(rng.choice(f_masks), gm) for gm in g_masks])


def test_matchings_are_catalan():
    assert [len(_matchings(n)) for n in (1, 2, 3, 4)] == [1, 2, 5, 14]


@pytest.mark.parametrize("n", [2, 3])
def test_compose_matches_the_oracle(n):
    rng = random.Random(3)
    for A, B, C in itertools.product(_objects(n), repeat=3):
        ids = oracle.curve_ids(A, C)
        for fm, gm in _mask_pairs(_masks(A, B), _masks(B, C), rng):
            expect = oracle.neck_cut(oracle.compose(_disc_term(fm, A, B), A, B,
                                                    _disc_term(gm, B, C), C), ids)
            assert compose({fm: ONE}, A, B, {gm: ONE}, C) == expect, (A, B, C, fm, gm)


@pytest.mark.parametrize("n", [2, 3])
def test_stack_matches_the_oracle(n):
    # every pair of objects, below and above; on 3 strands against a seeded
    # sample of the other factor's pairs
    pairs = list(itertools.product(_objects(n), repeat=2))
    rng = random.Random(5)
    for low in pairs:
        for up in pairs if n == 2 else rng.sample(pairs, 4):
            for (A, B), (C, D) in ((low, up), (up, low)):
                E1, _ = oracle.stacked_objects(A, C)
                E2, _ = oracle.stacked_objects(B, D)
                ids = oracle.curve_ids(E1, E2)
                for fm, gm in _mask_pairs(_masks(A, B), _masks(C, D), rng):
                    expect = oracle.neck_cut(oracle.stack(_disc_term(fm, A, B), A, B,
                                                          _disc_term(gm, C, D), C, D, n), ids)
                    assert stack({fm: ONE}, A, B, {gm: ONE}, C, D) == expect, \
                        (A, B, C, D, fm, gm)
    # the scanner skips stacking under the vertical tangle's identity: A.V
    # is A, and every disc term comes back unchanged
    V = (_vertical_match(n), 0)
    for A, B in pairs:
        assert stacked_objects(A, V)[0] == A
        for fm in _masks(A, B):
            assert stack({fm: ONE}, A, B, _PLAIN, V, V) == {fm: ONE}, (A, B, fm)


@pytest.mark.parametrize("n", [2, 3])
def test_closure_matches_the_oracle(n):
    # the closed disc patterns, and the matrix they give through the cap and
    # cup rule against the Frobenius algebra evaluation
    for A, B in itertools.product(_objects(n), repeat=2):
        ka = A[1] + len(close_object(A, n))
        kb = B[1] + len(close_object(B, n))
        ids = [("s", i) for i in range(ka)] + [("t", j) for j in range(kb)]
        for fm in _masks(A, B):
            closed = oracle.close_morphism(_disc_term(fm, A, B), A, B, n)
            got = close_morphism({fm: ONE}, A, B)
            assert got == oracle.neck_cut(closed, ids), (A, B, fm)
            matrix = {}
            for ms, mt, poly in _closed_entries(got, ka):
                assert (ms, mt) not in matrix
                matrix[(ms, mt)] = poly
            for ms in range(1 << ka):
                image = oracle.apply_closed(closed, [ms >> j & 1 for j in range(ka)])
                assert image == {mt: p for (s, mt), p in matrix.items() if s == ms}, (A, B, fm, ms)


def test_identities_and_delooping():
    # identity_morphism is a unit on both sides, circles included, and
    # delooping (``_cap_circles``) is composing with a cap or a cup pattern
    objects = _objects(2) + [(m, 2) for m in _matchings(2)]
    for obj, other in itertools.product(objects, repeat=2):
        for fm in _masks(other, obj):
            f = {fm: ONE}
            assert compose(identity_morphism(other), other, other, f, obj) == f
            assert compose(f, other, obj, identity_morphism(obj), obj) == f
        k = obj[1]
        outer, full = (obj[0], 0), (1 << k) - 1
        for up in range(1 << k):  # dotted caps, or undotted cups
            for fm in _masks(other, obj):
                assert (_cap_circles({fm: ONE}, other[1], k, full ^ up)
                        == compose({fm: ONE}, other, obj, {up: ONE}, outer))
            for gm in _masks(obj, other):
                assert (_cap_circles({gm: ONE}, 0, k, up)
                        == compose({full ^ up: ONE}, outer, obj, {gm: ONE}, other))

