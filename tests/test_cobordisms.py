"""The scanner's disc-basis morphism algebra against the partition-basis
oracle: every crossingless matching on 2 and 3 strands, with 0 or 1
circles, and every dot mask of each factor.

The oracle computes over Q[t]; the scanner keeps one number per dot mask.
Each oracle result is checked to have exactly one power of t per mask, the
one the degrees fix, before the two are compared."""

import itertools
import random

import pytest

import cobordism_oracle as oracle
from khlee.tlscan import (_PLAIN, _cap_circles, _closed_entries, _vertical_match, close_morphism,
                          close_object, compose, identity_morphism, stack, stacked_objects,
                          vcomp)

ONE = {0: 1}  # the oracle's Q[t] unit


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


def _degree(mask, ids, n):
    """The q-degree of the disc pattern ``mask`` over the curves ``ids`` of a
    morphism between (n, n)-tangles: #curves - n - 2 #dots."""
    return len(ids) - n - 2 * mask.bit_count()


def _one_power(morphism, degree_of, degree):
    """The oracle's {mask: Qt} as the scanner's {mask: number}, checking that
    each mask has exactly one power t^e, the one that makes the term's
    degree ``degree``: t has degree -4, so 4e = degree_of(mask) - degree."""
    out = {}
    for mask, poly in morphism.items():
        assert len(poly) == 1, (mask, poly)
        (e, c), = poly.items()
        assert 4 * e == degree_of(mask) - degree, (mask, poly, degree)
        out[mask] = c
    return out


def _mask_pairs(f_masks, g_masks, rng):
    """Every pair of dot masks of the two factors up to 64 pairs; past that,
    every mask of each factor against a seeded random mask of the other."""
    if len(f_masks) * len(g_masks) <= 64:
        return list(itertools.product(f_masks, g_masks))
    return ([(fm, rng.choice(g_masks)) for fm in f_masks]
            + [(rng.choice(f_masks), gm) for gm in g_masks])


def test_matchings_are_catalan():
    assert [len(_matchings(n)) for n in (1, 2, 3, 4)] == [1, 2, 5, 14]


def test_scanner_walks_match_the_oracle():
    # the closure circles and the stacked matchings, on every pair of
    # crossingless matchings on 1 to 4 strands: least points, the circle of
    # each point and the composite matching
    for n in (1, 2, 3, 4):
        for mO, mP in itertools.product(_matchings(n), repeat=2):
            for m in (mO, vcomp(mO, mP)[0]):
                circles = oracle.closure_circles((m, 0), n)
                least, cyc = close_object((m, 0))
                assert least == [min(c) for c in circles], m
                assert cyc == [i for p in range(2 * n)
                               for i, circle in enumerate(circles) if p in circle], m
            assert vcomp(mO, mP) == oracle.stack_matchings(mO, mP), (mO, mP)


@pytest.mark.parametrize("n", [2, 3])
def test_compose_matches_the_oracle(n):
    rng = random.Random(3)
    for A, B, C in itertools.product(_objects(n), repeat=3):
        ids = oracle.curve_ids(A, C)
        for fm, gm in _mask_pairs(_masks(A, B), _masks(B, C), rng):
            expect = oracle.neck_cut(oracle.compose(_disc_term(fm, A, B), A, B,
                                                    _disc_term(gm, B, C), C), ids)
            degree = (_degree(fm, oracle.curve_ids(A, B), n)
                      + _degree(gm, oracle.curve_ids(B, C), n))
            expect = _one_power(expect, lambda m: _degree(m, ids, n), degree)
            assert compose({fm: 1}, A, B, {gm: 1}, C) == expect, (A, B, C, fm, gm)


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
                    degree = (_degree(fm, oracle.curve_ids(A, B), n)
                              + _degree(gm, oracle.curve_ids(C, D), n))
                    expect = _one_power(expect, lambda m: _degree(m, ids, n), degree)
                    assert stack({fm: 1}, A, B, {gm: 1}, C, D) == expect, \
                        (A, B, C, D, fm, gm)
    # the scanner skips stacking under the vertical tangle's identity: A.V
    # is A, and every disc term comes back unchanged
    V = (_vertical_match(n), 0)
    for A, B in pairs:
        assert stacked_objects(A, V)[0] == A
        for fm in _masks(A, B):
            assert stack({fm: 1}, A, B, _PLAIN, V, V) == {fm: 1}, (A, B, fm)


@pytest.mark.parametrize("n", [2, 3])
def test_closure_matches_the_oracle(n):
    # the closed disc patterns, and the matrix they give through the cap and
    # cup rule against the Frobenius algebra evaluation; an entry from source
    # labels ms to target labels mt has degree q(mt) - q(ms), with q(m) the
    # number of circles less twice the x labels
    for A, B in itertools.product(_objects(n), repeat=2):
        ka = A[1] + len(oracle.closure_circles(A, n))
        kb = B[1] + len(oracle.closure_circles(B, n))
        ids = [("s", i) for i in range(ka)] + [("t", j) for j in range(kb)]
        for fm in _masks(A, B):
            degree = _degree(fm, oracle.curve_ids(A, B), n)
            closed = oracle.close_morphism(_disc_term(fm, A, B), A, B, n)
            got = close_morphism({fm: 1}, A, B)
            expect = _one_power(oracle.neck_cut(closed, ids), lambda m: _degree(m, ids, 0), degree)
            assert got == expect, (A, B, fm)
            matrix = {}
            for ms, mt, c in _closed_entries(got, ka):
                assert (ms, mt) not in matrix
                matrix[(ms, mt)] = c
            for ms in range(1 << ka):
                image = oracle.apply_closed(closed, [ms >> j & 1 for j in range(ka)])
                q_ms = ka - 2 * ms.bit_count()
                image = _one_power(image, lambda mt: kb - 2 * mt.bit_count() - q_ms, degree)
                assert image == {mt: c for (s, mt), c in matrix.items() if s == ms}, (A, B, fm, ms)


def test_identities_and_delooping():
    # identity_morphism is a unit on both sides, circles included, and
    # delooping (``_cap_circles``) is composing with a cap or a cup pattern
    objects = _objects(2) + [(m, 2) for m in _matchings(2)]
    for obj, other in itertools.product(objects, repeat=2):
        for fm in _masks(other, obj):
            f = {fm: 1}
            assert compose(identity_morphism(other), other, other, f, obj) == f
            assert compose(f, other, obj, identity_morphism(obj), obj) == f
        k = obj[1]
        outer, full = (obj[0], 0), (1 << k) - 1
        for up in range(1 << k):  # dotted caps, or undotted cups
            for fm in _masks(other, obj):
                assert (_cap_circles({fm: 1}, other[1], k, full ^ up)
                        == compose({fm: 1}, other, obj, {up: 1}, outer))
            for gm in _masks(obj, other):
                assert (_cap_circles({gm: 1}, 0, k, up)
                        == compose({full ^ up: 1}, outer, obj, {gm: 1}, other))

