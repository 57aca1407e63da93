import hashlib
import random
from fractions import Fraction as F

import pytest

from khlee.complexes import GradedComplex
from khlee.corpus import builtin_diagram
from khlee.cube import build_cube, specialize_t
from khlee.diagrams import BraidWord, from_braid
from khlee.errors import OrientationConflict, ResourceLimit
from khlee.pdcode import parse_pd
from khlee.smith import homology_qt


def cube_of(n, letters, orient=(), **kw):
    return build_cube(from_braid(BraidWord(n, letters, orient)), **kw)


def test_unknot_cube():
    c = cube_of(1, ())
    c.complex.check_d_squared()
    assert c.complex.dims_at_t0() == {(0, 1): 1, (0, -1): 1}
    assert homology_qt(c.complex).dims_t1() == {0: 2}


def test_unlink_tensor_square():
    c = cube_of(2, ())
    assert c.complex.dims_at_t0() == {(0, 2): 1, (0, 0): 2, (0, -2): 1}
    assert homology_qt(c.complex).dims_t1() == {0: 4}


def test_hopf_cube():
    c = cube_of(2, (1, 1))
    c.complex.check_d_squared()
    assert c.complex.dims_at_t0() == {(0, 0): 1, (0, 2): 1, (2, 4): 1, (2, 6): 1}
    assert homology_qt(c.complex).dims_t1() == {0: 2, 2: 2}


def test_trefoil_cube():
    c = cube_of(2, (1, 1, 1))
    c.complex.check_d_squared()
    dims = c.complex.dims_at_t0()
    # Khovanov homology of the right-handed trefoil over Q
    assert dims == {(0, 1): 1, (0, 3): 1, (2, 5): 1, (3, 9): 1}
    assert sum(dims.values()) == 4
    assert homology_qt(c.complex).dims_t1() == {0: 2}


def test_gradings():
    d = from_braid(BraidWord(3, (1, -2, 1, -2)))
    c = build_cube(d)
    # the oriented resolution sits at h = 0
    orc = d.oriented_choice()
    gid = c.gen(orc, 0)
    assert c.complex.gen_h[gid] == 0
    # generator q-degrees: sum of labels + |r| + n+ - 2n-
    res = d.resolve(orc)
    k = len(res.circles)
    expected_q = k + sum(orc) + d.n_plus - 2 * d.n_minus  # all labels "1"
    assert c.complex.gen_q[gid] == expected_q


def test_homogeneity_enforced():
    c = cube_of(2, (1, 1))
    cx = c.complex
    for src, row in cx.out.items():
        for tgt, (coeff, e) in row.items():
            assert cx.gen_q[tgt] == cx.gen_q[src] + 4 * e
            assert cx.gen_h[tgt] == cx.gen_h[src] + 1


def test_resource_limit():
    with pytest.raises(ResourceLimit):
        cube_of(2, (1, 1, 1), limit=4)


def test_h_window_slice():
    d = from_braid(BraidWord(3, (1, -2, 1, -2)))
    full = build_cube(d)
    sliced = build_cube(d, h_window=(-1, 0))
    hs = set(sliced.complex.gen_h.values())
    assert hs == {-1, 0}
    full_h0 = [g for g, h in full.complex.gen_h.items() if h == 0]
    sliced_h0 = [g for g, h in sliced.complex.gen_h.items() if h == 0]
    assert len(full_h0) == len(sliced_h0)


def test_specialize_t():
    c = cube_of(2, (1, 1, 1))
    f1 = specialize_t(c.complex, 1)
    # entries with positive t powers survive at t=1
    some_t = any(e > 0 for row in c.complex.out.values() for _c, e in row.values())
    assert some_t
    assert any(f1.out[src] for src in f1.gen_h)


def test_export_roundtrip():
    c = cube_of(2, (1, 1))
    text = c.complex.export_text()
    assert text.splitlines()[0].startswith("GEN ")
    back = GradedComplex.from_text(text)
    assert back.dims_at_t0() == c.complex.dims_at_t0()
    assert homology_qt(back).dims_t1() == homology_qt(c.complex).dims_t1()


def test_resource_limit_message():
    with pytest.raises(ResourceLimit,
                       match=r"cube reached \d+ generators after \d+ of 8 resolutions, "
                             r"over the generator limit of 4 \(--limit or KHLEE_LIMIT\)"):
        cube_of(2, (1, 1, 1), limit=4)


def _cube_fields(c):
    """gen_h, gen_q and pos by id, the entries sorted, and gen() on every
    (choice, label mask) key of the cube."""
    cx, d = c.complex, c.diagram
    assert cx.inc == {g: {s: row[g] for s, row in cx.out.items() if g in row} for g in cx.out}
    keys = []
    for r in sorted(set(cx.pos.values())):
        choice = tuple(r >> i & 1 for i in range(d.n_crossings))
        keys += [(choice, m, c.gen(choice, m))
                 for m in range(1 << len(d.resolve(choice).circles))]
    assert len(keys) == cx.n_gens
    return (sorted(cx.gen_h.items()), sorted(cx.gen_q.items()), sorted(cx.pos.items()),
            sorted((s, t, e) for s, row in cx.out.items() for t, e in row.items()), keys)


def _seeded_cube_diagrams(seed=15):
    rng = random.Random(seed)
    for _ in range(30):
        n = rng.randint(2, 4)
        yield from_braid(BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                                            for _ in range(rng.randint(1, 6)))))
    for _ in range(60):
        n = rng.randint(2, 4)
        letters = tuple(("e", i) if rng.random() < 0.3 else rng.choice((i, -i))
                        for i in (rng.randint(1, n - 1) for _ in range(rng.randint(1, 6))))
        try:
            yield from_braid(BraidWord(n, letters, tuple(rng.random() < 0.5 for _ in range(n))))
        except OrientationConflict:
            pass
    for text in ("PD[X(4,2,5,1), X(6,4,1,3), X(2,6,3,5)]",
                 "PD[X(4,2,5,1), X(8,6,1,5), X(6,3,7,4), X(2,7,3,8)]",
                 "PD[X(1,3,2,4), X(3,1,4,2), X(5,7,6,8), X(7,5,8,6)]; orient: comp2=-",
                 "PD[X(3,6,5,2), X(4,8,7,6), X(1,5,10,9), X(9,10,2,1), X(8,4,3,7)]"):
        d = parse_pd(text)
        yield d
        yield d.mirror()


def test_build_cube_values_are_pinned():
    assert _cube_fields(build_cube(builtin_diagram("hopf+"))) == (
        [(0, 0), (1, 0), (2, 0), (3, 0), (4, 1), (5, 1), (6, 1), (7, 1), (8, 2), (9, 2),
         (10, 2), (11, 2)],
        [(0, 4), (1, 2), (2, 2), (3, 0), (4, 4), (5, 2), (6, 4), (7, 2), (8, 6), (9, 4),
         (10, 4), (11, 2)],
        [(0, 0), (1, 0), (2, 0), (3, 0), (4, 1), (5, 1), (6, 2), (7, 2), (8, 3), (9, 3),
         (10, 3), (11, 3)],
        [(0, 4, (F(1), 0)), (0, 6, (F(1), 0)), (1, 5, (F(1), 0)), (1, 7, (F(1), 0)),
         (2, 5, (F(1), 0)), (2, 7, (F(1), 0)), (3, 4, (F(1), 1)), (3, 6, (F(1), 1)),
         (4, 9, (F(-1), 0)), (4, 10, (F(-1), 0)), (5, 8, (F(-1), 1)), (5, 11, (F(-1), 0)),
         (6, 9, (F(1), 0)), (6, 10, (F(1), 0)), (7, 8, (F(1), 1)), (7, 11, (F(1), 0))],
        [((0, 0), 0, 0), ((0, 0), 1, 1), ((0, 0), 2, 2), ((0, 0), 3, 3), ((1, 0), 0, 4),
         ((1, 0), 1, 5), ((0, 1), 0, 6), ((0, 1), 1, 7), ((1, 1), 0, 8), ((1, 1), 1, 9),
         ((1, 1), 2, 10), ((1, 1), 3, 11)])
    # a turnback braid, both crossings negative: the resolutions of h -1 and 0
    d = from_braid(BraidWord(3, (2, ("e", 1), 2), (True, True, False)))
    assert _cube_fields(build_cube(d, h_window=(-1, 0))) == (
        [(0, -1), (1, -1), (2, -1), (3, -1), (4, 0), (5, 0), (6, 0), (7, 0)],
        [(0, -2), (1, -4), (2, -2), (3, -4), (4, 0), (5, -2), (6, -2), (7, -4)],
        [(0, 1), (1, 1), (2, 2), (3, 2), (4, 3), (5, 3), (6, 3), (7, 3)],
        [(0, 5, (F(-1), 0)), (0, 6, (F(-1), 0)), (1, 4, (F(-1), 1)), (1, 7, (F(-1), 0)),
         (2, 5, (F(1), 0)), (2, 6, (F(1), 0)), (3, 4, (F(1), 1)), (3, 7, (F(1), 0))],
        [((1, 0), 0, 0), ((1, 0), 1, 1), ((0, 1), 0, 2), ((0, 1), 1, 3), ((1, 1), 0, 4),
         ((1, 1), 1, 5), ((1, 1), 2, 6), ((1, 1), 3, 7)])
    # seeded braids, turnback words and PD codes, full and windowed: every
    # value, pinned by a digest
    lines = [repr(_cube_fields(build_cube(d, h_window=w)))
             for d in _seeded_cube_diagrams() for w in (None, (-1, 0), (0, 0), (-2, 1))]
    assert len(lines) == 268
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "2b3030e14af8469b6b13504f2d5203bc6c8feee5357c7b26e9ae8d4de4c89366"
