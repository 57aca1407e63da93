import pytest

from khlee.complexes import GradedComplex
from khlee.cube import build_cube, specialize_t
from khlee.diagrams import BraidWord, from_braid
from khlee.errors import ResourceLimit


def cube_of(n, letters, orient=(), **kw):
    return build_cube(from_braid(BraidWord(n, letters, orient)), **kw)


def test_unknot_cube():
    c = cube_of(1, ())
    c.complex.check_d_squared()
    assert c.complex.dims_at_t0() == {(0, 1): 1, (0, -1): 1}
    assert c.complex.dims_at_t(1) == {0: 2}


def test_unlink_tensor_square():
    c = cube_of(2, ())
    assert c.complex.dims_at_t0() == {(0, 2): 1, (0, 0): 2, (0, -2): 1}
    assert c.complex.dims_at_t(1) == {0: 4}


def test_hopf_cube():
    c = cube_of(2, (1, 1))
    c.complex.check_d_squared()
    assert c.complex.dims_at_t0() == {(0, 0): 1, (0, 2): 1, (2, 4): 1, (2, 6): 1}
    assert c.complex.dims_at_t(1) == {0: 2, 2: 2}


def test_trefoil_cube():
    c = cube_of(2, (1, 1, 1))
    c.complex.check_d_squared()
    dims = c.complex.dims_at_t0()
    # Khovanov homology of the right-handed trefoil over Q
    assert dims == {(0, 1): 1, (0, 3): 1, (2, 5): 1, (3, 9): 1}
    assert sum(dims.values()) == 4
    assert c.complex.dims_at_t(1) == {0: 2}


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
    assert back.dims_at_t(1) == c.complex.dims_at_t(1)


def test_resource_limit_message():
    with pytest.raises(ResourceLimit,
                       match=r"cube reached \d+ generators after \d+ of 8 resolutions, "
                             r"over the generator limit of 4 \(--limit or KHLEE_LIMIT\)"):
        cube_of(2, (1, 1, 1), limit=4)
