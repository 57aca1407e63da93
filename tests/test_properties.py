"""Property-based checks over random braid words and random homogeneous
complexes."""

from collections import Counter

import hypothesis.strategies as st
from hypothesis import assume, given, seed, settings

from khlee.complexes import GradedComplex
from khlee.cube import build_cube
from khlee.diagrams import BraidWord, from_braid
from khlee.errors import OrientationConflict
from khlee.lee import lee_generator
from khlee.smith import homology_qt

from rank_oracle import dims_t0_by_rank, dims_t_by_rank
from snf_oracle import module_by_snf


def _closure(word):
    """Turnback letters constrain the flags; skip inconsistent draws."""
    try:
        return from_braid(word)
    except OrientationConflict:
        assume(False)


@st.composite
def braid_words(draw, max_strands=4, max_letters=7, with_turnbacks=False):
    n = draw(st.integers(min_value=1, max_value=max_strands))
    length = draw(st.integers(min_value=0, max_value=max_letters))
    letters = []
    for _ in range(length):
        if n == 1:
            break
        i = draw(st.integers(min_value=1, max_value=n - 1))
        if with_turnbacks and draw(st.booleans()) and draw(st.booleans()):
            letters.append(("e", i))
        else:
            letters.append(i if draw(st.booleans()) else -i)
    return BraidWord(n, tuple(letters))


@settings(max_examples=30, deadline=None)
@given(braid_words())
def test_diagram_invariants(word):
    d = from_braid(word)
    assert d.euler_check()
    # every open arc id appears exactly twice among crossing ends
    counts = {}
    for c in d.crossings:
        for aid in c.ends:
            counts[aid] = counts.get(aid, 0) + 1
    assert all(v == 2 for v in counts.values())
    assert d.writhe == d.n_plus - d.n_minus
    res = d.resolve(d.oriented_choice())
    assert len(res.circles) == d.seifert_count()
    if d.n_components:
        assert len(res.circles) >= 1


@settings(max_examples=20, deadline=None)
@given(braid_words(max_letters=5))
def test_mirror_reverse_properties(word):
    d = from_braid(word)
    m = d.mirror()
    assert (m.n_plus, m.n_minus) == (d.n_minus, d.n_plus)
    assert m.n_components == d.n_components
    r = d.reverse()
    assert (r.n_plus, r.n_minus) == (d.n_plus, d.n_minus)
    lk = d.linking_matrix()
    assert d.reverse().linking_matrix() == lk
    mlk = d.mirror().linking_matrix()
    ell = d.n_components
    for i in range(ell):
        for j in range(ell):
            if i != j:
                assert mlk[i][j] == -lk[i][j]


@settings(max_examples=15, deadline=None)
@given(braid_words(max_strands=3, max_letters=5, with_turnbacks=True))
def test_cube_and_module(word):
    d = _closure(word)
    cube = build_cube(d)
    cube.complex.check_d_squared()
    hs = homology_qt(cube.complex)
    assert hs.free_rank() == 2 ** d.n_components
    assert hs.dims_t0() == cube.complex.dims_at_t0() == dims_t0_by_rank(cube.complex)
    assert hs.dims_t1() == dims_t_by_rank(cube.complex, 1)


@st.composite
def two_term_complexes(draw):
    """Homogeneous complexes C_0 -> C_1: q-degrees in steps of 4, so a source
    and a target of q-gap 4k >= 0 may carry an entry c*t^k."""
    src_q = draw(st.lists(st.integers(0, 3), min_size=1, max_size=5))
    tgt_q = draw(st.lists(st.integers(0, 4), min_size=1, max_size=5))
    cx = GradedComplex()
    srcs = [cx.add_gen(0, 4 * q) for q in src_q]
    tgts = [cx.add_gen(1, 4 * q) for q in tgt_q]
    for i, q0 in enumerate(src_q):
        for j, q1 in enumerate(tgt_q):
            if q1 >= q0:
                c = draw(st.integers(-2, 2))
                if c:
                    cx.add_entry(srcs[i], tgts[j], c, q1 - q0)
    return cx


@seed(20240607)
@settings(max_examples=200, deadline=None)
@given(two_term_complexes())
def test_module_of_two_term_complexes(cx):
    hs = homology_qt(cx)
    assert (hs.free, hs.torsion) == module_by_snf(cx)
    assert hs.dims_t0() == dims_t0_by_rank(cx)
    assert hs.dims_t1() == dims_t_by_rank(cx, 1)
    dims0 = Counter()
    for (h, _q), v in hs.dims_t0().items():
        dims0[h] += v
    assert dims0 == dims_t_by_rank(cx, 0)


@settings(max_examples=15, deadline=None)
@given(braid_words(max_strands=3, max_letters=5))
def test_lee_generator_is_cycle(word):
    d = from_braid(word)
    if d.n_components == 0:
        return
    lee_generator(d)  # NotACycle on any circle-sign bug
