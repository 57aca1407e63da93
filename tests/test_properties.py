"""Property-based checks over random braid words."""

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from khlee.cube import build_cube
from khlee.diagrams import BraidWord, from_braid
from khlee.errors import OrientationConflict
from khlee.lee import lee_generator
from khlee.smith import homology_qt

from rank_oracle import dims_t0_by_rank, dims_t_by_rank


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
    assert hs.dims_t1() == cube.complex.dims_at_t(1) == dims_t_by_rank(cube.complex, 1)


@settings(max_examples=15, deadline=None)
@given(braid_words(max_strands=3, max_letters=5))
def test_lee_generator_is_cycle(word):
    d = from_braid(word)
    if d.n_components == 0:
        return
    lee_generator(d)  # NotACycle on any circle-sign bug
