from khlee.cube import build_cube
from khlee.diagrams import BraidWord, from_braid
from khlee.smith import homology_qt

from rank_oracle import dims_t0_by_rank, dims_t_by_rank


def module_of(n, letters, orient=()):
    return homology_qt(build_cube(from_braid(BraidWord(n, letters, orient))).complex)


def test_unknot_module():
    hs = module_of(1, ())
    assert hs.free == [(0, -1), (0, 1)]
    assert hs.torsion == []


def test_unlink_module():
    hs = module_of(2, ())
    assert hs.free == [(0, -2), (0, 0), (0, 0), (0, 2)]
    assert hs.torsion == []


def test_trefoil_module():
    hs = module_of(2, (1, 1, 1))
    assert hs.free == [(0, 1), (0, 3)]
    # one Q[t]/(t) summand; the torsion class lives at (3, 9) and its t=0
    # companion generator at (2, 5)
    assert hs.torsion == [(3, 9, 1)]


def test_figure8_module():
    hs = module_of(3, (1, -2, 1, -2))
    assert hs.free == [(0, -1), (0, 1)]
    assert hs.torsion == [(-1, -1, 1), (2, 5, 1)]


def test_free_rank_is_two_to_components():
    for n, letters, orient in [(1, (), ()), (3, (), ()), (2, (1, 1), ()),
                               (2, (1, 1), (True, False)),
                               (3, (1, 2, 1, 2), ()),
                               (3, (-1, 2, ("e", 1)), (True, False, True))]:
        d = from_braid(BraidWord(n, letters, orient))
        hs = homology_qt(build_cube(d).complex)
        assert hs.free_rank() == 2 ** d.n_components


def test_module_consistent_with_specializations():
    for n, letters in [(2, (1, 1, 1)), (3, (1, -2, 1, -2)), (3, (1, 2, -1, -2)),
                       (2, (1, 1, 1, 1))]:
        c = build_cube(from_braid(BraidWord(n, letters))).complex
        hs = homology_qt(c)
        assert hs.dims_t0() == c.dims_at_t0() == dims_t0_by_rank(c)
        assert hs.dims_t1() == c.dims_at_t(1) == dims_t_by_rank(c, 1)
