"""The Frobenius algebra's structure constants, and its axioms checked
symbolically over Q[t]."""

import qt
from khlee.frobenius import FrobeniusData


def _vec(label):
    return {(label,): qt.ONE}


def _tensor(u, v):
    out = {}
    for ku, cu in u.items():
        for kv, cv in v.items():
            k = ku + kv
            out[k] = qt.add(out.get(k, {}), qt.mul(cu, cv))
    return {k: c for k, c in out.items() if c}


def _apply_mul(vec):
    """A (x) A -> A on {(a, b): coeff} vectors."""
    out = {}
    for (a, b), c in vec.items():
        for coeff, te, lab in FrobeniusData.mul[(a, b)]:
            add = qt.mul(c, qt.mono(coeff, te))
            out[(lab,)] = qt.add(out.get((lab,), {}), add)
    return {k: c for k, c in out.items() if c}


def _apply_comul(vec):
    out = {}
    for (a,), c in vec.items():
        for coeff, te, (l1, l2) in FrobeniusData.comul[a]:
            add = qt.mul(c, qt.mono(coeff, te))
            out[(l1, l2)] = qt.add(out.get((l1, l2), {}), add)
    return {k: c for k, c in out.items() if c}


def _apply_on_factor(vec, func, pos, width):
    """Apply a map to the tensor factor starting at index pos."""
    out = {}
    for k, c in vec.items():
        head, mid, tail = k[:pos], k[pos:pos + width], k[pos + width:]
        res = func({tuple(mid): qt.ONE})
        for k2, c2 in res.items():
            kk = head + k2 + tail
            out[kk] = qt.add(out.get(kk, {}), qt.mul(c, c2))
    return {k: c for k, c in out.items() if c}


def check_axioms() -> None:
    """Raise AssertionError unless the Frobenius axioms hold symbolically."""
    basis = (0, 1)
    # associativity m(m x id) = m(id x m)
    for a in basis:
        for b in basis:
            for c in basis:
                v = _tensor(_tensor(_vec(a), _vec(b)), _vec(c))
                left = _apply_mul(_apply_on_factor(v, _apply_mul, 0, 2))
                right = _apply_mul(_apply_on_factor(v, _apply_mul, 1, 2))
                assert left == right, (a, b, c)
    # unit
    for a in basis:
        v = _tensor({(0,): qt.ONE}, _vec(a))
        assert _apply_mul(v) == _vec(a)
    # counit: (eps x id) delta = id
    for a in basis:
        d = _apply_comul(_vec(a))
        out = {}
        for (l1, l2), c in d.items():
            eps = FrobeniusData.counit[l1]
            if eps:
                out[(l2,)] = qt.add(out.get((l2,), {}), c)
        assert out == _vec(a), a
    # coassociativity
    for a in basis:
        d = _apply_comul(_vec(a))
        left = _apply_on_factor(d, _apply_comul, 0, 1)
        right = _apply_on_factor(d, _apply_comul, 1, 1)
        assert left == right, a
    # Frobenius compatibility: (m x id)(id x delta) = delta m = (id x m)(delta x id)
    for a in basis:
        for b in basis:
            v = _tensor(_vec(a), _vec(b))
            middle = _apply_comul(_apply_mul(v))
            left = _apply_on_factor(_apply_on_factor(v, _apply_comul, 1, 1), _apply_mul, 0, 2)
            right = _apply_on_factor(_apply_on_factor(v, _apply_comul, 0, 1), _apply_mul, 1, 2)
            assert left == middle == right, (a, b)


def test_axioms_hold_symbolically():
    check_axioms()


def test_structure_constants():
    assert FrobeniusData.mul[(1, 1)] == ((1, 1, 0),)  # x*x = t*1
    assert FrobeniusData.comul[0] == ((1, 0, (0, 1)), (1, 0, (1, 0)))
    assert FrobeniusData.comul[1] == ((1, 0, (1, 1)), (1, 1, (0, 0)))
    assert FrobeniusData.counit == {0: 0, 1: 1}
