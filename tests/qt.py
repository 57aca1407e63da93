"""Sparse exact arithmetic in Q[t], for the test oracles.

Elements are stored as {exponent: Fraction} with no zero values.  The
package needs none of it: homogeneity keeps every differential entry a
single monomial c*t^k, and fixes the power of t of each term of a scanner
morphism.  The symbolic Frobenius axioms and the partition-basis cobordism
oracle compute with whole polynomials.
"""

from __future__ import annotations

from fractions import Fraction

Qt = dict  # {int exponent: Fraction coefficient}, zero coefficients absent


def mono(coeff, exp: int = 0) -> Qt:
    c = Fraction(coeff)
    return {exp: c} if c else {}


ONE = mono(1)


def add(a: Qt, b: Qt) -> Qt:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def mul(a: Qt, b: Qt) -> Qt:
    out: Qt = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def scale(a: Qt, coeff) -> Qt:
    c = Fraction(coeff)
    if not c:
        return {}
    return {e: v * c for e, v in a.items()}


def shift(a: Qt, exp: int) -> Qt:
    """Multiply by t^exp."""
    return {e + exp: v for e, v in a.items()}

