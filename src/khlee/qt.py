"""Sparse exact arithmetic in Q[t].

Elements are stored as {exponent: Fraction} with no zero values.  Homogeneity
of the chain complexes keeps every differential entry a single monomial
c*t^k, stored as a (coeff, exponent) pair; this generic representation is
for the Frobenius algebra's tables and the tangle scanner's morphism
coefficients.
"""

from __future__ import annotations

from fractions import Fraction

Qt = dict  # {int exponent: Fraction coefficient}, zero coefficients absent

ZERO: Qt = {}


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

