"""The rank-2 Frobenius algebra over Q[t] driving the deformed complex.

Basis labels: 0 for the unit-like generator "1" (q-degree +1) and 1 for "x"
(q-degree -1).  The deformation variable t has q-degree -4 and satisfies
x*x = t.
"""

from __future__ import annotations


class FrobeniusData:
    """Structure constants; every map is q-homogeneous of degree -1 per
    saddle before the global shift convention."""

    # m(a, b) -> list of (coeff, t-exponent, label)
    mul = {
        (0, 0): ((1, 0, 0),),
        (0, 1): ((1, 0, 1),),
        (1, 0): ((1, 0, 1),),
        (1, 1): ((1, 1, 0),),  # x*x = t*1
    }
    # delta(a) -> list of (coeff, t-exponent, (label, label))
    comul = {
        0: ((1, 0, (0, 1)), (1, 0, (1, 0))),
        1: ((1, 0, (1, 1)), (1, 1, (0, 0))),  # delta(x) = x(x)x + t 1(x)1
    }
    counit = {0: 0, 1: 1}
