"""Exact numbers, and sparse linear algebra over Q for the Lee level solve.

Every number is an ``int`` where integral, else a ``Fraction``: ``_quotient``
is the one division and ``_exact`` the one normalization.
"""

from __future__ import annotations

from fractions import Fraction


def _exact(c):
    """c as an int when it is integral; otherwise the Fraction itself."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _quotient(a, b):
    """a / b exactly, never as a float."""
    if type(a) is int and type(b) is int:
        quot, rem = divmod(a, b)
        return Fraction(a, b) if rem else quot
    return _exact(a / b)


class ColumnSpace:
    """Incremental echelon basis of a span of columns {row index: number},
    reducing query vectors from the lowest row index upward."""

    def __init__(self, cols=()):
        self.lead = {}
        for col in cols:
            self.insert(col)

    def insert(self, col) -> bool:
        """Add a column; returns True if it enlarged the span."""
        col = self.reduce(col)
        if col:
            self.lead[min(col)] = col
        return bool(col)

    def reduce(self, vec) -> dict:
        """Greedy bottom-up reduction of vec modulo the span.

        The result's smallest support index cannot be decreased by further
        span elements; all indices below it are exactly zero.
        """
        vec = {i: c for i, c in vec.items() if c}
        while vec:
            i = min(vec)
            piv = self.lead.get(i)
            if piv is None:
                return vec
            f = _quotient(vec[i], piv[i])
            for r, v in piv.items():
                nv = vec.get(r, 0) - f * v
                if nv:
                    vec[r] = _exact(nv)
                else:
                    vec.pop(r, None)
        return vec


def rank_of_columns(cols) -> int:
    """Rank of the column collection, by leading-index echelonization."""
    return len(ColumnSpace(cols).lead)
