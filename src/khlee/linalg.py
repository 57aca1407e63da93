"""Sparse exact linear algebra over Q for the Lee filtration-level solve
(columns as {row index: Fraction})."""

from __future__ import annotations

from fractions import Fraction


class ColumnSpace:
    """Incremental echelon basis of a column span, supporting reduction of
    query vectors from the lowest row index upward."""

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
        vec = dict(vec)
        while vec:
            i = min(vec)
            piv = self.lead.get(i)
            if piv is None:
                return vec
            f = vec[i] / piv[i]
            for r, v in piv.items():
                nv = vec.get(r, Fraction(0)) - f * v
                if nv:
                    vec[r] = nv
                else:
                    vec.pop(r, None)
        return vec


def rank_of_columns(cols) -> int:
    """Rank of the column collection, by leading-index echelonization."""
    return len(ColumnSpace(cols).lead)
