"""A fixed pure-Python loop that measures how fast the machine runs right now.

On a shared VM the speed of the whole machine drifts by 10-30% over minutes,
for every workload alike, so two runs of the same code minutes apart can
differ by more than a change worth measuring.  The loop below does what
khlee's hot paths do -- sparse column elimination over ``Fraction`` with
dict columns -- on one fixed matrix, and calls no khlee code: its time
follows the machine and not the program.  ``run.py`` times it before every
input and scales the timings it reports by ``NOMINAL_S / mean loop time``,
the speed at which the loop takes ``NOMINAL_S``.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

# about the loop's mean time on the 2-vCPU Xeon VM the bounds were set on
NOMINAL_S = 0.010
SIZE = 60  # columns (and rows) of the fixed matrix
ENTRIES = 3  # entries drawn per column


def _matrix():
    rng = random.Random("khlee-bench/reference")
    cols = []
    for _ in range(SIZE):
        col = {}
        for _ in range(ENTRIES):
            col[rng.randrange(SIZE)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        cols.append(col)
    return cols


def eliminate(cols) -> int:
    """Rank of the columns by sparse Gaussian elimination, pivoting on each
    column's highest row."""
    pivots = {}
    for col in cols:
        col = dict(col)
        while col:
            row = max(col)
            pivot = pivots.get(row)
            if pivot is None:
                pivots[row] = col
                break
            f = col[row] / pivot[row]
            for r, v in pivot.items():
                nv = col.get(r, Fraction(0)) - f * v
                if nv:
                    col[r] = nv
                else:
                    del col[r]
    return len(pivots)


class Reference:
    """The timed loop and its samples over one run."""

    def __init__(self):
        self.cols = _matrix()
        self.rank = eliminate(self.cols)
        self.samples = []

    def run(self):
        t0 = time.perf_counter()
        rank = eliminate(self.cols)
        self.samples.append(time.perf_counter() - t0)
        if rank != self.rank:
            raise RuntimeError(f"reference loop gave rank {rank}, not {self.rank}")

    def mean_s(self) -> float:
        return statistics.fmean(self.samples)

    def scale(self) -> float:
        """Factor that turns a time measured in this run into one at the
        nominal speed."""
        return NOMINAL_S / self.mean_s()
