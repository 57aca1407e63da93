"""The graded Q[t]-module of a complex from a Smith normal form of its whole
differential: the oracle for ``khlee.smith.homology_qt``.

Degree by degree, each step takes the entry (exponent, row, column) that is
least over the remaining columns and clears its row and column; the matrix
of the next degree follows the row operations.  It runs on the unreduced
complex and shares no code with ``khlee.reduction``'s elimination kernel.
"""

import heapq
from fractions import Fraction


class _SparseMat:
    """Row- and column-indexed sparse matrix with monomial entries."""

    def __init__(self):
        self.rows = {}  # r -> {c: (coeff, exp)}
        self.cols = {}  # c -> {r: (coeff, exp)}

    def set(self, r, c, coeff, exp):
        if coeff:
            self.rows.setdefault(r, {})[c] = (coeff, exp)
            self.cols.setdefault(c, {})[r] = (coeff, exp)
        else:
            self.rows.get(r, {}).pop(c, None)
            self.cols.get(c, {}).pop(r, None)

    def get(self, r, c):
        return self.rows.get(r, {}).get(c)

    def add(self, r, c, coeff, exp):
        old = self.get(r, c)
        if old:
            if old[1] != exp:
                raise AssertionError("homogeneity broken in SNF")
            coeff = coeff + old[0]
        self.set(r, c, coeff, exp)


def module_by_snf(cx):
    """(free, torsion) of ``cx`` as ``homology_qt`` reports them, from a Smith
    form of the whole complex: free is a sorted list of (h, q), torsion a
    sorted list of (h, q, k) for the summands Q[t]/(t^k)."""
    hs = cx.gen_h.values()
    hmin, hmax = (min(hs), max(hs)) if hs else (0, -1)
    mats = {}
    for h in range(hmin, hmax + 1):
        m = _SparseMat()
        for src in cx.gens_at(h):
            for tgt, c in cx.out[src].items():
                m.set(tgt, src, c, (cx.gen_q[tgt] - cx.gen_q[src]) // 4)
        mats[h] = m

    free = []
    torsion = []
    prev_pivots = {}  # gen at current degree -> invariant-factor exponent
    for h in range(hmin, hmax + 2):
        gens_h = cx.gens_at(h)
        m = mats.get(h, _SparseMat())
        nxt = mats.get(h + 1, _SparseMat())
        for g in prev_pivots:
            if m.cols.get(g):
                raise AssertionError("pivot target has a nonzero differential")
        active = set(g for g in gens_h if g not in prev_pivots)
        pivots = {}
        # every live entry has a key here; an entry keeps its exponent
        heap = [(ee, r, c) for c in active for r, (_cc, ee) in m.cols.get(c, {}).items()]
        heapq.heapify(heap)
        while heap:
            e0, r0, c0 = heapq.heappop(heap)
            if c0 not in active or m.get(r0, c0) is None:
                continue
            lam = m.cols[c0][r0][0]
            col_snapshot = [(r, v) for r, v in m.cols[c0].items() if r != r0]
            row_snapshot = [(c, v) for c, v in m.rows[r0].items() if c != c0]
            # clear column c0: R_r -= (c1/lam) t^(e1-e0) R_r0
            for r, (c1, e1) in col_snapshot:
                f, de = Fraction(c1) / lam, e1 - e0
                for c2, (cc, ee) in list(m.rows.get(r0, {}).items()):
                    m.add(r, c2, -f * cc, ee + de)
                    heapq.heappush(heap, (ee + de, r, c2))
                # mirror on the next matrix: col_{r0} += f t^de col_r
                for t2 in list(nxt.cols.get(r, {}).keys()):
                    cc, ee = nxt.cols[r][t2]
                    nxt.add(t2, r0, f * cc, ee + de)
            # clear row r0: C_c -= (c1/lam) t^(e1-e0) C_c0
            for c, (c1, e1) in row_snapshot:
                f, de = Fraction(c1) / lam, e1 - e0
                for r2, (cc, ee) in list(m.cols.get(c0, {}).items()):
                    m.add(r2, c, -f * cc, ee + de)
            if set(m.cols.get(c0, {})) != {r0} or set(m.rows.get(r0, {})) != {c0}:
                raise AssertionError("SNF pivot not isolated")
            pivots[c0] = (r0, e0)
            active.discard(c0)
            # retire the pivot row and column, which hold only the pivot
            m.rows.pop(r0, None)
            m.cols.pop(c0, None)
        for g in gens_h:
            if g in prev_pivots:
                k = prev_pivots[g]
                if k >= 1:
                    torsion.append((h, cx.gen_q[g], k))
                continue
            if g in pivots:
                continue  # cancelled against (or torsion at) degree h+1
            free.append((h, cx.gen_q[g]))
        prev_pivots = {r0: e0 for _c0, (r0, e0) in pivots.items()}
    return sorted(free), sorted(torsion)
