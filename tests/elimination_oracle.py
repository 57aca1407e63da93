"""The elimination kernel with one lazy-deletion heap holding every item:
the pivot-order oracle for ``reduction.eliminate``.

Every t^k entry is queued up front and every t^k fill-in gets a fresh heap
item; an item whose source row or entry is gone is skipped when it pops.
``reduction.eliminate`` must take the same pivots in the same order.
"""

from __future__ import annotations

import heapq

from khlee.linalg import _exact, _quotient


def eliminate(out, inc, k, gen_q, vectors=(), pos=None, covectors=()):
    """Eliminate every c*t^k entry of the tables, which hold none of lower
    exponent: the entries whose q gap, by ``gen_q``, is 4k.

    A pivot b -> c0 divides its whole row and column.  Clearing them changes
    each entry e -> f by -d(e->c0) d(b->f) / d(b->c0), of exponent at least
    k, and splits (b, c0) off as a summand with homology Q[t]/(t^k) at c0
    (none when k = 0).  The entries into b and out of c0 vanish in the new
    basis because d o d = 0, so they are dropped.  ``vectors`` ({generator:
    number}, values at t = 1) follow the same change of basis in place, and
    so do ``covectors`` (functionals, by their values on the generators):
    the inclusion of the smaller complex sends each e into c0 to
    e - d(e->c0) / lam b, so w(e) -= d(e->c0) / lam w(b).  Either way b and
    c0 are dropped.  Returns the eliminated (b, c0) pairs in order.

    ``pos`` ({generator: int}), when given, puts the bit length of
    pos[b] ^ pos[c0] in front of the Markowitz count in the pivot key.
    """
    kq = 4 * k
    heap = []
    for src, row in out.items():
        q = gen_q[src] + kq
        for tgt in row:
            if gen_q[tgt] == q:
                rank = (pos[src] ^ pos[tgt]).bit_length() if pos else 0
                heap.append((rank, len(row) * len(inc[tgt]), src, tgt))
    heapq.heapify(heap)
    pairs = []

    while heap:
        _, _, b, c0 = heapq.heappop(heap)
        row_b = out.get(b)
        if row_b is None or c0 not in row_b:
            continue  # eliminated already
        lam = row_b[c0]
        # d(b) = lam t^k c0 + sum gamma_f f; each f gets the factor -gamma_f / lam,
        # of power (q(f) - q(c0)) // 4
        outs = [(f, _quotient(-gc, lam), gen_q[f]) for f, gc in row_b.items() if f != c0]
        ins = [(e, ce) for e, ce in inc[c0].items() if e != b]
        # retraction on tracked vectors: r(b) = 0, r(c0) = sum of the factors' f,
        # each t-power 1 at t = 1
        for v in vectors:
            vc = v.pop(c0, None)
            v.pop(b, None)
            if vc:
                for f, fac, _qf in outs:
                    s = v.get(f, 0) + vc * fac
                    if s:
                        v[f] = s if type(s) is int else _exact(s)
                    else:
                        del v[f]
        # pullback on tracked covectors: w(e) -= d(e -> c0) / lam * w(b)
        for w in covectors:
            wb = w.pop(b, None)
            w.pop(c0, None)
            if wb:
                fac = _quotient(-wb, lam)
                for e, ce in ins:
                    s = w.get(e, 0) + ce * fac
                    if s:
                        w[e] = s if type(s) is int else _exact(s)
                    else:
                        del w[e]
        for g in (b, c0):
            for tgt in out.pop(g):
                del inc[tgt][g]
            for src in inc.pop(g):
                del out[src][g]
        for e, bc in ins:
            row_e = out[e]
            q = gen_q[e] + kq
            for f, fac, qf in outs:
                coeff = bc * fac
                old = row_e.get(f)
                if old is not None:
                    coeff = old + coeff
                    if not coeff:
                        del row_e[f]
                        del inc[f][e]
                        continue
                if type(coeff) is not int:
                    coeff = _exact(coeff)
                row_e[f] = inc[f][e] = coeff
                if qf == q:
                    rank = (pos[e] ^ pos[f]).bit_length() if pos else 0
                    heapq.heappush(heap, (rank, len(row_e) * len(inc[f]), e, f))
        pairs.append((b, c0))
    return pairs
