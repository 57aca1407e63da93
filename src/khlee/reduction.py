"""Gaussian elimination over Q[t]: the one elimination kernel.

Every differential entry of a homogeneous complex is a monomial c*t^k,
k = (q(target) - q(source)) / 4.  ``eliminate(out, inc, k, gen_q)`` clears
the entries of exponent k once none of lower exponent is left, so its pivot
divides its whole row and column.

- At k = 0 the pivots are units (nonzero rationals), and each elimination
  is a chain-homotopy equivalence (D. Bar-Natan, "Fast Khovanov homology
  computations", JKTR 16, 2007).  ``scan_reduce`` is this pass, with
  optional tracked vectors pushed through the retraction so Lee cycles
  keep their homology classes and quantum filtration levels, and optional
  tracked covectors pulled back through the inclusion so cocycles keep
  theirs.  The levels read a (co)cycle at t = 1 only, and setting t := 1
  is a ring map, so a tracked (co)vector holds its values there: the
  t-powers of the change of basis are 1.
- Pivots go by least Markowitz count (row length times column length,
  taken when queued).  On a cube of resolutions ``build_cube`` records
  each generator's resolution bitmask in ``cx.pos``, and at k = 0 the bit
  length of pos[src] ^ pos[tgt] goes first: the cube is reduced cone by
  cone, as in Bar-Natan's local elimination, so fill-in stays inside small
  sub-cubes.
- The pivots wait in one list per rank; the lowest rank's list becomes a
  lazy-deletion heap, less the items whose generators are gone, when the
  heap runs dry.  Most cube entries lose a generator before their rank
  comes up, and the order is that of one heap holding every item.
- At k >= 1 the same row and column updates split off one Q[t]/(t^k)
  summand per pivot; ``smith._graded_snf`` runs the passes k = 1, 2, ...
  on what ``scan_reduce`` leaves and reads off the graded Smith form.

The elimination runs on the complex's own table format, {src: {tgt:
coeff}} with each power of t read off the q-degrees, in the program's one
number form (``linalg``): an ``int`` where integral, a ``Fraction`` only
where a pivot does not divide.  ``scan_reduce`` hands its tables over as
the reduced complex, and the tracked vectors as they are.
"""

from __future__ import annotations

import heapq

from .complexes import GradedComplex
from .errors import KhleeError
from .linalg import _exact, _quotient


def entry_tables(cx: GradedComplex):
    """(out, inc): copies of ``cx.out`` ({src: {tgt: coeff}}) and its
    transpose.  The check for builders that write ``cx.out`` directly:
    raises ``KhleeError`` on an entry that does not raise h by one, or
    whose q gap is negative or not a multiple of 4.
    """
    gen_h, gen_q = cx.gen_h, cx.gen_q
    out = {g: dict(row) for g, row in cx.out.items()}
    inc = {g: {} for g in out}
    for src, row in out.items():
        h1, q = gen_h[src] + 1, gen_q[src]
        for tgt, c in row.items():
            if tgt not in inc or gen_h[tgt] != h1 or gen_q[tgt] < q or (gen_q[tgt] - q) % 4:
                raise KhleeError(
                    f"inhomogeneous entry {src}->{tgt}: (h, q) ({h1 - 1}, {q}) -> "
                    f"({gen_h.get(tgt)}, {gen_q.get(tgt)})")
            inc[tgt][src] = c
    return out, inc


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
    Items of rank above the front wait in per-rank lists; a fill-in at or
    below it goes straight into the heap.  A list is filtered only on its
    generators, which never come back: an entry that cancelled to zero can
    be re-created by a later fill-in, and its old item is live again.
    Without ``pos`` every rank is 0, one list heapified at the start.
    """
    kq = 4 * k
    waiting = {}  # rank -> its items, queued once the front reaches the rank
    for src, row in out.items():
        q = gen_q[src] + kq
        for tgt in row:
            if gen_q[tgt] == q:
                rank = (pos[src] ^ pos[tgt]).bit_length() if pos else 0
                waiting.setdefault(rank, []).append((rank, len(row) * len(inc[tgt]), src, tgt))
    heap, front = [], -1
    pairs = []

    while heap or waiting:
        if not heap:
            front = min(waiting)
            heap = [it for it in waiting.pop(front) if it[2] in out and it[3] in out]
            heapq.heapify(heap)
            continue
        _, _, b, c0 = heapq.heappop(heap)
        row_b = out.get(b)
        if row_b is None or c0 not in row_b:
            continue  # eliminated already
        lam = row_b[c0]
        # d(b) = lam t^k c0 + sum gamma_f f; each f gets the factor -gamma_f / lam,
        # of power (q(f) - q(c0)) // 4
        if lam == 1 or lam == -1:  # 1 / lam == lam
            outs = [(f, -gc * lam, gen_q[f]) for f, gc in row_b.items() if f != c0]
        else:
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
                    item = (rank, len(row_e) * len(inc[f]), e, f)
                    if rank <= front:
                        heapq.heappush(heap, item)
                    else:
                        waiting.setdefault(rank, []).append(item)
        pairs.append((b, c0))
    return pairs


def scan_reduce(cx: GradedComplex, tracked=None, cotracked=None):
    """Reduce until no invertible (t^0) entry remains.

    ``tracked`` is a list of vectors {generator id: number}, the values of
    cycles at t = 1; copies are rewritten through each elimination's
    retraction and come back as {generator id: number}.  ``cotracked``
    does the same for covectors, the values of cocycles at t = 1 on the
    generators.  The positions of a cube (``cx.pos``) order the pivots as in
    ``eliminate``.  Returns the reduced complex, (reduced complex, tracked
    copies) when ``tracked`` is given, and (reduced complex, tracked copies,
    cotracked copies) when ``cotracked`` is given too.  ``cx`` is not
    modified.
    """
    out, inc = entry_tables(cx)
    vectors = [dict(v) for v in tracked] if tracked else []
    covectors = [dict(w) for w in cotracked] if cotracked else []
    eliminate(out, inc, 0, cx.gen_q, vectors, cx.pos, covectors)

    red = GradedComplex()
    for g in out:
        red.add_gen(cx.gen_h[g], cx.gen_q[g], gid=g)
    red.out = out
    if tracked is None and cotracked is None:
        return red
    if cotracked is None:
        return red, vectors
    return red, vectors, covectors
