"""Gaussian elimination over Q[t]: the one elimination kernel.

Every differential entry of a homogeneous complex is a monomial c*t^k.
``eliminate(out, inc, k)`` clears the entries of exponent k once none of
lower exponent is left, so its pivot divides its whole row and column.

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
- At k >= 1 the same row and column updates split off one Q[t]/(t^k)
  summand per pivot; ``smith._graded_snf`` runs the passes k = 1, 2, ...
  on what ``scan_reduce`` leaves and reads off the graded Smith form.

The elimination runs on plain dictionaries with Python ``int``
coefficients, falling back to ``Fraction`` only where a pivot does not
divide; ``scan_reduce`` builds its result once through
``GradedComplex.add_entry``, which turns every coefficient back into a
``Fraction``, and hands out the tracked vectors with ``Fraction`` values.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .complexes import GradedComplex
from .errors import KhleeError


def _exact(c):
    """c as an int when it is integral; otherwise the Fraction itself."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _quotient(a, b):
    """a / b exactly, never as a float."""
    if type(a) is int and type(b) is int:
        quot, rem = divmod(a, b)
        return Fraction(a, b) if rem else quot
    return _exact(a / b)


def entry_tables(cx: GradedComplex):
    """(out, inc): every entry of ``cx`` as {src: {tgt: (coeff, texp)}} and
    {tgt: {src: (coeff, texp)}}, coefficients as exact ints where integral.

    Raises ``KhleeError`` on an entry that breaks homogeneity.  Only the
    generators of ``cx.out`` and their outgoing entries are read.
    """
    gen_h, gen_q = cx.gen_h, cx.gen_q
    out = {g: {} for g in cx.out}
    inc = {g: {} for g in cx.out}
    shared = {}  # one tuple per distinct entry: most coefficients are +-1
    for src, row in cx.out.items():
        h1, q = gen_h[src] + 1, gen_q[src]
        for tgt, (c, e) in row.items():
            if tgt not in out or gen_h[tgt] != h1 or gen_q[tgt] != q + 4 * e:
                raise KhleeError(
                    f"inhomogeneous entry {src}->{tgt}: (h, q) ({h1 - 1}, {q}) -> "
                    f"({gen_h.get(tgt)}, {gen_q.get(tgt)}) with t^{e}")
            ent = (_exact(c), e)
            out[src][tgt] = inc[tgt][src] = shared.setdefault(ent, ent)
    return out, inc


def eliminate(out, inc, k, vectors=(), pos=None, covectors=()):
    """Eliminate every c*t^k entry of the tables, which hold none of lower
    exponent.

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
    heap = []
    for src, row in out.items():
        for tgt, (_c, e) in row.items():
            if e == k:
                rank = (pos[src] ^ pos[tgt]).bit_length() if pos else 0
                heap.append((rank, len(row) * len(inc[tgt]), src, tgt))
    heapq.heapify(heap)
    pairs = []

    while heap:
        _, _, b, c0 = heapq.heappop(heap)
        row_b = out.get(b)
        entry = row_b.get(c0) if row_b is not None else None
        if entry is None or entry[1] != k:
            continue
        lam = entry[0]
        # d(b) = lam t^k c0 + sum gamma_f t^ge f; each f gets the factor
        # -(gamma_f / lam) t^(ge - k)
        outs = [(f, _quotient(-gc, lam), ge - k) for f, (gc, ge) in row_b.items()
                if f != c0]
        ins = [(e, ce) for e, ce in inc[c0].items() if e != b]
        # retraction on tracked vectors: r(b) = 0, r(c0) = sum of the factors' f,
        # each t-power 1 at t = 1
        for v in vectors:
            vc = v.pop(c0, None)
            v.pop(b, None)
            if vc:
                for f, fac, _ge in outs:
                    s = v.get(f, 0) + vc * fac
                    if s:
                        v[f] = s
                    else:
                        del v[f]
        # pullback on tracked covectors: w(e) -= d(e -> c0) / lam * w(b)
        for w in covectors:
            wb = w.pop(b, None)
            w.pop(c0, None)
            if wb:
                fac = _quotient(-wb, lam)
                for e, (ce, _be) in ins:
                    s = w.get(e, 0) + ce * fac
                    if s:
                        w[e] = s
                    else:
                        del w[e]
        for g in (b, c0):
            for tgt in out.pop(g):
                del inc[tgt][g]
            for src in inc.pop(g):
                del out[src][g]
        for e, (bc, be) in ins:
            row_e = out[e]
            for f, fac, ge in outs:
                texp = be + ge
                coeff = bc * fac
                old = row_e.get(f)
                if old is not None:
                    if old[1] != texp:
                        raise KhleeError("non-monomial entry would violate homogeneity")
                    coeff = old[0] + coeff
                    if not coeff:
                        del row_e[f]
                        del inc[f][e]
                        continue
                if type(coeff) is not int:
                    coeff = _exact(coeff)
                row_e[f] = inc[f][e] = (coeff, texp)
                if texp == k:
                    rank = (pos[e] ^ pos[f]).bit_length() if pos else 0
                    heapq.heappush(heap, (rank, len(row_e) * len(inc[f]), e, f))
        pairs.append((b, c0))
    return pairs


def scan_reduce(cx: GradedComplex, tracked=None, cotracked=None):
    """Reduce until no invertible (t^0) entry remains.

    ``tracked`` is a list of vectors {generator id: number}, the values of
    cycles at t = 1; copies are rewritten through each elimination's
    retraction and come back as {generator id: Fraction}.  ``cotracked``
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
    eliminate(out, inc, 0, vectors, cx.pos, covectors)

    red = GradedComplex()
    for g in out:
        red.add_gen(cx.gen_h[g], cx.gen_q[g], gid=g)
    for src, row in out.items():
        for tgt, (c, e) in row.items():
            red.add_entry(src, tgt, c, e)
    if tracked is None and cotracked is None:
        return red
    vectors = [{g: Fraction(c) for g, c in v.items()} for v in vectors]
    if cotracked is None:
        return red, vectors
    return red, vectors, [{g: Fraction(c) for g, c in w.items()} for w in covectors]
