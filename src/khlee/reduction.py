"""Gaussian elimination of invertible differential entries.

Eliminating an entry c*t^0 (c a nonzero rational, the only units of Q[t]
that can appear in a homogeneous monomial entry) produces a chain-homotopy
equivalent complex (D. Bar-Natan, "Fast Khovanov homology computations",
JKTR 16, 2007).  The retraction is pushed through optional tracked vectors
so Lee cycles survive the reduction with their homology classes and quantum
filtration levels intact.

The elimination runs on plain dictionaries with Python ``int``
coefficients, falling back to ``Fraction`` only where a pivot does not
divide; the result is built once through ``GradedComplex.add_entry``, which
turns every coefficient back into a ``Fraction``.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from . import qt
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


def scan_reduce(cx: GradedComplex, tracked=None):
    """Reduce until no invertible (t^0) entry remains.

    ``tracked`` is a list of vectors {generator id: Qt}; copies are rewritten
    through each elimination's retraction.  Returns the reduced complex, or
    (reduced complex, tracked copies) when ``tracked`` is given.  Only the
    generators of ``cx.out`` and their outgoing entries are read, and ``cx``
    is not modified.
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
    heap = []
    for src, row in out.items():
        for tgt, (_c, e) in row.items():
            if e == 0:
                heap.append((len(row) * len(inc[tgt]), src, tgt))
    heapq.heapify(heap)
    vectors = [dict(v) for v in tracked] if tracked else []

    while heap:
        _, b, c0 = heapq.heappop(heap)
        row_b = out.get(b)
        entry = row_b.get(c0) if row_b is not None else None
        if entry is None or entry[1] != 0:
            continue
        lam = entry[0]
        # d(b) = lam c0 + sum gamma_f f; each f gets the factor -gamma_f / lam
        outs = [(f, _quotient(-gc, lam), ge) for f, (gc, ge) in row_b.items() if f != c0]
        ins = [(e, ce) for e, ce in inc[c0].items() if e != b]
        # retraction on tracked vectors: r(b) = 0, r(c0) = -(1/lam) * sum gamma_f f
        for v in vectors:
            vc = v.pop(c0, None)
            v.pop(b, None)
            if vc:
                for f, fac, ge in outs:
                    merged = qt.add(v.get(f, {}), qt.scale(qt.shift(vc, ge), fac))
                    if merged:
                        v[f] = merged
                    else:
                        v.pop(f, None)
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
                if texp == 0:
                    heapq.heappush(heap, (len(row_e) * len(inc[f]), e, f))

    red = GradedComplex()
    for g in out:
        red.add_gen(gen_h[g], gen_q[g], gid=g)
    for src, row in out.items():
        for tgt, (c, e) in row.items():
            red.add_entry(src, tgt, c, e)
    return (red, vectors) if tracked is not None else red
