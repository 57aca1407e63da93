"""The full cube of resolutions: the deformed Khovanov complex over Q[t].

This is the brute-force engine and the oracle for everything else.  States
are label assignments on resolution circles; the differential is a signed
sum of saddle maps (multiplication or comultiplication).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from .complexes import GradedComplex
from .diagrams import OrientedDiagram
from .errors import ParseError, ResourceLimit
from .frobenius import FrobeniusData
from .linalg import _exact

DEFAULT_LIMIT = 2**22


def generator_limit(override=None) -> int:
    """``override`` (--limit), else KHLEE_LIMIT, else ``DEFAULT_LIMIT``;
    ``ParseError`` unless it is a positive integer."""
    name, value = "--limit", override
    if override is None:
        name, value = "KHLEE_LIMIT", os.environ.get("KHLEE_LIMIT") or DEFAULT_LIMIT
    try:
        limit = int(value)
    except ValueError:
        raise ParseError(f"{name} must be an integer, not {value!r}") from None
    if limit < 1:
        raise ParseError(f"{name} must be a positive integer, not {value!r}")
    return limit


@dataclass
class CubeComplex:
    """A built cube: ``first[r] + label_mask`` labels resolution bitmask r."""

    diagram: OrientedDiagram
    complex: GradedComplex
    first: dict  # resolution bitmask -> id of its generator with label mask 0

    def gen(self, choice, label_mask: int) -> int:
        """The generator of ``label_mask`` (bit j: circle j carries x, below
        2^circles) on resolution ``choice``."""
        return self.first[sum(b << i for i, b in enumerate(choice))] + label_mask


# The signed saddle maps, each entry its coefficient (q fixes its power of t):
# {(sign, circles in, circles out): {input labels: [(entry, output labels)]}}
_SADDLES = {
    (s, 2, 1): {ab: [(s * c, (lab,)) for c, _te, lab in terms]
                for ab, terms in FrobeniusData.mul.items()} for s in (1, -1)
} | {
    (s, 1, 2): {(a,): [(s * c, labs) for c, _te, labs in terms]
                for a, terms in FrobeniusData.comul.items()} for s in (1, -1)
}


def build_cube(d: OrientedDiagram, limit=None, h_window=None) -> CubeComplex:
    """Build the deformed complex of the diagram, or with ``h_window=(lo,
    hi)`` the resolutions of homological degree in [lo, hi].

    Resolution r (bit i: crossing i) has generators ``first[r] + label_mask``
    in order of r, and ``complex.pos`` maps them to r for the cube-order
    pivots of ``reduction.scan_reduce``.  One loop writes every saddle into
    ``out`` from a placement table made once per (sign, circles in, circles
    out, circle count); ``reduction.entry_tables`` checks h and q.
    """
    limit = generator_limit(limit)
    n, n_minus = d.n_crossings, d.n_minus
    lo, hi = h_window if h_window is not None else (-n_minus, n - n_minus)
    rs = [r for r in range(1 << n) if lo <= r.bit_count() - n_minus <= hi]
    circle_of, k, first = {}, {}, {}  # by r: {arc: circle}, circle count, first id
    total = 0
    for r in rs:
        circles = d.resolve([r >> i & 1 for i in range(n)]).circles
        circle_of[r] = {a: j for j, c in enumerate(circles) for a in c.arcs}
        k[r], first[r] = len(circles), total
        total += 1 << k[r]
        if total > limit:
            raise ResourceLimit(
                f"cube reached {total} generators after {len(k)} of "
                f"{len(rs)} resolutions, over the generator limit of {limit} "
                f"(--limit or KHLEE_LIMIT), building "
                f"{'the window' if h_window is not None else 'the full cube'} "
                f"of h in [{lo}, {hi}]")

    cx = GradedComplex()
    cx.pos = {}
    for r in rs:
        h, q = r.bit_count() - n_minus, r.bit_count() + d.n_plus - 2 * n_minus + k[r]
        for mask in range(1 << k[r]):
            cx.pos[cx.add_gen(h, q - 2 * mask.bit_count())] = r

    out = cx.out
    tables = {}
    for r in rs:
        for i, cross in enumerate(d.crossings):
            r2 = r | 1 << i
            if r2 == r or r2 not in first:
                continue
            inv = sorted({circle_of[r][a] for a in cross.ends})
            inv2 = sorted({circle_of[r2][a] for a in cross.ends})
            sign = -1 if (r & (1 << i) - 1).bit_count() % 2 else 1
            if (sign, len(inv), len(inv2)) not in _SADDLES:
                raise AssertionError(
                    f"saddle at crossing {i} changed circles by {inv}->{inv2}")
            key = (sign, tuple(inv), tuple(inv2), k[r])
            if key not in tables:
                # by label mask of r, the target bits of its other circles, which
                # keep their order, as resolve sorts circles by least arc
                bases, moved = [0], iter([t for t in range(k[r2]) if t not in inv2])
                for j in range(k[r]):
                    bit = 0 if j in inv else 1 << next(moved)
                    bases += [base | bit for base in bases]
                place = {sum(lab << j for lab, j in zip(ins, inv)):
                         [(entry, sum(lab << t for lab, t in zip(outs, inv2)))
                          for entry, outs in terms]
                         for ins, terms in _SADDLES[sign, len(inv), len(inv2)].items()}
                inv_bits = sum(1 << j for j in inv)
                tables[key] = [[(entry, base | bits) for entry, bits in place[mask & inv_bits]]
                               for mask, base in enumerate(bases)]
            # one saddle writes each (src, tgt) pair once, so nothing is summed
            f2 = first[r2]
            for src, terms in enumerate(tables[key], first[r]):
                for entry, tmask in terms:
                    out[src][f2 + tmask] = entry

    return CubeComplex(d, cx, first)


@dataclass
class FilteredComplex:
    """A q-filtered complex over Q: the t := value specialization."""

    gen_h: dict
    gen_q: dict
    out: dict  # src -> {tgt: number}

    def gens_at(self, h):
        return sorted(g for g, hh in self.gen_h.items() if hh == h)


def specialize_t(cx: GradedComplex, value) -> FilteredComplex:
    v = _exact(Fraction(value))
    out = {}
    for src, row in cx.out.items():
        newrow = {}
        for tgt, c in row.items():
            cv = c * v ** ((cx.gen_q[tgt] - cx.gen_q[src]) // 4)
            if cv:
                newrow[tgt] = cv
        out[src] = newrow
    return FilteredComplex(dict(cx.gen_h), dict(cx.gen_q), out)
