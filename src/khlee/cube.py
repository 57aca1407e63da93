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

DEFAULT_LIMIT = 2**22


def generator_limit(override=None) -> int:
    if override is not None:
        return int(override)
    env = os.environ.get("KHLEE_LIMIT")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ParseError(f"KHLEE_LIMIT must be an integer, not {env!r}") from None
    return DEFAULT_LIMIT


@dataclass
class CubeComplex:
    """A built cube plus the labeling-to-generator dictionary."""

    diagram: OrientedDiagram
    complex: GradedComplex
    gen_of: dict  # (choice tuple, label mask) -> generator id
    circle_arcs: dict  # choice tuple -> list of frozensets (sorted circle order)

    def gen(self, choice, label_mask: int) -> int:
        return self.gen_of[(tuple(choice), label_mask)]


def _popcount(x: int) -> int:
    return bin(x).count("1")


def build_cube(d: OrientedDiagram, limit=None, h_window=None) -> CubeComplex:
    """Build the deformed complex of the diagram.

    ``h_window=(lo, hi)`` restricts to resolutions whose homological degree
    lies in [lo, hi]; differentials whose endpoints both lie in the window
    are included.  The saddle maps are written straight into the complex's
    ``out``/``inc`` tables, without ``add_entry``: every entry is
    homogeneous by construction, and ``reduction.entry_tables`` checks h and
    q again before any reduction reads them.  Each generator's resolution,
    as a bitmask (bit i: crossing i), goes into ``complex.pos``, which puts
    the pivots of ``reduction.scan_reduce`` in cube order.
    """
    limit = generator_limit(limit)
    n = d.n_crossings
    n_minus = d.n_minus
    n_plus = d.n_plus

    def h_of(weight):
        return weight - n_minus

    weights = range(n + 1)
    if h_window is not None:
        lo, hi = h_window
        weights = [w for w in weights if lo <= h_of(w) <= hi]
        weights_set = set(weights)
    else:
        weights_set = set(range(n + 1))

    # enumerate admissible choices
    choices = []
    for r in range(2**n):
        if _popcount(r) in weights_set:
            choices.append(tuple((r >> i) & 1 for i in range(n)))

    circle_arcs = {}
    total = 0
    for ch in choices:
        circles = d.resolve(ch).circles
        circle_arcs[ch] = [c.arcs for c in circles]
        total += 1 << len(circles)
        if total > limit:
            raise ResourceLimit(
                f"cube reached {total} generators after {len(circle_arcs)} of "
                f"{len(choices)} resolutions, over the generator limit of {limit} "
                f"(--limit or KHLEE_LIMIT)")

    cx = GradedComplex()
    cx.pos = {}
    gen_of = {}
    for ch in choices:
        arcs_list = circle_arcs[ch]
        k = len(arcs_list)
        w = sum(ch)
        h = h_of(w)
        base_q = w + n_plus - 2 * n_minus
        bits = sum(b << i for i, b in enumerate(ch))
        for mask in range(1 << k):
            q = base_q + sum(-1 if (mask >> j) & 1 else 1 for j in range(k))
            g = gen_of[(ch, mask)] = cx.add_gen(h, q)
            cx.pos[g] = bits

    # the signed saddle maps, each entry one (Fraction, texp) tuple shared by
    # the whole cube; a saddle writes each (src, tgt) pair once, so nothing
    # is summed
    def signed(table, sign):
        return {key: [((Fraction(sign * c), te), lab) for c, te, lab in terms]
                for key, terms in table.items()}

    mul = {sign: signed(FrobeniusData.mul, sign) for sign in (1, -1)}
    comul = {sign: signed(FrobeniusData.comul, sign) for sign in (1, -1)}
    out, inc = cx.out, cx.inc

    for ch in choices:
        arcs_list = circle_arcs[ch]
        k = len(arcs_list)
        arc2circle = {}
        for j, arcs in enumerate(arcs_list):
            for a in arcs:
                arc2circle[a] = j
        for i in range(n):
            if ch[i] != 0:
                continue
            ch2 = ch[:i] + (1,) + ch[i + 1:]
            if ch2 not in circle_arcs:
                continue
            arcs2_list = circle_arcs[ch2]
            arc2circle2 = {}
            for j, arcs in enumerate(arcs2_list):
                for a in arcs:
                    arc2circle2[a] = j
            cross = d.crossings[i]
            involved = sorted({arc2circle[a] for a in cross.ends})
            involved2 = sorted({arc2circle2[a] for a in cross.ends})
            sign = -1 if sum(ch[:i]) % 2 else 1
            # map uninvolved circles by a representative arc
            carry = {}
            for j in range(k):
                if j not in involved:
                    carry[j] = arc2circle2[min(arcs_list[j])]
            if len(involved) == 2 and len(involved2) == 1:
                j1, j2 = involved
                jt = involved2[0]
                table = mul[sign]
                for mask in range(1 << k):
                    src = gen_of[(ch, mask)]
                    row = out[src]
                    base = 0
                    for j, jt2 in carry.items():
                        if (mask >> j) & 1:
                            base |= 1 << jt2
                    la, lb = (mask >> j1) & 1, (mask >> j2) & 1
                    for entry, lab in table[(la, lb)]:
                        tgt = gen_of[(ch2, base | (lab << jt))]
                        row[tgt] = inc[tgt][src] = entry
            elif len(involved) == 1 and len(involved2) == 2:
                j0 = involved[0]
                jt1, jt2 = involved2
                table = comul[sign]
                for mask in range(1 << k):
                    src = gen_of[(ch, mask)]
                    row = out[src]
                    base = 0
                    for j, jt in carry.items():
                        if (mask >> j) & 1:
                            base |= 1 << jt
                    la = (mask >> j0) & 1
                    for entry, (l1, l2) in table[la]:
                        tgt = gen_of[(ch2, base | (l1 << jt1) | (l2 << jt2))]
                        row[tgt] = inc[tgt][src] = entry
            else:
                raise AssertionError(
                    f"saddle at crossing {i} changed circles by {involved}->{involved2}")

    return CubeComplex(d, cx, gen_of, circle_arcs)


@dataclass
class FilteredComplex:
    """A q-filtered complex over Q: the t := value specialization."""

    gen_h: dict
    gen_q: dict
    out: dict  # src -> {tgt: Fraction}

    def gens_at(self, h):
        return sorted(g for g, hh in self.gen_h.items() if hh == h)


def specialize_t(cx: GradedComplex, value) -> FilteredComplex:
    v = Fraction(value)
    out = {}
    for src, row in cx.out.items():
        newrow = {}
        for tgt, (c, e) in row.items():
            cv = c * v**e
            if cv:
                newrow[tgt] = cv
        out[src] = newrow
    return FilteredComplex(dict(cx.gen_h), dict(cx.gen_q), out)
