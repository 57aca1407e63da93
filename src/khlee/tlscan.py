"""Scanning engine for braid-closure diagrams.

The word is consumed letter by letter.  The state is a chain complex of
crossingless (n, n)-tangles (planar matchings with grading shifts) whose
differentials are Q[t]-combinations of dotted cobordisms.  After each
letter the complex is delooped and Gaussian-eliminated, which keeps it small
even for long torus words.  The trace closure at the end turns everything
into free Q[t]-modules.

Morphisms live in the disc basis.  Over Q[t] with x^2 = t a cylinder equals
a dotted cap over a plain cup plus a plain cap over a dotted cup
(neck-cutting: D. Bar-Natan, "Khovanov's homology for tangles and
cobordisms", G&T 9, 2005, section 11.2).  So Hom(A, B) is free on disc
patterns, one disc per boundary curve of A-bar B, dotted or not, as in
Khovanov's arc algebra (M. Khovanov, "A functor-valued invariant of
tangles", AGT 2, 2002).  A morphism is a dict {dot bitmask: number};
its bits number the curves of A-bar B: A's circles, then B's, then the
cycles through the boundary points by least point.  The identity of a
circle-free object is mask 0, and so is a saddle.  Every map of the complex
is q-homogeneous, and a disc pattern has degree #curves - n - 2 #dots, so
the degrees fix each mask's power of t (of degree -4): a morphism keeps
only the coefficient, and so does each entry of the closed complex, as
every ``GradedComplex`` does.

Gluing the discs of two morphisms gives a surface whose shape depends only
on the objects.  ``compose``, ``stack`` and ``close_morphism`` build it once
per object triple as a ``_Plan``: its connected pieces, the discs of each
factor in each piece, the piece's result curves and its genus.  A term pair
then reads its result masks off the plan with popcounts.  A piece with g
handles gives 2^g and g more dots; d dots give t^(d // 2) and leave
e = d mod 2.  A closed piece is 0 for e = 0 and 1 for e = 1.  A piece with
r result curves neck-cuts to Delta^(r-1)(x^e) in the basis {1, x}: the sum,
over the disc patterns with u undotted discs and u = 1 - e mod 2, of
t^(u // 2).

On the circles of the trace closure a disc pattern is a cap on each source
circle and a cup on each target circle.  A plain cap is the counit, taking
x to 1 and 1 to 0; a dotted cap takes 1 to 1 and x to eps(x^2) = 0; a cup's
dot is its target label.  So each closed disc pattern is one matrix entry
of the closed complex, with no expansion over labellings.

The canonical Lee cycles of o and obar survive the whole process through
tracked retraction columns, a ``TrackedColumn``: for each, morphisms from
its ``source``, the oriented-resolution tangle of the scanned prefix, into
the current objects.  A Lee cycle is the tensor product of eps*1 + x over
the Seifert circles, eps the circle's Lee sign, so a column caps each
circle the moment a letter closes it, a plain cap weighing 1 and a dotted
cap eps, and its source never holds a circle; the closure caps the last
circles the same way.  The signs are read off the slots (row, column) of
the braid diagram: a circle a letter closes takes the sign at its least
middle column, and a source boundary point that of its slot.  Each letter
checks that both ends of every piece of its oriented resolution share a
sign, and glued pieces share their middle slot, so every arc and circle of
the source carries one sign; the closure checks its own circles, which join
slot (0, c) to the top slot of column c.  The levels read the columns at
t = 1 only, and setting t := 1 is a ring map, so the columns hold their
values there from the first letter on.  All maps the columns pass through
are q-homogeneous, so at t=1 the tracked image keeps the filtration level
of the class.
"""

from __future__ import annotations

import heapq
import operator

from .complexes import GradedComplex
from .cube import generator_limit
from .diagrams import OrientedDiagram
from .errors import KhleeError, ResourceLimit
from .linalg import _exact, _quotient
from .reduction import scan_reduce
from .smith import homology_qt

# Undotted discs on every curve: the identity of a circle-free object, a
# saddle, and the second factor of a closure, which glues one morphism alone.
_PLAIN = {0: 1}

# ---------------------------------------------------------------------------
# gluing plans

# Gluing plans, the cycles of two matchings and stackings are pure functions
# of their objects.  ``_memo`` builds each on first use and keeps it for one
# scan (``clear_scan_caches`` empties the table when a scan starts), so one
# scan's time and memory never depend on an earlier one.  Memory sets the
# bound: the table starts over when it holds MEMO_CACHE results.
MEMO_CACHE = 8192

_memo_table = {}  # (function, arguments) -> result


def clear_scan_caches():
    """Empty the per-scan memo of plans, cycles and stackings."""
    _memo_table.clear()


def _memo(fn, *args):
    """fn(*args), computed the first time it is asked for in this scan."""
    key = (fn, args)
    value = _memo_table.get(key)
    if value is None:
        value = fn(*args)
        if len(_memo_table) >= MEMO_CACHE:
            _memo_table.clear()
        _memo_table[key] = value
    return value


def _cycles(m1, m2):
    """The cycles of matchings m1 and m2 glued along their points: (least
    point of each cycle, cycle of each point), numbered by least point."""
    cyc = [-1] * len(m1)
    least = []
    for p0 in range(len(m1)):
        if cyc[p0] < 0:
            p = p0
            while cyc[p] < 0:
                q = m1[p]
                cyc[p] = cyc[q] = len(least)
                p = m2[q]
            least.append(p0)
    return least, cyc


def _fan(bits, e):
    """Delta^(r-1)(x^e) on the curves ``bits``: the dotted mask of each disc
    pattern with u undotted discs, u = 1 - e mod 2."""
    patterns = [(0, 0)]  # (dotted mask, undotted count)
    for b in bits:
        patterns = [(m | 1 << b, u) for m, u in patterns] + [(m, u + 1) for m, u in patterns]
    return tuple(m for m, u in patterns if (u + e) % 2)


class _Plan:
    """The surface glued from the discs of two morphisms F and G.

    A term pair is one key: F's dot mask, then G's shifted by ``shift``.
    Each piece of the surface is (mask of its discs in the key, genus, ...):
    ``closed`` pieces have no result curve, ``single`` ones one (its bit), and
    ``fans`` several (their bits, for ``_fan``).
    ``scale`` is 2 to the total genus.
    """

    __slots__ = ("shift", "scale", "closed", "single", "fans")

    def __init__(self, nf, ng, seams, attach):
        """Discs 0..nf-1 are F's and nf..nf+ng-1 G's; a seam (disc, disc,
        chi cost) glues along an arc (cost 1) or a circle (0); attach[i] is
        the disc on result curve i."""
        n = nf + ng
        root = list(range(n))  # union-find over the discs
        cost = [0] * n  # seam cost per root
        for i, j, c in seams:
            while root[i] != i:
                i = root[i]
            while root[j] != j:
                j = root[j]
            if i != j:
                root[i] = j
                cost[j] += cost[i]
            cost[j] += c
        mask = [0] * n
        for x in range(n):
            r = x
            while root[r] != r:
                r = root[r]
            root[x] = r
            mask[r] |= 1 << x
        curves = {}
        for bit, x in enumerate(attach):
            curves.setdefault(root[x], []).append(bit)
        self.shift, self.closed, self.single, self.fans = nf, [], [], []
        handles = 0
        for r in range(n):
            if root[r] != r:
                continue
            bits = curves.get(r, ())
            genus2 = 2 - (mask[r].bit_count() - cost[r]) - len(bits)  # 2 - chi - r
            if genus2 % 2 or genus2 < 0:
                raise KhleeError("impossible genus in cobordism gluing")
            g = genus2 // 2
            handles += g
            if not bits:
                self.closed.append((mask[r], g))
            elif len(bits) == 1:
                self.single.append((mask[r], g, 1 << bits[0]))
            else:
                self.fans.append((mask[r], g, bits))
        self.scale = 1 << handles

    def glue(self, key):
        """The result masks of the term pair ``key`` glued, each with the
        coefficient ``scale``."""
        for mask, g in self.closed:
            if not ((key & mask).bit_count() + g) & 1:
                return ()
        rmask = 0
        for mask, g, bit in self.single:
            if ((key & mask).bit_count() + g) & 1:
                rmask |= bit
        masks = [rmask]
        for mask, g, bits in self.fans:
            fan = _fan(bits, ((key & mask).bit_count() + g) & 1)
            masks = [m | fm for m in masks for fm in fan]
        return masks


def _bilinear(plan, fmorph, gmorph):
    """The sum of every term pair of the two morphisms, glued by ``plan``."""
    out = {}
    shift, scale = plan.shift, plan.scale
    for fm, cf in fmorph.items():
        for gm, cg in gmorph.items():
            c = cf * cg * scale
            for rm in plan.glue(fm | gm << shift):
                s = out.get(rm, 0) + c
                if s:
                    out[rm] = s
                else:
                    del out[rm]
    return out


def _accumulate(acc, key, value, add=operator.add):
    """acc[key] += value, a number (or a morphism, with add=_add_morphism),
    dropping the key when the sum is zero."""
    s = add(acc[key], value) if key in acc else value
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def _add_morphism(a, b):
    out = dict(a)
    for mask, c in b.items():
        _accumulate(out, mask, c)
    return out


def _scale_morphism(m, c):
    """m times a nonzero scalar c, with integral coefficients kept as ints."""
    return {mask: _exact(v * c) for mask, v in m.items()}


def identity_morphism(obj):
    """A strip per arc, and per circle the neck-cut cylinder: a dotted cap
    with a plain cup plus a plain cap with a dotted cup."""
    nc = obj[1]
    return {sum(1 << (i + (nc if up >> i & 1 else 0)) for i in range(nc)): 1
            for up in range(1 << nc)}


def compose(fm, A, B, gm, C):
    """g after f, for f: A -> B and g: B -> C."""
    return _bilinear(_memo(_compose_plan, A, B, C), fm, gm)


def _compose_plan(A, B, C):
    """The discs of f: A -> B and g: B -> C meet along B's arcs and circles."""
    (mA, ncA), (mB, ncB), (mC, ncC) = A, B, C
    leastF, cF = _memo(_cycles, mA, mB)
    leastG, cG = _memo(_cycles, mB, mC)
    f0 = ncA + ncB  # f's first cycle
    nf = f0 + len(leastF)
    g0 = nf + ncB + ncC  # g's first cycle
    seams = [(f0 + cF[p], g0 + cG[p], 1) for p in range(len(mB)) if p < mB[p]]
    seams += [(ncA + i, nf + i, 0) for i in range(ncB)]
    attach = list(range(ncA)) + [nf + ncB + j for j in range(ncC)]
    attach += [f0 + cF[p] for p in _memo(_cycles, mA, mC)[0]]
    return _Plan(nf, g0 + len(leastG) - nf, seams, attach)


def stack(fm, A, B, gm, C, D):
    """Tensor f: A -> B (below) with g: C -> D (above).

    The result runs from A.C to B.D; composite circle order is [lower's,
    upper's, new by min middle column].
    """
    return _bilinear(_memo(_stack_plan, A, B, C, D), fm, gm)


def _stack_plan(A, B, C, D):
    """The discs of f: A -> B and g: C -> D meet along the n middle points."""
    (mA, ncA), (mB, ncB), (mC, ncC), (mD, ncD) = A, B, C, D
    n = len(mA) // 2
    leastF, cF = _memo(_cycles, mA, mB)
    leastG, cG = _memo(_cycles, mC, mD)
    f0 = ncA + ncB
    nf = f0 + len(leastF)
    g0 = nf + ncC + ncD
    (m1, _), least1 = stacked_objects(A, C)
    (m2, _), least2 = stacked_objects(B, D)
    seams = [(f0 + cF[n + c], g0 + cG[c], 1) for c in range(n)]
    attach = list(range(ncA)) + [nf + i for i in range(ncC)]
    attach += [f0 + cF[n + c] for c in least1]
    attach += [ncA + j for j in range(ncB)] + [nf + ncC + j for j in range(ncD)]
    attach += [f0 + cF[n + c] for c in least2]
    attach += [f0 + cF[p] if p < n else g0 + cG[p] for p in _memo(_cycles, m1, m2)[0]]
    return _Plan(nf, g0 + len(leastG) - nf, seams, attach)


# ---------------------------------------------------------------------------
# stacking (vertical tangle composition)


def vcomp(mO, mP):
    """Stack tangle P on top of tangle O (matchings of the same 2n points).

    Returns (match, least): the composite matching, whose points are O's
    bottom 0..n-1 and P's top n..2n-1, and the least middle column of each
    loop closed in between, in increasing order.
    """
    n = len(mO) // 2
    match = [-1] * (2 * n)
    mid = [False] * n  # middle columns passed
    for start in range(2 * n):
        if match[start] >= 0:
            continue
        in_o, p = start < n, start  # up through O from the bottom, or down through P
        while True:
            q = (mO if in_o else mP)[p]
            if in_o and q >= n:  # O's top: on into P at column q - n
                mid[q - n], in_o, p = True, False, q - n
            elif not in_o and q < n:  # P's bottom: on into O at column q
                mid[q], in_o, p = True, True, n + q
            else:
                break
        match[start], match[q] = q, start
    least = []
    for c in range(n):
        if not mid[c]:
            least.append(c)
            d = c
            while True:
                e = mP[d]
                mid[d] = mid[e] = True
                d = mO[n + e] - n
                if d == c:
                    break
    return tuple(match), tuple(least)


def stacked_objects(O, P):
    """P on top of O: the composite object, its circles ordered [O's, P's,
    new], and the least middle column of each new circle."""
    m, least = _memo(vcomp, O[0], P[0])
    return (m, O[1] + P[1] + len(least)), least


# ---------------------------------------------------------------------------
# trace closure


def close_object(obj):
    """The circles of the trace closure, which joins top point n + c to
    bottom point c: (least point of each circle, circle of each point),
    numbered by least point."""
    match = obj[0]
    return _memo(_cycles, match, _vertical_match(len(match) // 2))


def close_morphism(fm, A, B):
    """The trace-closure functor on morphisms, into the disc basis of the
    closed objects' circles: A's, then B's, each ordered [own circles] +
    [closure circles by least point] (``close_object``)."""
    return _bilinear(_memo(_close_plan, A, B), fm, _PLAIN)


def _close_plan(A, B):
    """The discs of f: A -> B meet along the seams from point c to n + c."""
    (mA, ncA), (mB, ncB) = A, B
    n = len(mA) // 2
    least, cyc = _memo(_cycles, mA, mB)
    f0 = ncA + ncB
    seams = [(f0 + cyc[c], f0 + cyc[n + c], 1) for c in range(n)]
    attach = list(range(ncA)) + [f0 + cyc[p] for p in close_object(A)[0]]
    attach += [ncA + j for j in range(ncB)] + [f0 + cyc[p] for p in close_object(B)[0]]
    return _Plan(f0 + len(least), 0, seams, attach)


def _closed_entries(closed, k):
    """The matrix of a closed morphism with k source circles: one (source
    labels, target labels, coefficient) per disc pattern, with bit j set for
    label x.
    A plain cap takes x to 1, a dotted cap takes 1 to 1 (and both kill the
    other label), and a cup's dot is its target label."""
    full = (1 << k) - 1
    return [(full ^ (rm & full), rm >> k, c) for rm, c in closed.items()]


# ---------------------------------------------------------------------------
# the scan complex


class ScanComplex:
    """Complex of shifted crossingless tangles with cobordism differentials."""

    def __init__(self, n: int, object_cap: int):
        self.n = n
        self.object_cap = object_cap
        self.obj = {}  # uid -> (match, ncirc)
        self.h = {}
        self.q = {}
        self.out = {}  # src -> {tgt: morphism}
        self.inc = {}
        self._next = 0

    def add_object(self, obj, h, q) -> int:
        uid = self._next
        self._next += 1
        self.obj[uid] = obj
        self.h[uid] = h
        self.q[uid] = q
        self.out[uid] = {}
        self.inc[uid] = {}
        if len(self.obj) > self.object_cap:
            raise ResourceLimit(
                f"scan complex reached {len(self.obj)} objects, over its budget of "
                f"{self.object_cap} = max(generator limit // 8, 4096), the generator "
                f"limit coming from --limit or KHLEE_LIMIT")
        return uid

    def remove_object(self, uid):
        for tgt in list(self.out[uid]):
            del self.inc[tgt][uid]
        for src in list(self.inc[uid]):
            del self.out[src][uid]
        del self.obj[uid], self.h[uid], self.q[uid], self.out[uid], self.inc[uid]

    def set_entry(self, src, tgt, morphism):
        if morphism:
            self.out[src][tgt] = morphism
            self.inc[tgt][src] = morphism
        else:
            self.out[src].pop(tgt, None)
            self.inc[tgt].pop(src, None)

    def add_entry(self, src, tgt, morphism):
        cur = self.out[src].get(tgt)
        self.set_entry(src, tgt, _add_morphism(cur, morphism) if cur else morphism)


class TrackedColumn:
    """The tracked Lee columns: ``maps`` holds, for s_o and then s_obar
    (none when no chain is tracked), a dict from object uids to morphisms
    out of ``source`` at t = 1, the source being the oriented-resolution
    tangle of the scanned prefix with each closed Seifert circle capped.
    ``slot_sign`` is the Lee sign at each slot (row, column) of the braid
    diagram; the source's bottom points sit at row 0 and its top points at
    row ``rows``."""

    def __init__(self, n: int, slot_sign=None):
        self.n = n
        self.source = (_vertical_match(n), 0)
        self.maps = () if slot_sign is None else ({}, {})
        self.rows = 0
        self.slot_sign = slot_sign

    def boundary_signs(self, bottom):
        """The sign at each of the 2n points of a strip of the diagram from
        row ``bottom`` up to row ``rows``."""
        n = self.n
        return [self.slot_sign[(self.rows if p >= n else bottom, p % n + 1)]
                for p in range(2 * n)]

    def extend(self, lobj):
        """Stack the next letter's oriented resolution lobj on the source
        and cap each circle this closes, in the maps already pushed through
        the letter.  Letter row r has the slots (r - 1, c) at its bottom and
        (r, c) on top; a closed circle takes the sign at its least middle
        column, on the letter's bottom."""
        self.rows += 1
        match, least = _memo(vcomp, self.source[0], lobj[0])
        self.source = (match, 0)
        if not self.maps:
            return
        at = self.boundary_signs(self.rows - 1)
        for p, q in enumerate(lobj[0]):
            _one_sign({at[p], at[q]})
        if least:
            eps = [at[c] for c in least]
            for maps, flip in zip(self.maps, (1, -1)):
                for uid, f in list(maps.items()):
                    del maps[uid]
                    _accumulate(maps, uid, _cap_source(f, [flip * e for e in eps]), _add_morphism)


def _one_sign(signs):
    """The Lee sign shared by the ends of one piece of an oriented
    resolution, or by the points of one closure circle, given as the set of
    their signs."""
    if len(signs) != 1:
        raise KhleeError("could not match a scan circle to a Seifert circle")
    return signs.pop()


def _cap_source(m, eps):
    """Cap the source circles, bits 0..k-1 of m, with eps_j*1 + x on circle
    j: a plain cap weighs 1 and a dotted cap eps_j."""
    k = len(eps)
    out = {}
    for mask, c in m.items():
        for j, e in enumerate(eps):
            if mask >> j & 1:
                c *= e
        _accumulate(out, mask >> k, c)
    return out


def _is_unit_entry(cx: ScanComplex, src, tgt):
    """Entry equal to lambda * identity with lambda a nonzero rational.

    Objects are circle-free here, so the identity is the one term of mask 0,
    and equal q forces its power of t to be 0.
    """
    if cx.obj[src] != cx.obj[tgt] or cx.q[src] != cx.q[tgt]:
        return None
    m = cx.out[src][tgt]
    return m.get(0) if len(m) == 1 else None


def _eliminate(cx: ScanComplex, tracked: TrackedColumn):
    """Gaussian elimination of all unit entries, updating the tracked
    column through each retraction."""
    heap = []
    for src, row in cx.out.items():
        for tgt in row:
            lam = _is_unit_entry(cx, src, tgt)
            if lam is not None:
                heapq.heappush(heap, (len(row) * len(cx.inc[tgt]), src, tgt))
    while heap:
        _, b, c0 = heapq.heappop(heap)
        if b not in cx.out or c0 not in cx.out.get(b, {}):
            continue
        lam = _is_unit_entry(cx, b, c0)
        if lam is None:
            continue
        B_obj = cx.obj[b]
        fac = _quotient(-1, lam)
        outs = [(f, mf) for f, mf in cx.out[b].items() if f != c0]
        ins = [(e, me) for e, me in cx.inc[c0].items() if e != b]
        # tracked column retraction: r(b) = 0, r(c0) = -(1/lam) gamma
        for maps in tracked.maps:
            maps.pop(b, None)
            tc = maps.pop(c0, None)
            if tc:
                for f, mf in outs:
                    _accumulate(maps, f, _scale_morphism(
                        compose(tc, tracked.source, B_obj, mf, cx.obj[f]), fac), _add_morphism)
        cx.remove_object(b)
        cx.remove_object(c0)
        for e, me in ins:
            for f, mf in outs:
                corr = _scale_morphism(
                    compose(me, cx.obj[e], B_obj, mf, cx.obj[f]), fac)
                cx.add_entry(e, f, corr)
                if cx.out[e].get(f) and _is_unit_entry(cx, e, f) is not None:
                    heapq.heappush(heap, (len(cx.out[e]) * len(cx.inc[f]), e, f))


def _deloop_all(cx: ScanComplex, tracked: TrackedColumn):
    """Deloop every object with circles.  A circle is the empty set shifted
    by q + 1 (through a dotted cap and a plain cup) plus the empty set shifted
    by q - 1 (a plain cap and a dotted cup), so an object with k circles
    splits into 2^k circle-free copies, one per set ``up`` of circles taking
    q + 1."""
    for uid in [u for u, (_m, nc) in cx.obj.items() if nc]:
        match, k = cx.obj[uid]
        h, q = cx.h[uid], cx.q[uid]
        ins, outs = list(cx.inc[uid].items()), list(cx.out[uid].items())
        tms = [maps.pop(uid, None) for maps in tracked.maps]
        cx.remove_object(uid)
        for up in range(1 << k):
            new = cx.add_object((match, 0), h, q + 2 * up.bit_count() - k)
            down = (1 << k) - 1 ^ up
            for src, m_in in ins:
                cx.set_entry(src, new, _cap_circles(m_in, cx.obj[src][1], k, down))
            for tgt, m_out in outs:
                cx.set_entry(new, tgt, _cap_circles(m_out, 0, k, up))
            for maps, tm in zip(tracked.maps, tms):
                if tm:
                    _accumulate(maps, new, _cap_circles(tm, 0, k, down), _add_morphism)


def _cap_circles(m, pos, k, dots):
    """Cap (or cup) the k circles whose discs are bits pos.. of m.  A sphere
    is 1 with one dot and 0 with none or two, so the terms whose discs there
    carry exactly ``dots``, the circles with undotted caps, survive, with
    those bits removed."""
    low, full = (1 << pos) - 1, (1 << k) - 1
    return {mask & low | mask >> (pos + k) << pos: c
            for mask, c in m.items() if mask >> pos & full == dots}


# ---------------------------------------------------------------------------
# letters


def _vertical_match(n):
    return tuple(list(range(n, 2 * n)) + list(range(n)))


def _horizontal_match(n, col):
    """Cup-cap at 0-based columns col, col+1, vertical elsewhere."""
    m = list(_vertical_match(n))
    a, b = col, col + 1
    m[a], m[b] = b, a
    m[n + a], m[n + b] = n + b, n + a
    return tuple(m)


# ---------------------------------------------------------------------------
# the scan itself


def scan_word(d: OrientedDiagram, limit=None, chain=None, h_window=None):
    """Scan the diagram's braid word; return the closed free complex and,
    when a Lee ``chain`` of d is given, the tracked columns of (s_o, s_obar).

    ``h_window=(lo, hi)`` drops, after each letter's elimination, every object
    that can no longer reach a final homological degree in [lo, hi]: with p
    positive and m negative crossings still to come, those with h + p < lo or
    h - m > hi.
    The filtration level of a degree-hi cycle modulo d(C^{hi-1}) is then that
    of the full scan (README, "Windowed scan"); the homology is not.
    """
    if d.braid is None:
        raise KhleeError("the scan engine needs a braid-built diagram")
    clear_scan_caches()
    word = d.braid
    n = word.strands
    cap = max(generator_limit(limit) // 8, 4096)
    cx = ScanComplex(n, cap)
    tracked = TrackedColumn(n, None if chain is None else _slot_signs(chain))
    start = cx.add_object(tracked.source, 0, 0)
    for maps in tracked.maps:
        maps[start] = identity_morphism(tracked.source)

    or_choice = d.oriented_choice()
    cidx = 0  # crossing index of the next sigma letter
    if h_window is not None:
        lo, hi = h_window
        p = sum(1 for c in d.crossings if c.sign > 0)  # crossings still to come
        m = len(d.crossings) - p
    for letter in word.letters:
        if isinstance(letter, int):
            col = abs(letter) - 1
            sign = d.crossings[cidx].sign
            # 0-smoothing (A) is vertical for positive letters, horizontal
            # for negative letters; sign determines the grading shifts
            m_a = _vertical_match(n) if letter > 0 else _horizontal_match(n, col)
            m_b = _horizontal_match(n, col) if letter > 0 else _vertical_match(n)
            if sign > 0:
                shifts = ((0, 1), (1, 2))
            else:
                shifts = ((-1, -2), (0, -1))
            # which smoothing is the oriented one for this crossing
            orres = or_choice[cidx]
            cidx += 1
            letter_objects = [((m_a, 0), shifts[0]), ((m_b, 0), shifts[1])]
            # the saddle is an undotted disc on each boundary curve
            _tensor_letter(cx, tracked, letter_objects, _PLAIN, orres)
        else:
            m_e = _horizontal_match(n, letter[1] - 1)
            _tensor_letter(cx, tracked, [((m_e, 0), (0, 0))], None, 0)
        _deloop_all(cx, tracked)
        _eliminate(cx, tracked)
        if h_window is not None:
            # cut after the elimination, so that an object just out of reach
            # can still cancel its partner inside the window
            if isinstance(letter, int):
                if sign > 0:
                    p -= 1
                else:
                    m -= 1
            _cut_to_window(cx, tracked, lo - p, hi + m)

    return _close_and_reduce(cx, tracked)


def _cut_to_window(cx: ScanComplex, tracked: TrackedColumn, lo, hi):
    """Remove the objects of degree outside [lo, hi].

    {h >= lo} is a subcomplex and {h > hi} one too (d raises h by one), so
    the result is a subquotient of the complex.  The tracked Lee column sits
    in degree 0, so a window that cuts it is an error.
    """
    for uid in [u for u, h in cx.h.items() if not lo <= h <= hi]:
        if any(uid in maps for maps in tracked.maps):
            raise KhleeError(f"the tracked Lee column reached an object of degree "
                             f"{cx.h[uid]}, outside the scan window [{lo}, {hi}]")
        cx.remove_object(uid)


def _tensor_letter(cx: ScanComplex, tracked: TrackedColumn, letter_objects, saddle, orres):
    """Stack a one-letter complex on top of the current complex; the tracked
    column follows the letter's oriented resolution, letter_objects[orres].
    No entry joins an old object to a new one, so the old rows are read in
    place and dropped whole at the end."""
    n = cx.n
    old = list(cx.obj)
    new_uid = {}
    for uid in old:
        for ri, (lobj, (dh, dq)) in enumerate(letter_objects):
            E = stacked_objects(cx.obj[uid], lobj)[0]
            new_uid[(uid, ri)] = cx.add_object(E, cx.h[uid] + dh, cx.q[uid] + dq)

    # differentials: d(x . l) = d(x) . l + (-1)^{h(x)} x . d(l); stacking the
    # identity of the vertical tangle changes no morphism
    vertical = (_vertical_match(n), 0)
    for uid in old:
        for tgt, f in cx.out[uid].items():
            for ri, (lobj, _sh) in enumerate(letter_objects):
                cx.set_entry(new_uid[(uid, ri)], new_uid[(tgt, ri)],
                             f if lobj == vertical else
                             stack(f, cx.obj[uid], cx.obj[tgt], _PLAIN, lobj, lobj))
    if saddle is not None:
        for uid in old:
            obj = cx.obj[uid]
            stacked = stack(_PLAIN, obj, obj, saddle, letter_objects[0][0], letter_objects[1][0])
            if cx.h[uid] % 2:
                stacked = _scale_morphism(stacked, -1)
            cx.set_entry(new_uid[(uid, 0)], new_uid[(uid, 1)], stacked)

    # push the tracked columns through the tensor, then grow their source
    lobj_or = letter_objects[orres][0]
    for maps in tracked.maps:
        for uid in list(maps):
            f = maps.pop(uid)
            if lobj_or != vertical:
                f = stack(f, tracked.source, cx.obj[uid], _PLAIN, lobj_or, lobj_or)
            if f:
                maps[new_uid[(uid, orres)]] = f
    tracked.extend(lobj_or)

    # retire the old objects
    for uid in old:
        del cx.obj[uid], cx.h[uid], cx.q[uid], cx.out[uid], cx.inc[uid]


def _close_and_reduce(cx: ScanComplex, tracked: TrackedColumn):
    """Trace closure and full delooping: an object with k circles (its own
    and those of the closure) gives 2^k generators, one per labelling of
    the circles by 1 and x.  Each disc pattern is one nonzero entry of its
    own, written exact into ``gc.out`` as ``build_cube`` does, and
    ``reduction.entry_tables`` checks its q gap.  The closure joins slot
    (0, c) to slot (rows, c), so each closure circle of the tracked source
    must carry one sign."""
    gc = GradedComplex()
    width = {}
    gen_of = {}
    for uid in sorted(cx.obj):
        k = width[uid] = cx.obj[uid][1] + len(close_object(cx.obj[uid])[0])
        for mask in range(1 << k):
            gen_of[(uid, mask)] = gc.add_gen(cx.h[uid], cx.q[uid] + k - 2 * mask.bit_count())

    for src in sorted(cx.obj):
        for tgt, fm in cx.out[src].items():
            closed = close_morphism(fm, cx.obj[src], cx.obj[tgt])
            for ms, mt, c in _closed_entries(closed, width[src]):
                gc.out[gen_of[(src, ms)]][gen_of[(tgt, mt)]] = _exact(c)

    src_maps = [{uid: close_morphism(fm, tracked.source, cx.obj[uid]) for uid, fm in maps.items()}
                for maps in tracked.maps]
    signs = []
    if src_maps:
        least, cyc = close_object(tracked.source)
        at = tracked.boundary_signs(0)
        signs = [_one_sign({e for p, e in enumerate(at) if cyc[p] == i})
                 for i in range(len(least))]
    return _ScanClosure(gc, gen_of, src_maps, signs)


class _ScanClosure:
    """Closed scan output pending Lee-vector evaluation and final reduction."""

    def __init__(self, gc, gen_of, src_maps, closure_signs):
        self.gc = gc
        self.gen_of = gen_of
        self.src_maps = src_maps  # the closed maps of s_o and s_obar
        self.closure_signs = closure_signs  # per circle of the source's closure

    def lee_vectors(self):
        """Vectors for s_o and s_obar over the closed complex generators, as
        their values at t = 1: the closed maps with eps*1 + x capped on each
        closure circle of the source, eps its sign for s_o and minus its sign
        for s_obar."""
        vectors = []
        for maps, flip in zip(self.src_maps, (1, -1)):
            eps = [flip * e for e in self.closure_signs]
            vec = {}
            for uid, closed in maps.items():
                for mt, c in _cap_source(closed, eps).items():
                    _accumulate(vec, self.gen_of[(uid, mt)], c)
            vectors.append(vec)
        return tuple(vectors)


def _slot_signs(chain):
    """The Lee sign at each slot (row, column) of the braid diagram: that of
    the Seifert circle through it."""
    arcs = chain.diagram.arcs
    return {slot: eps for circle, eps in zip(chain.circles, chain.circle_signs)
            for a in circle for slot in arcs[a].slots}


def scan_levels(dd: OrientedDiagram, chain, limit=None, want_module=True):
    """Filtration levels of the Lee classes via the scanning engine."""
    from .lee import _reduced_levels_from_tracked

    # the level solve reads degrees -1 and 0 only; the module needs them all
    closure = scan_word(dd, limit=limit, chain=chain,
                        h_window=None if want_module else (-1, 0))
    vo, vbar = closure.lee_vectors()
    red, (vo, vbar) = scan_reduce(closure.gc, tracked=[vo, vbar])
    levels = _reduced_levels_from_tracked(red, vo, vbar)
    summary = None
    if want_module:
        summary = homology_qt(red)
    return levels, summary


def scan_complex(d: OrientedDiagram, limit=None) -> GradedComplex:
    """The reduced deformed complex of a braid closure, via scanning."""
    closure = scan_word(d, limit=limit)
    return scan_reduce(closure.gc)
