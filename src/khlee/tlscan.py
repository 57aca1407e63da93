"""Scanning engine for braid-closure diagrams.

The word is consumed letter by letter.  The state is a chain complex of
crossingless (n, n)-tangles (planar matchings with grading shifts);
morphisms are Q[t]-combinations of dotted cobordisms, stored as
(partition of boundary curves, dotted blocks) basis elements with the
relations: two dots on a component = t, handle = 2 dots with coefficient 2,
dotless sphere = 0, dotted sphere = 1.  After each letter the complex is
delooped and Gaussian-eliminated, which keeps it small even for long torus
words.  The trace closure at the end turns everything into free
Q[t]-modules: one evaluator (``_apply_closed``) reads a closed cobordism
off as a map of tensor powers of A = Q[t][x]/(x^2 - t), for the closed
differential and for the Lee vectors alike.

The canonical Lee cycle survives the whole process through a tracked
retraction column, a ``TrackedColumn``: morphisms from its ``source``, the
oriented-resolution tangle of the scanned prefix, into the current objects,
plus the boundary slots of the source's arcs and circles, by which the
closure matches its circles to the Seifert circles and their Lee signs.
All maps are q-homogeneous, so at t=1 the tracked image keeps the
filtration level of the class.
"""

from __future__ import annotations

import functools
import heapq

from . import qt
from .complexes import GradedComplex
from .diagrams import OrientedDiagram
from .errors import KhleeError, ResourceLimit
from .reduction import _exact, _quotient, scan_reduce

# Morphism coefficients are Q[t] dicts like ``qt``'s, but kept as Python ints
# wherever they are integral; only ``_eliminate`` can divide by a non-unit.
# ``GradedComplex.add_entry`` and ``scan_reduce`` hand out Fractions again.
_ONE = {0: 1}

# ---------------------------------------------------------------------------
# curve systems of cobordisms between objects (match, ncirc)

# One scan of T(5,5) asks for ~1,900 distinct curve systems; the bound keeps
# a process that runs many scans from growing the cache without limit.
MATCH_CYCLES_CACHE = 4096


@functools.lru_cache(maxsize=MATCH_CYCLES_CACHE)
def match_cycles(m1: tuple, nc1: int, m2: tuple, nc2: int):
    """Boundary curves of a cobordism (m1, nc1) -> (m2, nc2): cycles of the
    glued matching graph plus source/target circles.

    Returns (ids, point2cyc); ids are ("b", min point), ("s", i), ("t", j).
    """
    seen = set()
    ids = []
    point2cyc = {}
    for p0 in range(len(m1)):
        if p0 in seen:
            continue
        orbit = []
        p = p0
        while p not in seen:
            seen.add(p)
            q = m1[p]
            seen.add(q)
            orbit.append(p)
            orbit.append(q)
            p = m2[q]
        cid = ("b", min(orbit))
        for p in orbit:
            point2cyc[p] = cid
        ids.append(cid)
    ids.sort(key=lambda c: c[1])
    ids.extend(("s", i) for i in range(nc1))
    ids.extend(("t", j) for j in range(nc2))
    return tuple(ids), point2cyc


def identity_morphism(obj):
    match, ncirc = obj
    ids, _ = match_cycles(match, ncirc, match, ncirc)
    blocks = [frozenset((cid,)) for cid in ids if cid[0] == "b"]
    for i in range(ncirc):
        blocks.append(frozenset((("s", i), ("t", i))))
    return {(frozenset(blocks), frozenset()): _ONE}


# Gluings and stackings are pure functions of their combinatorial arguments,
# so they are memoized; both caches are cleared when a scan starts
# (``clear_scan_caches``).  Memory sets the bounds: a glue entry holds a fresh
# basis of frozensets (~1.5 kB).  On the scan-braids benchmark, 512 entries
# keep the peak memory at the unmemoized level and get 50% hits (72% is the
# unbounded rate, at +15 MB); 256 stackings already give every possible hit.
GLUE_CACHE = 512
VCOMP_CACHE = 256


def _evaluate_surface(chi, dots, joins, attach):
    """Glue surface pieces and read the result off as a basis cobordism.

    Piece i has Euler characteristic chi[i] and dots[i] dots (both lists are
    consumed); joins: (piece, piece, chi cost) seams, 1 for an arc and 0 for
    a circle; attach: (piece, boundary cycle id) for each boundary curve of
    the result.  A handle is two dots with a factor 2, two dots are t, and a
    closed component evaluates to t^((d-1)/2) with d odd and to 0 with d
    even.  Returns (coeff, t-exponent, (partition, dotted)), or None.
    """
    parent = list(range(len(chi)))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for i, j, cost in joins:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            chi[rj] += chi[ri]
            dots[rj] += dots[ri]
        chi[rj] -= cost
    members = {}
    for piece, cid in attach:
        members.setdefault(find(piece), []).append(cid)

    coeff = 1
    texp = 0
    blocks = []
    dotted = []
    for root, c in enumerate(chi):
        if parent[root] != root:
            continue
        boundary = members.get(root, ())
        genus2 = 2 - c - len(boundary)
        if genus2 % 2 or genus2 < 0:
            raise KhleeError("impossible genus in cobordism gluing")
        g = genus2 // 2
        d = dots[root] + g
        coeff <<= g
        if not boundary:
            if d % 2 == 0:
                return None  # sphere with an even number of dots
            texp += (d - 1) // 2
            continue
        texp += d // 2
        block = frozenset(boundary)
        blocks.append(block)
        if d % 2:
            dotted.append(block)
    return coeff, texp, (frozenset(blocks), frozenset(dotted))


def clear_scan_caches():
    """Empty the per-scan memos of ``_glue_pair`` and ``vcomp``."""
    _glue_pair.cache_clear()
    vcomp.cache_clear()


@functools.lru_cache(maxsize=GLUE_CACHE)
def _glue_pair(pf, df, pg, dg, seams, result_members):
    """Glue two basis cobordisms along seams.

    seams: tuple of (f cycle id, g cycle id, chi cost); result_members: tuple
    of (result cycle id, "F"/"G", side cycle id).  Returns (coeff, t-exponent,
    (partition, dotted)), the glued basis times coeff * t^exponent, or None
    when a closed component dies.
    """
    nf = len(pf)
    lookF = {cid: i for i, block in enumerate(pf) for cid in block}
    lookG = {cid: nf + j for j, block in enumerate(pg) for cid in block}
    chi = [2 - len(block) for block in pf] + [2 - len(block) for block in pg]
    dots = [1 if block in df else 0 for block in pf] + [1 if block in dg else 0 for block in pg]
    joins = [(lookF[fcid], lookG[gcid], cost) for fcid, gcid, cost in seams]
    attach = [(lookF[scid] if side == "F" else lookG[scid], rcid)
              for rcid, side, scid in result_members]
    return _evaluate_surface(chi, dots, joins, attach)


def _bilinear(fm, gm, seams, result_members):
    out = {}
    for (pf, df), cf in fm.items():
        for (pg, dg), cg in gm.items():
            glued = _glue_pair(pf, df, pg, dg, seams, result_members)
            if glued is None:
                continue
            coeff, texp, basis = glued
            acc = out.get(basis)
            if acc is None:
                acc = out[basis] = {}
            for e1, c1 in cf.items():
                for e2, c2 in cg.items():
                    e = e1 + e2 + texp
                    s = acc.get(e, 0) + c1 * c2 * coeff
                    if s:
                        acc[e] = s
                    else:
                        del acc[e]
            if not acc:
                del out[basis]
    return out


def _accumulate(acc, key, poly):
    """acc[key] += poly, dropping the key when the sum is zero."""
    s = qt.add(acc.get(key, {}), poly)
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def _add_morphism(a, b):
    out = dict(a)
    for basis, c in b.items():
        _accumulate(out, basis, c)
    return out


def _scale_morphism(m, c):
    """m times a nonzero scalar c, with integral coefficients kept as ints."""
    return {basis: {e: _exact(v * c) for e, v in p.items()} for basis, p in m.items()}


def compose(fm, A, B, gm, C):
    """g after f, for f: A -> B and g: B -> C."""
    mA, ncA = A
    mB, ncB = B
    mC, ncC = C
    _, p2cF = match_cycles(mA, ncA, mB, ncB)
    _, p2cG = match_cycles(mB, ncB, mC, ncC)
    cyR_ids, _ = match_cycles(mA, ncA, mC, ncC)

    seams = []
    for p in range(len(mB)):
        if p < mB[p]:
            seams.append((p2cF[p], p2cG[p], 1))
    for i in range(ncB):
        seams.append((("t", i), ("s", i), 0))

    result_members = []
    for rcid in cyR_ids:
        if rcid[0] == "b":
            result_members.append((rcid, "F", p2cF[rcid[1]]))
        elif rcid[0] == "s":
            result_members.append((rcid, "F", rcid))
        else:
            result_members.append((rcid, "G", rcid))
    return _bilinear(fm, gm, tuple(seams), tuple(result_members))


# ---------------------------------------------------------------------------
# stacking (vertical tangle composition)


@functools.lru_cache(maxsize=VCOMP_CACHE)
def vcomp(mO: tuple, mP: tuple, n: int):
    """Stack tangle P on top of tangle O (both on n strands).

    Returns (match, circles, arc_traces) where circles is a tuple of
    (middle-column set, trace) for newly closed loops and arc_traces pairs
    each outer arc (frozenset pair) with its tuple of ("O"/"P", point pair)
    constituents.  Result points: bottom 0..n-1 = O's bottom, top n..2n-1 =
    P's top.
    """

    def step(side, p):
        """One arc traversal; returns (next side, next point, trace, done)."""
        if side == "O":
            q = mO[p]
            tr = ("O", frozenset((p, q)))
            if q >= n:
                return "P", q - n, tr, False  # cross the middle seam
            return "out", q, tr, True  # exits at the bottom
        q = mP[p]
        tr = ("P", frozenset((p, q)))
        if q < n:
            return "O", q + n, tr, False
        return "out", q, tr, True  # exits at the top (ids already n..2n-1)

    match = {}
    arc_traces = {}
    visited_mid = set()
    claimed = set()
    starts = [("O", p, p) for p in range(n)] + [("P", p, p) for p in range(n, 2 * n)]
    for side0, p0, rid0 in starts:
        if rid0 in claimed:
            continue
        side, p = side0, p0
        trace = []
        while True:
            nside, np_, tr, done = step(side, p)
            trace.append(tr)
            if done:
                rid1 = np_
                break
            side, p = nside, np_
            visited_mid.add(p if side == "P" else p - n)
        match[rid0] = rid1
        match[rid1] = rid0
        claimed.add(rid0)
        claimed.add(rid1)
        arc_traces[frozenset((rid0, rid1))] = tuple(trace)

    circles = []
    for c in range(n):
        if c in visited_mid:
            continue
        mids = {c}
        visited_mid.add(c)
        trace = []
        side, p = "P", c
        while True:
            nside, np_, tr, done = step(side, p)
            assert not done, "a closed loop escaped to the boundary"
            trace.append(tr)
            side, p = nside, np_
            mid = p if side == "P" else p - n
            if side == "P" and p == c:
                break
            mids.add(mid)
            visited_mid.add(mid)
    # note: the loop above always terminates because the walk is a closed orbit
        circles.append((frozenset(mids), tuple(trace)))
    circles.sort(key=lambda ct: min(ct[0]))
    mt = tuple(match[i] for i in range(2 * n))
    return mt, tuple(circles), tuple(arc_traces.items())


def stacked_objects(O, P, n):
    """(match, ncirc) of the vertical composite, plus the new circles and
    the arc traces of ``vcomp``."""
    mO, ncO = O
    mP, ncP = P
    m, circles, traces = vcomp(mO, mP, n)
    return (m, ncO + ncP + len(circles)), circles, traces


def stack(fm, A, B, gm, C, D, n):
    """Tensor f: A -> B (below) with g: C -> D (above).

    The result runs from A.C to B.D; composite circle order is [lower's,
    upper's, new by min middle column].
    """
    mA, ncA = A
    mC, ncC = C
    mB, ncB = B
    mD, ncD = D
    _, p2cF = match_cycles(mA, ncA, mB, ncB)
    _, p2cG = match_cycles(mC, ncC, mD, ncD)
    E1, circ1, _ = stacked_objects(A, C, n)
    E2, circ2, _ = stacked_objects(B, D, n)
    cyR_ids, _ = match_cycles(E1[0], E1[1], E2[0], E2[1])

    seams = [(p2cF[n + c], p2cG[c], 1) for c in range(n)]

    def src_ref(i):
        if i < ncA:
            return ("F", ("s", i))
        if i < ncA + ncC:
            return ("G", ("s", i - ncA))
        mids, _tr = circ1[i - ncA - ncC]
        return ("F", p2cF[n + min(mids)])

    def tgt_ref(j):
        if j < ncB:
            return ("F", ("t", j))
        if j < ncB + ncD:
            return ("G", ("t", j - ncB))
        mids, _tr = circ2[j - ncB - ncD]
        return ("F", p2cF[n + min(mids)])

    result_members = []
    for rcid in cyR_ids:
        if rcid[0] == "b":
            p = rcid[1]
            if p < n:
                result_members.append((rcid, "F", p2cF[p]))
            else:
                result_members.append((rcid, "G", p2cG[p]))
        elif rcid[0] == "s":
            side, ref = src_ref(rcid[1])
            result_members.append((rcid, side, ref))
        else:
            side, ref = tgt_ref(rcid[1])
            result_members.append((rcid, side, ref))
    return _bilinear(fm, gm, tuple(seams), tuple(result_members))


# ---------------------------------------------------------------------------
# trace closure


def close_object(obj, n):
    """Circles of the trace closure, as frozensets of boundary points."""
    match, _nc = obj
    seen = set()
    circles = []
    for p0 in range(2 * n):
        if p0 in seen:
            continue
        orbit = set()
        p = p0
        while p not in orbit:
            orbit.add(p)
            q = match[p]
            orbit.add(q)
            p = q - n if q >= n else q + n
        seen |= orbit
        circles.append(frozenset(orbit))
    circles.sort(key=min)
    return circles


def close_morphism(fm, A, B, n, ciA, ciB):
    """The trace-closure functor on morphisms; ciA and ciB are the closure
    circles of A and B (``close_object``).

    Resulting objects are circle collections, ordered [own circles] +
    [closure circles by min point].
    """
    mA, ncA = A
    mB, ncB = B
    _, p2cF = match_cycles(mA, ncA, mB, ncB)

    seams = [(p2cF[c], p2cF[n + c]) for c in range(n)]
    boundary = [(("s", i), ("s", i)) for i in range(ncA)]
    boundary += [(("s", ncA + k), p2cF[min(circ)]) for k, circ in enumerate(ciA)]
    boundary += [(("t", j), ("t", j)) for j in range(ncB)]
    boundary += [(("t", ncB + k), p2cF[min(circ)]) for k, circ in enumerate(ciB)]

    out = {}
    for (pf, df), cf in fm.items():
        lookF = {cid: i for i, block in enumerate(pf) for cid in block}
        glued = _evaluate_surface([2 - len(block) for block in pf],
                                  [1 if block in df else 0 for block in pf],
                                  [(lookF[a], lookF[b], 1) for a, b in seams],
                                  [(lookF[fcid], rcid) for rcid, fcid in boundary])
        if glued is None:
            continue
        coeff, texp, basis = glued
        _accumulate(out, basis, {e + texp: v * coeff for e, v in cf.items()})
    return out


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
        cur = self.out[src].get(tgt, {})
        self.set_entry(src, tgt, _add_morphism(cur, morphism))


class TrackedColumn:
    """The tracked Lee column: ``maps`` sends object uids to morphisms from
    ``source``, the oriented-resolution tangle of the scanned prefix.

    ``arc_slots`` (arc point pair -> slot set) and ``circle_slots`` (one slot
    set per closed source circle, in order of creation) record which slots
    (row, column) of the braid diagram each piece of the source covers.
    """

    def __init__(self, n: int):
        self.n = n
        self.source = (_vertical_match(n), 0)
        self.maps = {}
        self.rows = 0
        self.arc_slots = {frozenset((c, n + c)): frozenset(((0, c + 1),)) for c in range(n)}
        self.circle_slots = []

    def add(self, uid, morphism):
        """maps[uid] += morphism, dropping the entry when the sum is zero."""
        merged = _add_morphism(self.maps.get(uid, {}), morphism)
        if merged:
            self.maps[uid] = merged
        else:
            self.maps.pop(uid, None)

    def extend(self, lobj):
        """Stack the next letter's oriented resolution lobj on the source.
        Letter row r has the slots (r - 1, c) at its bottom and (r, c) on top."""
        n = self.n
        self.rows += 1
        slot = [(self.rows - 1, c + 1) for c in range(n)] + [(self.rows, c + 1) for c in range(n)]
        lslots = {frozenset((p, q)): frozenset((slot[p], slot[q])) for p, q in enumerate(lobj[0])}

        def slots(trace):
            return frozenset().union(*((self.arc_slots if side == "O" else lslots)[arcs]
                                       for side, arcs in trace))

        self.source, circles, traces = stacked_objects(self.source, lobj, n)
        self.circle_slots += [slots(trace) for _mids, trace in circles]
        self.arc_slots = {pair: slots(trace) for pair, trace in traces}

    def closed_circle_slots(self):
        """Slot sets of the source's circles after the trace closure, in
        ``close_morphism``'s order: own circles, then closure circles."""
        match = self.source[0]
        return self.circle_slots + [
            frozenset().union(*(self.arc_slots[frozenset((p, match[p]))] for p in circ))
            for circ in close_object(self.source, self.n)]


def _is_unit_entry(cx: ScanComplex, src, tgt):
    """Entry equal to lambda * identity with lambda a nonzero rational."""
    if cx.obj[src] != cx.obj[tgt] or cx.q[src] != cx.q[tgt]:
        return None
    m = cx.out[src][tgt]
    if len(m) != 1:
        return None
    ident = identity_morphism(cx.obj[src])
    (basis,) = ident.keys()
    c = m.get(basis)
    if c is None or len(c) != 1 or 0 not in c:
        return None
    return c[0]


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
        tracked.maps.pop(b, None)
        tc = tracked.maps.pop(c0, None)
        if tc:
            for f, mf in outs:
                tracked.add(f, _scale_morphism(
                    compose(tc, tracked.source, B_obj, mf, cx.obj[f]), fac))
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
    """Split every object containing circles via the delooping isomorphism."""
    queue = [uid for uid, (m, nc) in cx.obj.items() if nc > 0]
    while queue:
        uid = queue.pop()
        if uid not in cx.obj:
            continue
        match, nc = cx.obj[uid]
        if nc == 0:
            continue
        j = nc - 1  # deloop the last circle; earlier indices keep their names
        inner = (match, nc)
        outer = (match, nc - 1)
        # cap / cup morphisms between inner and outer: outer's identity plus
        # a disc on circle j
        ((base, _),) = identity_morphism(outer)
        cap, cup = frozenset((("s", j),)), frozenset((("t", j),))
        p_plus = {(base | {cap}, frozenset((cap,))): _ONE}   # dotted cap
        p_minus = {(base | {cap}, frozenset()): _ONE}        # plain cap
        i_plus = {(base | {cup}, frozenset()): _ONE}         # plain cup
        i_minus = {(base | {cup}, frozenset((cup,))): _ONE}  # dotted cup

        h, q = cx.h[uid], cx.q[uid]
        up = cx.add_object(outer, h, q + 1)
        dn = cx.add_object(outer, h, q - 1)
        for src, m_in in list(cx.inc[uid].items()):
            cx.add_entry(src, up, compose(m_in, cx.obj[src], inner, p_plus, outer))
            cx.add_entry(src, dn, compose(m_in, cx.obj[src], inner, p_minus, outer))
        for tgt, m_out in list(cx.out[uid].items()):
            cx.add_entry(up, tgt, compose(i_plus, outer, inner, m_out, cx.obj[tgt]))
            cx.add_entry(dn, tgt, compose(i_minus, outer, inner, m_out, cx.obj[tgt]))
        t = tracked.maps.pop(uid, None)
        if t:
            tracked.add(up, compose(t, tracked.source, inner, p_plus, outer))
            tracked.add(dn, compose(t, tracked.source, inner, p_minus, outer))
        cx.remove_object(uid)
        if nc - 1 > 0:
            queue.append(up)
            queue.append(dn)


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


def _saddle(src_match, tgt_match, n):
    ids, _ = match_cycles(src_match, 0, tgt_match, 0)
    blocks = frozenset(frozenset((cid,)) for cid in ids)
    return {(blocks, frozenset()): _ONE}


# ---------------------------------------------------------------------------
# the scan itself


def scan_word(d: OrientedDiagram, limit=None, track_lee: bool = True, h_window=None):
    """Scan the diagram's braid word; return the reduced free complex and,
    when track_lee, the Lee cycle images for (s_o, s_obar).

    ``h_window=(lo, hi)`` drops, after each letter's elimination, every object
    that can no longer reach a final homological degree in [lo, hi]: with p
    positive and m negative crossings still to come, those with h + p < lo or
    h - m > hi.
    The filtration level of a degree-hi cycle modulo d(C^{hi-1}) is then that
    of the full scan (README, "Windowed scan"); the homology is not.
    """
    from .cube import generator_limit

    if d.braid is None:
        raise KhleeError("the scan engine needs a braid-built diagram")
    clear_scan_caches()
    word = d.braid
    n = word.strands
    cap = max(generator_limit(limit) // 8, 4096)
    cx = ScanComplex(n, cap)
    tracked = TrackedColumn(n)
    tracked.add(cx.add_object(tracked.source, 0, 0), identity_morphism(tracked.source))

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
            _tensor_letter(cx, tracked, letter_objects, _saddle(m_a, m_b, n), orres)
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

    return _close_and_reduce(cx, tracked, track_lee)


def _cut_to_window(cx: ScanComplex, tracked: TrackedColumn, lo, hi):
    """Remove the objects of degree outside [lo, hi].

    {h >= lo} is a subcomplex and {h > hi} one too (d raises h by one), so
    the result is a subquotient of the complex.  The tracked Lee column sits
    in degree 0, so a window that cuts it is an error.
    """
    for uid in [u for u, h in cx.h.items() if not lo <= h <= hi]:
        if uid in tracked.maps:
            raise KhleeError(f"the tracked Lee column reached an object of degree "
                             f"{cx.h[uid]}, outside the scan window [{lo}, {hi}]")
        cx.remove_object(uid)


def _tensor_letter(cx: ScanComplex, tracked: TrackedColumn, letter_objects, saddle, orres):
    """Stack a one-letter complex on top of the current complex; the tracked
    column follows the letter's oriented resolution, letter_objects[orres]."""
    n = cx.n
    old_objects = dict(cx.obj)
    old_h, old_q = dict(cx.h), dict(cx.q)
    old_out = {u: dict(r) for u, r in cx.out.items()}

    new_uid = {}
    for uid, obj in old_objects.items():
        for ri, (lobj, (dh, dq)) in enumerate(letter_objects):
            E, _circles, _tr = stacked_objects(obj, lobj, n)
            new_uid[(uid, ri)] = cx.add_object(E, old_h[uid] + dh, old_q[uid] + dq)

    # differentials: d(x . l) = d(x) . l + (-1)^{h(x)} x . d(l)
    letter_idents = [identity_morphism(lobj) for lobj, _sh in letter_objects]
    for uid, rowm in old_out.items():
        for tgt, f in rowm.items():
            for ri, (lobj, _sh) in enumerate(letter_objects):
                cx.add_entry(new_uid[(uid, ri)], new_uid[(tgt, ri)],
                             stack(f, old_objects[uid], old_objects[tgt],
                                   letter_idents[ri], lobj, lobj, n))
    if saddle is not None:
        for uid, obj in old_objects.items():
            stacked = stack(identity_morphism(obj), obj, obj,
                            saddle, letter_objects[0][0], letter_objects[1][0], n)
            if old_h[uid] % 2:
                stacked = _scale_morphism(stacked, -1)
            cx.add_entry(new_uid[(uid, 0)], new_uid[(uid, 1)], stacked)

    # retire old objects
    for uid in old_objects:
        cx.remove_object(uid)

    # push the tracked column through the tensor, then grow its source
    lobj_or = letter_objects[orres][0]
    ident_or = identity_morphism(lobj_or)
    old_maps, tracked.maps = tracked.maps, {}
    for uid, f in old_maps.items():
        tracked.add(new_uid[(uid, orres)],
                    stack(f, tracked.source, old_objects[uid], ident_or, lobj_or, lobj_or, n))
    tracked.extend(lobj_or)


def _close_and_reduce(cx: ScanComplex, tracked: TrackedColumn, track_lee):
    """Trace closure and full delooping: an object with k circles (its own
    and those of the closure) gives 2^k generators, one per labelling of
    the circles by 1 and x."""
    n = cx.n
    gc = GradedComplex()
    obj_circles = {uid: close_object(obj, n) for uid, obj in cx.obj.items()}
    width = {}
    gen_of = {}
    for uid in sorted(cx.obj):
        k = width[uid] = cx.obj[uid][1] + len(obj_circles[uid])
        for mask in range(1 << k):
            qshift = sum(1 if not (mask >> j) & 1 else -1 for j in range(k))
            gen_of[(uid, mask)] = gc.add_gen(cx.h[uid], cx.q[uid] + qshift)

    labels = ((_ONE, qt.ZERO), (qt.ZERO, _ONE))  # 1 and x
    for src in sorted(cx.obj):
        k = width[src]
        for tgt, fm in cx.out[src].items():
            closed = close_morphism(fm, cx.obj[src], cx.obj[tgt], n,
                                    obj_circles[src], obj_circles[tgt])
            for ms in range(1 << k):
                image = _apply_closed(closed, [labels[(ms >> j) & 1] for j in range(k)])
                for mt, poly in image.items():
                    for e, c in poly.items():
                        gc.add_entry(gen_of[(src, ms)], gen_of[(tgt, mt)], c, e)

    src_maps = {}
    if track_lee:
        src_closed = close_object(tracked.source, n)
        for uid, fm in tracked.maps.items():
            src_maps[uid] = close_morphism(fm, tracked.source, cx.obj[uid], n,
                                           src_closed, obj_circles[uid])
    return _ScanClosure(gc, gen_of, src_maps, tracked.closed_circle_slots())


def _apply_closed(closed, elems):
    """Evaluate a closed cobordism on a tensor product of elements of
    A = Q[t][x]/(x^2 - t).

    closed: {(partition, dotted): Qt} from ``close_morphism``; elems: one
    element (a, b) = a*1 + b*x per source circle.  Each block multiplies the
    elements on its source circles, times x when it is dotted, and
    comultiplies the product onto its target circles.  Returns {target label
    mask: Qt}, with bit j set when target circle j carries x.
    """
    out = {}
    for (blocks, dotted), coeff in closed.items():
        results = {0: _ONE}  # partial target mask -> Qt
        for block in blocks:
            srcs = sorted(c[1] for c in block if c[0] == "s")
            a, b = elems[srcs[0]] if srcs else (_ONE, qt.ZERO)
            for s in srcs[1:]:
                c, d = elems[s]
                a, b = (qt.add(qt.mul(a, c), qt.shift(qt.mul(b, d), 1)),
                        qt.add(qt.mul(a, d), qt.mul(b, c)))
            if block in dotted:
                a, b = qt.shift(b, 1), a
            tgts = sorted(c[1] for c in block if c[0] == "t")
            outs = _comul_many(a, b, len(tgts))
            new = {}
            for tm, cpart in results.items():
                for labs, cc in outs.items():
                    bits = sum(1 << t for lab, t in zip(labs, tgts) if lab)
                    _accumulate(new, tm | bits, qt.mul(cpart, cc))
            results = new
            if not results:
                break
        for tm, cpart in results.items():
            _accumulate(out, tm, qt.mul(cpart, coeff))
    return out


def _comul_many(a, b, k):
    """Iterated comultiplication of a*1 + b*x to k outputs.

    Returns {tuple of labels: Qt}.  k = 0 is the counit eps."""
    if k == 0:
        return {(): b} if b else {}
    # delta(1) = 1(x)x + x(x)1 ; delta(x) = x(x)x + t 1(x)1, applied k-1
    # times; states map emitted label prefixes to the remaining element
    cur = {(): (a, b)}
    for step in range(k - 1):
        new = {}
        for labels, (aa, bb) in cur.items():
            # delta(aa*1 + bb*x) = aa (1 x + x 1) + bb (x x + t 1 1)
            # organize by the label emitted at this position:
            # emit 0 (label 1): remainder aa * x + bb*t * 1
            rem0 = (qt.shift(bb, 1), aa)
            # emit 1 (label x): remainder aa * 1 + bb * x
            rem1 = (aa, bb)
            for lab, rem in ((0, rem0), (1, rem1)):
                if rem[0] or rem[1]:
                    key = labels + (lab,)
                    if key in new:
                        oa, ob = new[key]
                        new[key] = (qt.add(oa, rem[0]), qt.add(ob, rem[1]))
                    else:
                        new[key] = rem
        cur = new
    result = {}
    for labels, (aa, bb) in cur.items():
        if aa:
            result[labels + (0,)] = aa
        if bb:
            result[labels + (1,)] = bb
    return result


class _ScanClosure:
    """Closed scan output pending Lee-vector evaluation and final reduction."""

    def __init__(self, gc, gen_of, src_maps, source_circle_slots):
        self.gc = gc
        self.gen_of = gen_of
        self.src_maps = src_maps
        self.source_circle_slots = source_circle_slots

    def lee_vectors(self, circle_sign_of_slotset):
        """Vectors for s_o and s_obar over the closed complex generators: the
        tracked maps applied to eps*1 + x on each Seifert circle, eps its
        sign for s_o and minus its sign for s_obar.

        circle_sign_of_slotset: function mapping a slot frozenset to +-1."""
        signs = [circle_sign_of_slotset(ss) for ss in self.source_circle_slots]
        vectors = []
        for flip in (1, -1):
            elems = [({0: eps * flip}, _ONE) for eps in signs]
            vec = {}
            for uid, closed in self.src_maps.items():
                for tm, poly in _apply_closed(closed, elems).items():
                    _accumulate(vec, self.gen_of[(uid, tm)], poly)
            vectors.append(vec)
        return tuple(vectors)


def scan_levels(dd: OrientedDiagram, chain, limit=None, want_module=True):
    """Filtration levels of the Lee classes via the scanning engine."""
    from .lee import _reduced_levels_from_tracked

    # the level solve reads degrees -1 and 0 only; the module needs them all
    closure = scan_word(dd, limit=limit, track_lee=True,
                        h_window=None if want_module else (-1, 0))
    res = dd.resolve(dd.oriented_choice())
    slot2sign = {}
    for circ, sgn in zip(res.circles, chain.circle_signs):
        for slot in circ.slots:
            slot2sign[slot] = sgn

    def sign_of(slotset):
        hits = {slot2sign[s] for s in slotset if s in slot2sign}
        if len(hits) != 1:
            raise KhleeError("could not match a scan circle to a Seifert circle")
        return hits.pop()

    vo, vbar = closure.lee_vectors(sign_of)
    red, (vo, vbar) = scan_reduce(closure.gc, tracked=[vo, vbar])
    levels = _reduced_levels_from_tracked(red, vo, vbar)
    summary = None
    if want_module:
        from .smith import homology_qt
        summary = homology_qt(red)
    return levels, summary


def scan_complex(d: OrientedDiagram, limit=None) -> GradedComplex:
    """The reduced deformed complex of a braid closure, via scanning."""
    closure = scan_word(d, limit=limit, track_lee=False)
    return scan_reduce(closure.gc)
