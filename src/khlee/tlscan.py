"""Scanning engine for braid-closure diagrams.

The word is consumed letter by letter.  The state is a chain complex of
crossingless (n, n)-tangles (planar matchings with grading shifts);
morphisms are Q[t]-combinations of dotted cobordisms, stored as
(partition of boundary curves, dotted blocks) basis elements with the
relations: two dots on a component = t, handle = 2 dots with coefficient 2,
dotless sphere = 0, dotted sphere = 1.  After each letter the complex is
delooped and Gaussian-eliminated, which keeps it small even for long torus
words.  The trace closure at the end turns everything into free
Q[t]-modules.

The canonical Lee cycle survives the whole process through a tracked
retraction column (morphisms from the oriented-resolution tangle of the
scanned prefix into the current objects).  All maps are q-homogeneous, so
at t=1 the tracked image keeps the filtration level of the class.
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


def _add_morphism(a, b):
    out = dict(a)
    for basis, c in b.items():
        s = qt.add(out.get(basis, {}), c)
        if s:
            out[basis] = s
        else:
            out.pop(basis, None)
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

    Returns (morphism, E1, E2) with E1 = A.C and E2 = B.D; composite circle
    order is [lower's, upper's, new by min middle column].
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
    return _bilinear(fm, gm, tuple(seams), tuple(result_members)), E1, E2


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


def close_morphism(fm, A, B, n):
    """The trace-closure functor on morphisms.

    Resulting objects are circle collections, ordered [own circles] +
    [closure circles by min point].
    """
    mA, ncA = A
    mB, ncB = B
    _, p2cF = match_cycles(mA, ncA, mB, ncB)
    ciA = close_object(A, n)
    ciB = close_object(B, n)

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
        s = qt.add(out.get(basis, {}), {e + texp: v * coeff for e, v in cf.items()})
        if s:
            out[basis] = s
        else:
            out.pop(basis, None)
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


def _eliminate(cx: ScanComplex, tracked: dict):
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
        tb = tracked.pop(b, None)
        tc = tracked.pop(c0, None)
        if tc:
            for f, mf in outs:
                corr = _scale_morphism(
                    compose(tc, tracked["__source__"], B_obj, mf, cx.obj[f]), fac)
                cur = tracked.get(f, {})
                merged = _add_morphism(cur, corr)
                if merged:
                    tracked[f] = merged
                else:
                    tracked.pop(f, None)
        cx.remove_object(b)
        cx.remove_object(c0)
        for e, me in ins:
            for f, mf in outs:
                corr = _scale_morphism(
                    compose(me, cx.obj[e], B_obj, mf, cx.obj[f]), fac)
                cx.add_entry(e, f, corr)
                if cx.out[e].get(f) and _is_unit_entry(cx, e, f) is not None:
                    heapq.heappush(heap, (len(cx.out[e]) * len(cx.inc[f]), e, f))


def _deloop_all(cx: ScanComplex, tracked: dict):
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
        ids, _ = match_cycles(match, nc, match, nc - 1)
        # cap / cup morphisms between inner and outer
        base_blocks = [frozenset((cid,)) for cid in ids if cid[0] == "b"]
        for i in range(nc - 1):
            base_blocks.append(frozenset((("s", i), ("t", i))))
        circle_block = frozenset((("s", j),))
        cap_blocks = frozenset(base_blocks + [circle_block])
        p_plus = {(cap_blocks, frozenset((circle_block,))): _ONE}   # dotted cap
        p_minus = {(cap_blocks, frozenset()): _ONE}                 # plain cap
        ids2, _ = match_cycles(match, nc - 1, match, nc)
        base_blocks2 = [frozenset((cid,)) for cid in ids2 if cid[0] == "b"]
        for i in range(nc - 1):
            base_blocks2.append(frozenset((("s", i), ("t", i))))
        circle_block2 = frozenset((("t", j),))
        cup_blocks = frozenset(base_blocks2 + [circle_block2])
        i_plus = {(cup_blocks, frozenset()): _ONE}                  # plain cup
        i_minus = {(cup_blocks, frozenset((circle_block2,))): _ONE}  # dotted cup

        h, q = cx.h[uid], cx.q[uid]
        up = cx.add_object(outer, h, q + 1)
        dn = cx.add_object(outer, h, q - 1)
        for src, m_in in list(cx.inc[uid].items()):
            cx.add_entry(src, up, compose(m_in, cx.obj[src], inner, p_plus, outer))
            cx.add_entry(src, dn, compose(m_in, cx.obj[src], inner, p_minus, outer))
        for tgt, m_out in list(cx.out[uid].items()):
            cx.add_entry(up, tgt, compose(i_plus, outer, inner, m_out, cx.obj[tgt]))
            cx.add_entry(dn, tgt, compose(i_minus, outer, inner, m_out, cx.obj[tgt]))
        t = tracked.pop(uid, None)
        if t:
            src_obj = tracked["__source__"]
            tup = compose(t, src_obj, inner, p_plus, outer)
            tdn = compose(t, src_obj, inner, p_minus, outer)
            if tup:
                tracked[up] = _add_morphism(tracked.get(up, {}), tup)
            if tdn:
                tracked[dn] = _add_morphism(tracked.get(dn, {}), tdn)
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


def _letter_slots(n, row, kind, col):
    """Slot sets per arc of a letter tangle, for Seifert-circle matching.

    kind: "vertical", "horizontal" (the two smoothings / e-letter), with
    0-based column col (ignored for pure identity rows).
    """
    slots = {}
    if kind == "vertical":
        for c in range(n):
            slots[frozenset((c, n + c))] = frozenset(((row - 1, c + 1), (row, c + 1)))
        return _vertical_match(n), slots
    m = _horizontal_match(n, col)
    for c in range(n):
        if c not in (col, col + 1):
            slots[frozenset((c, n + c))] = frozenset(((row - 1, c + 1), (row, c + 1)))
    slots[frozenset((col, col + 1))] = frozenset(((row - 1, col + 1), (row - 1, col + 2)))
    slots[frozenset((n + col, n + col + 1))] = frozenset(((row, col + 1), (row, col + 2)))
    return m, slots


# ---------------------------------------------------------------------------
# the scan itself


def scan_word(d: OrientedDiagram, limit=None, track_lee: bool = True):
    """Scan the diagram's braid word; return the reduced free complex and,
    when track_lee, the Lee cycle images for (s_o, s_obar)."""
    from .cube import generator_limit

    if d.braid is None:
        raise KhleeError("the scan engine needs a braid-built diagram")
    clear_scan_caches()
    word = d.braid
    n = word.strands
    cap = max(generator_limit(limit) // 8, 4096)
    cx = ScanComplex(n, cap)
    vm = _vertical_match(n)
    root = cx.add_object((vm, 0), 0, 0)

    # tracked column: morphisms from the oriented-resolution source tangle
    source = (vm, 0)
    tracked = {"__source__": source, root: identity_morphism((vm, 0))}
    # slot bookkeeping for the source tangle
    src_arc_slots = {frozenset((c, n + c)): frozenset(((0, c + 1),)) for c in range(n)}
    src_circle_slots = []

    or_choice = d.oriented_choice()
    cidx = 0  # crossing index of the next sigma letter
    for li, letter in enumerate(word.letters):
        row = li + 1
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
            saddle = _saddle(m_a, m_b, n)
            _tensor_letter(cx, tracked, letter_objects, saddle, orres, n,
                           src_arc_slots, src_circle_slots, row,
                           "vertical" if (letter > 0) == (orres == 0) else "horizontal",
                           col)
        else:
            col = letter[1] - 1
            m_e = _horizontal_match(n, col)
            _tensor_letter(cx, tracked, [((m_e, 0), (0, 0))], None, 0, n,
                           src_arc_slots, src_circle_slots, row, "horizontal", col)
        _deloop_all(cx, tracked)
        _eliminate(cx, tracked)

    return _close_and_reduce(cx, tracked, src_arc_slots, src_circle_slots, n,
                             len(word.letters), track_lee, limit)


def _tensor_letter(cx: ScanComplex, tracked, letter_objects, saddle, orres, n,
                   src_arc_slots, src_circle_slots, row, or_kind, col):
    """Stack a one-letter complex on top of the current complex."""
    old_objects = dict(cx.obj)
    old_h, old_q = dict(cx.h), dict(cx.q)
    old_out = {u: dict(r) for u, r in cx.out.items()}
    old_tracked = {u: m for u, m in tracked.items() if u != "__source__"}
    source = tracked["__source__"]

    new_uid = {}
    for uid, obj in old_objects.items():
        for ri, (lobj, (dh, dq)) in enumerate(letter_objects):
            E, circles, _tr = stacked_objects(obj, lobj, n)
            new_uid[(uid, ri)] = cx.add_object(E, old_h[uid] + dh, old_q[uid] + dq)

    # differentials: d(x . l) = d(x) . l + (-1)^{h(x)} x . d(l)
    letter_idents = [identity_morphism(lobj) for lobj, _sh in letter_objects]
    for uid, rowm in old_out.items():
        for tgt, f in rowm.items():
            for ri, (lobj, _sh) in enumerate(letter_objects):
                stacked, E1, E2 = stack(f, old_objects[uid], old_objects[tgt],
                                        letter_idents[ri], lobj, lobj, n)
                cx.add_entry(new_uid[(uid, ri)], new_uid[(tgt, ri)], stacked)
    if saddle is not None and len(letter_objects) == 2:
        for uid, obj in old_objects.items():
            ident = identity_morphism(obj)
            stacked, E1, E2 = stack(ident, obj, obj,
                                    saddle, letter_objects[0][0], letter_objects[1][0], n)
            if old_h[uid] % 2:
                stacked = _scale_morphism(stacked, -1)
            cx.add_entry(new_uid[(uid, 0)], new_uid[(uid, 1)], stacked)

    # retire old objects
    for uid in old_objects:
        cx.remove_object(uid)

    # source tangle gains the oriented resolution of the letter
    lobj_or = letter_objects[orres][0]
    lm, lslots = _letter_slots(n, row, or_kind, col)
    assert lm == lobj_or[0]
    new_source, circ_src, traces_src = stacked_objects(source, lobj_or, n)

    # update slot bookkeeping
    new_arc_slots = {}
    for pair, trace in traces_src:
        ss = frozenset()
        for side, arcs in trace:
            ss |= src_arc_slots[arcs] if side == "O" else lslots[arcs]
        new_arc_slots[pair] = ss
    appended = []
    for mids, trace in circ_src:
        ss = frozenset()
        for side, arcs in trace:
            ss |= src_arc_slots[arcs] if side == "O" else lslots[arcs]
        appended.append(ss)
    src_arc_slots.clear()
    src_arc_slots.update(new_arc_slots)
    src_circle_slots.extend(appended)

    # push the tracked column through the tensor
    ident_or = identity_morphism(lobj_or)
    for uid, f in old_tracked.items():
        stacked, E1, E2 = stack(f, source, old_objects[uid], ident_or,
                                lobj_or, lobj_or, n)
        tracked.pop(uid, None)
        key = new_uid[(uid, orres)]
        if stacked:
            tracked[key] = _add_morphism(tracked.get(key, {}), stacked)
    tracked["__source__"] = new_source


def _close_and_reduce(cx: ScanComplex, tracked, src_arc_slots, src_circle_slots,
                      n, rows, track_lee, limit):
    """Trace closure, full delooping, final Gaussian reduction."""
    source = tracked["__source__"]
    gc = GradedComplex()
    obj_circles = {}
    for uid, obj in cx.obj.items():
        obj_circles[uid] = close_object(obj, n)

    # source circle slot sets, in close_morphism's circle order
    src_closed = close_object(source, n)
    source_circle_slots = list(src_circle_slots)
    for circ in src_closed:
        ss = frozenset()
        for p in circ:
            ss |= src_arc_slots[frozenset((p, source[0][p]))]
        source_circle_slots.append(ss)

    # deloop everything by brute expansion: each object with k circles gives
    # 2^k generators; morphism entries are evaluated through cap/cup maps.
    # We reuse the generic machinery by repeatedly delooping a 0-point
    # "tangle".  Implemented directly here for speed.
    gen_of = {}
    for uid in sorted(cx.obj):
        k = cx.obj[uid][1] + len(obj_circles[uid])
        for mask in range(1 << k):
            qshift = sum(1 if not (mask >> j) & 1 else -1 for j in range(k))
            gid = gc.add_gen(cx.h[uid], cx.q[uid] + qshift)
            gen_of[(uid, mask)] = gid

    def closed_entry_maps(fm, A, B):
        """Matrix of the closed morphism over labelings: {(mask_src, mask_tgt):
        Qt}.  Blocks evaluate through the algebra A = Q[t][x]/(x^2 - t)."""
        closed = close_morphism(fm, A, B, n)
        kA = A[1] + len(close_object(A, n))
        kB = B[1] + len(close_object(B, n))
        table = {}
        for (blocks, dotted), coeff in closed.items():
            # each block: sources S, targets T, dot flag
            # map: multiply source labels, apply dot, comultiply to targets
            per_block = []
            for block in blocks:
                srcs = sorted(c[1] for c in block if c[0] == "s")
                tgts = sorted(c[1] for c in block if c[0] == "t")
                per_block.append((srcs, tgts, block in dotted))
            # distribute over source label choices
            for mask_src in range(1 << kA):
                results = [(0, _ONE)]  # (partial target mask, Qt coeff)
                ok = True
                for srcs, tgts, dot in per_block:
                    # multiply the source labels in A
                    a, b = _ONE, qt.ZERO  # element a*1 + b*x
                    for s in srcs:
                        lab = (mask_src >> s) & 1
                        if lab == 0:
                            continue
                        a, b = qt.shift(b, 1), a  # multiply by x
                    if dot:
                        a, b = qt.shift(b, 1), a
                    # comultiply to len(tgts) outputs: iterate target labels
                    outs = _comul_many(a, b, len(tgts))
                    if not outs:
                        ok = False
                        break
                    new_results = []
                    for tmask_partial, cpart in results:
                        for labs, cc in outs.items():
                            tm = tmask_partial
                            for lab, t in zip(labs, tgts):
                                if lab:
                                    tm |= 1 << t
                            v = qt.mul(cpart, cc)
                            if v:
                                new_results.append((tm, v))
                    results = _merge_results(new_results)
                    if not results:
                        ok = False
                        break
                if not ok:
                    continue
                for tmask, cpart in results:
                    v = qt.mul(cpart, coeff)
                    if not v:
                        continue
                    key = (mask_src, tmask)
                    s = qt.add(table.get(key, {}), v)
                    if s:
                        table[key] = s
                    else:
                        table.pop(key, None)
        return table

    for src in sorted(cx.obj):
        for tgt, fm in cx.out[src].items():
            table = closed_entry_maps(fm, cx.obj[src], cx.obj[tgt])
            for (ms, mt), poly in table.items():
                for e, c in poly.items():
                    gc.add_entry(gen_of[(src, ms)], gen_of[(tgt, mt)], c, e)

    src_maps = {}
    if track_lee:
        for uid, fm in tracked.items():
            if uid == "__source__":
                continue
            src_maps[uid] = close_morphism(fm, source, cx.obj[uid], n)

    return _ScanClosure(gc, gen_of, src_maps, source, src_closed,
                        source_circle_slots, cx, n)


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


def _merge_results(pairs):
    acc = {}
    for tm, c in pairs:
        s = qt.add(acc.get(tm, {}), c)
        if s:
            acc[tm] = s
        else:
            acc.pop(tm, None)
    return list(acc.items())


class _ScanClosure:
    """Closed scan output pending Lee-vector evaluation and final reduction."""

    def __init__(self, gc, gen_of, src_maps, source, src_closed,
                 source_circle_slots, cx, n):
        self.gc = gc
        self.gen_of = gen_of
        self.src_maps = src_maps
        self.source = source
        self.src_closed = src_closed
        self.source_circle_slots = source_circle_slots
        self.cx = cx
        self.n = n

    def lee_vectors(self, circle_sign_of_slotset):
        """Vectors for s_o and s_obar over the closed complex generators.

        circle_sign_of_slotset: function mapping a slot frozenset to +-1."""
        signs = [circle_sign_of_slotset(ss) for ss in self.source_circle_slots]
        k_src = len(signs)
        vo = {}
        vbar = {}
        for uid, closed in self.src_maps.items():
            kB = self.cx.obj[uid][1] + len(close_object(self.cx.obj[uid], self.n))
            for (blocks, dotted), coeff in closed.items():
                per_block = []
                for block in blocks:
                    srcs = sorted(c[1] for c in block if c[0] == "s")
                    tgts = sorted(c[1] for c in block if c[0] == "t")
                    per_block.append((srcs, tgts, block in dotted))
                for flip, target in ((False, vo), (True, vbar)):
                    results = [(0, _ONE)]
                    ok = True
                    for srcs, tgts, dot in per_block:
                        a, b = _ONE, qt.ZERO
                        for s in srcs:
                            eps = signs[s] * (-1 if flip else 1)
                            # multiply by (eps*1 + x)
                            na = qt.add(a if eps > 0 else qt.neg(a), qt.shift(b, 1))
                            nb = qt.add(a, b if eps > 0 else qt.neg(b))
                            a, b = na, nb
                        if dot:
                            a, b = qt.shift(b, 1), a
                        outs = _comul_many(a, b, len(tgts))
                        if not outs:
                            ok = False
                            break
                        new_results = []
                        for tmask, cpart in results:
                            for labs, cc in outs.items():
                                tm = tmask
                                for lab, t in zip(labs, tgts):
                                    if lab:
                                        tm |= 1 << t
                                v = qt.mul(cpart, cc)
                                if v:
                                    new_results.append((tm, v))
                        results = _merge_results(new_results)
                        if not results:
                            ok = False
                            break
                    if not ok:
                        continue
                    for tmask, cpart in results:
                        v = qt.mul(cpart, coeff)
                        if not v:
                            continue
                        gid = self.gen_of[(uid, tmask)]
                        s = qt.add(target.get(gid, {}), v)
                        if s:
                            target[gid] = s
                        else:
                            target.pop(gid, None)
        return vo, vbar


def scan_levels(dd: OrientedDiagram, chain, limit=None, want_module=True):
    """Filtration levels of the Lee classes via the scanning engine."""
    from .lee import _reduced_levels_from_tracked

    closure = scan_word(dd, limit=limit, track_lee=True)
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
