"""Cobordisms in the partition basis: the oracle for the disc basis of
``khlee.tlscan``.

A basis cobordism here is (partition of the boundary curves into blocks,
dotted blocks): one connected genus-0 piece per block, carrying one dot or
none.  Gluing two of them is a union-find over the pieces
(``evaluate_surface``): a handle is two dots with a factor 2, two dots are
t, and a closed piece is t^((d-1)/2) with d odd dots and 0 with d even.
``neck_cut`` rewrites a result in the disc basis by cutting one neck at a
time, which does not use the scanner's closed Delta^(r-1)(x^e) rule, and
``apply_closed`` evaluates a closed cobordism on labelled circles through
the Frobenius algebra A = Q[t][x]/(x^2 - t), with no cap or cup rule.

Boundary curves are named ("s", i) for source circles, ("t", j) for target
circles and ("b", p) for the cycle through the boundary points with least
point p; ``curve_ids`` lists them in the order of the scanner's bits.  The
oracle walks the closure circles (``closure_circles``) and stacks matchings
(``stack_matchings``) by itself, with none of the scanner's walks.
"""

import functools

import qt


@functools.lru_cache(maxsize=None)
def match_cycles(m1, nc1, m2, nc2):
    """(curve ids in bit order, cycle id of each boundary point) of the
    cobordisms (m1, nc1) -> (m2, nc2)."""
    seen = set()
    cycles = []
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
            orbit += [p, q]
            p = m2[q]
        cid = ("b", min(orbit))
        for p in orbit:
            point2cyc[p] = cid
        cycles.append(cid)
    ids = [("s", i) for i in range(nc1)] + [("t", j) for j in range(nc2)]
    return tuple(ids + sorted(cycles, key=lambda c: c[1])), point2cyc


def curve_ids(A, B):
    return match_cycles(A[0], A[1], B[0], B[1])[0]


def evaluate_surface(chi, dots, joins, attach):
    """Glue surface pieces and read the result off as a basis cobordism.

    Piece i has Euler characteristic chi[i] and dots[i] dots; joins are
    (piece, piece, chi cost) seams, 1 for an arc and 0 for a circle; attach
    is (piece, curve id) for each boundary curve of the result.  Returns
    (coeff, t-exponent, (partition, dotted)), or None.
    """
    chi, dots = list(chi), list(dots)
    parent = list(range(len(chi)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
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

    coeff, texp, blocks, dotted = 1, 0, [], []
    for root, c in enumerate(chi):
        if parent[root] != root:
            continue
        boundary = members.get(root, ())
        genus2 = 2 - c - len(boundary)
        assert genus2 % 2 == 0 and genus2 >= 0, "impossible genus"
        g = genus2 // 2
        d = dots[root] + g
        coeff <<= g
        if not boundary:
            if d % 2 == 0:
                return None
            texp += (d - 1) // 2
            continue
        texp += d // 2
        block = frozenset(boundary)
        blocks.append(block)
        if d % 2:
            dotted.append(block)
    return coeff, texp, (frozenset(blocks), frozenset(dotted))


def _bilinear(fm, gm, seams, result_members):
    """Glue every term pair: seams are (f curve, g curve, chi cost), and
    result_members (result curve, "F"/"G", curve of that side)."""
    out = {}
    for (pf, df), cf in fm.items():
        for (pg, dg), cg in gm.items():
            lookF = {cid: i for i, block in enumerate(pf) for cid in block}
            lookG = {cid: len(pf) + j for j, block in enumerate(pg) for cid in block}
            glued = evaluate_surface(
                [2 - len(b) for b in pf] + [2 - len(b) for b in pg],
                [int(b in df) for b in pf] + [int(b in dg) for b in pg],
                [(lookF[f], lookG[g], cost) for f, g, cost in seams],
                [(lookF[c] if side == "F" else lookG[c], r) for r, side, c in result_members])
            if glued is not None:
                coeff, texp, basis = glued
                _add(out, basis, qt.shift(qt.scale(qt.mul(cf, cg), coeff), texp))
    return out


def _add(acc, key, poly):
    s = qt.add(acc.get(key, {}), poly)
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def compose(fm, A, B, gm, C):
    """g after f, for f: A -> B and g: B -> C, in the partition basis."""
    (mA, ncA), (mB, ncB), (mC, ncC) = A, B, C
    _, p2cF = match_cycles(mA, ncA, mB, ncB)
    _, p2cG = match_cycles(mB, ncB, mC, ncC)
    seams = [(p2cF[p], p2cG[p], 1) for p in range(len(mB)) if p < mB[p]]
    seams += [(("t", i), ("s", i), 0) for i in range(ncB)]
    members = []
    for rcid in match_cycles(mA, ncA, mC, ncC)[0]:
        if rcid[0] == "b":
            members.append((rcid, "F", p2cF[rcid[1]]))
        else:
            members.append((rcid, "F" if rcid[0] == "s" else "G", rcid))
    return _bilinear(fm, gm, seams, members)


def stack_matchings(mO, mP):
    """P on top of O, by the connected pieces of the glued arcs: the
    composite matching of O's bottom 0..n-1 and P's top n..2n-1, and the
    least middle column of each closed loop, in increasing order.  Points
    are numbered bottom 0..n-1, middle n..2n-1 and top 2n..3n-1."""
    n = len(mO) // 2
    piece = list(range(3 * n))  # union-find over the points

    def find(x):
        while piece[x] != x:
            x = piece[x]
        return x

    for p, q in list(enumerate(mO)) + [(p + n, q + n) for p, q in enumerate(mP)]:
        piece[find(p)] = find(q)
    ends = {}
    for p in list(range(n)) + list(range(2 * n, 3 * n)):
        ends.setdefault(find(p), []).append(p if p < n else p - n)
    match = [None] * (2 * n)
    for p, q in ends.values():
        match[p], match[q] = q, p
    loops = {}  # root of each closed loop -> its least middle column
    for c in range(n):
        if find(n + c) not in ends:
            loops.setdefault(find(n + c), c)
    return tuple(match), tuple(sorted(loops.values()))


def closure_circles(obj, n):
    """Circles of the trace closure, as frozensets of boundary points,
    ordered by least point."""
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


def stacked_objects(O, P):
    """P on top of O: the composite object and the least middle column of
    each new circle."""
    match, least = stack_matchings(O[0], P[0])
    return (match, O[1] + P[1] + len(least)), least


def stack(fm, A, B, gm, C, D, n):
    """f: A -> B below g: C -> D, from A.C to B.D, in the partition basis."""
    (mA, ncA), (mB, ncB), (mC, ncC), (mD, ncD) = A, B, C, D
    _, p2cF = match_cycles(mA, ncA, mB, ncB)
    _, p2cG = match_cycles(mC, ncC, mD, ncD)
    E1, circ1 = stacked_objects(A, C)
    E2, circ2 = stacked_objects(B, D)
    seams = [(p2cF[n + c], p2cG[c], 1) for c in range(n)]

    def circle(kind, i, n_low, n_up, new):
        if i < n_low:
            return "F", (kind, i)
        if i < n_low + n_up:
            return "G", (kind, i - n_low)
        return "F", p2cF[n + new[i - n_low - n_up]]

    members = []
    for rcid in match_cycles(E1[0], E1[1], E2[0], E2[1])[0]:
        kind, i = rcid
        if kind == "b":
            members.append((rcid, "F", p2cF[i]) if i < n else (rcid, "G", p2cG[i]))
        elif kind == "s":
            members.append((rcid,) + circle("s", i, ncA, ncC, circ1))
        else:
            members.append((rcid,) + circle("t", i, ncB, ncD, circ2))
    return _bilinear(fm, gm, seams, members)


def close_morphism(fm, A, B, n):
    """The trace closure of f: A -> B, its circles named ("s", i) and
    ("t", j) in the order [own circles] + [closure circles by min point]."""
    (mA, ncA), (mB, ncB) = A, B
    _, p2cF = match_cycles(mA, ncA, mB, ncB)
    joins = [(p2cF[c], p2cF[n + c]) for c in range(n)]
    boundary = [(("s", i), ("s", i)) for i in range(ncA)]
    boundary += [(("s", ncA + k), p2cF[min(c)]) for k, c in enumerate(closure_circles(A, n))]
    boundary += [(("t", j), ("t", j)) for j in range(ncB)]
    boundary += [(("t", ncB + k), p2cF[min(c)]) for k, c in enumerate(closure_circles(B, n))]
    out = {}
    for (pf, df), cf in fm.items():
        look = {cid: i for i, block in enumerate(pf) for cid in block}
        glued = evaluate_surface([2 - len(b) for b in pf], [int(b in df) for b in pf],
                                 [(look[a], look[b], 1) for a, b in joins],
                                 [(look[f], r) for r, f in boundary])
        if glued is not None:
            coeff, texp, basis = glued
            _add(out, basis, qt.shift(qt.scale(cf, coeff), texp))
    return out


def from_discs(morphism, ids):
    """A disc-basis morphism {dot mask: Qt} over the curves ``ids`` in the
    partition basis: every curve its own block."""
    blocks = frozenset(frozenset((cid,)) for cid in ids)
    return {(blocks, frozenset(frozenset((cid,)) for i, cid in enumerate(ids) if mask >> i & 1)):
            poly for mask, poly in morphism.items()}


def _cut_piece(bits, e):
    """A genus-0 piece with e dots (0 or 1) on the curves ``bits``, in the
    disc basis: [(dot mask, t exponent)].  A neck around the first curve is
    a dot on its side plus a dot on the other side, and two dots are t."""
    if len(bits) == 1:
        return [(1 << bits[0] if e else 0, 0)]
    first, rest = bits[0], bits[1:]
    out = [(m | 1 << first, te) for m, te in _cut_piece(rest, e)]
    out += [(m, te + e) for m, te in _cut_piece(rest, 1 - e)]
    return out


def neck_cut(morphism, ids):
    """A partition-basis morphism in the disc basis over the curves ``ids``."""
    bit = {cid: i for i, cid in enumerate(ids)}
    out = {}
    for (blocks, dotted), poly in morphism.items():
        terms = [(0, 0)]
        for block in blocks:
            piece = _cut_piece(sorted(bit[c] for c in block), int(block in dotted))
            terms = [(m | pm, te + pe) for m, te in terms for pm, pe in piece]
        for mask, texp in terms:
            _add(out, mask, qt.shift(poly, texp))
    return out


def apply_closed(closed, labels):
    """A closed partition-basis morphism on the basis element with these
    source labels (0 for 1, 1 for x): {target label mask: Qt}.  Each block
    multiplies its source labels, times x when dotted, and comultiplies the
    product onto its target circles."""
    x_pow = {0: (qt.ONE, {}), 1: ({}, qt.ONE)}  # a*1 + b*x as (a, b)
    out = {}
    for (blocks, dotted), coeff in closed.items():
        partial = {0: coeff}
        for block in blocks:
            srcs = [c[1] for c in block if c[0] == "s"]
            a, b = qt.ONE, {}
            for s in srcs:
                c, d = x_pow[labels[s]]
                a, b = qt.add(qt.mul(a, c), qt.shift(qt.mul(b, d), 1)), qt.add(qt.mul(a, d), qt.mul(b, c))
            if block in dotted:
                a, b = qt.shift(b, 1), a
            tgts = sorted(c[1] for c in block if c[0] == "t")
            images = _comultiply(a, b, len(tgts))
            partial = {tm | sum(1 << t for lab, t in zip(labs, tgts) if lab): qt.mul(cp, ci)
                       for tm, cp in partial.items() for labs, ci in images.items()}
            partial = {tm: c for tm, c in partial.items() if c}
        for tm, c in partial.items():
            _add(out, tm, c)
    return out


def _comultiply(a, b, k):
    """a*1 + b*x comultiplied onto k circles: {labels: Qt}; k = 0 is the
    counit, with eps(1) = 0 and eps(x) = 1."""
    if k == 0:
        return {(): b} if b else {}
    out = {(0,): a, (1,): b}
    for _ in range(k - 1):
        # delta(1) = 1 x + x 1 and delta(x) = x x + t 1 1, on the last factor
        new = {}
        for labs, c in out.items():
            head = labs[:-1]
            if labs[-1] == 0:
                pairs = [((0, 1), c), ((1, 0), c)]
            else:
                pairs = [((1, 1), c), ((0, 0), qt.shift(c, 1))]
            for tail, cc in pairs:
                _add(new, head + tail, cc)
        out = new
    return {labs: c for labs, c in out.items() if c}
