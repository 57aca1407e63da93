"""Oriented link diagrams as planar maps.

A diagram is a 4-valent planar map: crossings list their four arc ends
counterclockwise (the PD convention), arcs run from an outgoing to an
incoming crossing end, and crossingless components are closed arcs.  No
coordinates are stored.  The faces come from the rotation system at the
crossings, and a checkerboard colouring of the faces gives the signs of the
canonical Lee cycles (``seifert_signs``).

A diagram is its arcs: the crossings, their signs and the component count
are derived from them once, when it is built.  Diagrams and arcs are
immutable; every operation returns a new diagram, which shares the arcs it
leaves unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

from .errors import BadComponent, NonPlanar, OrientationConflict, ParseError

# ---------------------------------------------------------------------------
# Braid words


def _normalize_letter(x, n: int):
    """Accept ints (sigma_i), ("e", i) pairs, or "e<i>" strings; a bool is
    not an int here."""
    if type(x) is int:
        if x == 0 or abs(x) >= n:
            raise ParseError(f"braid letter {x} out of range for {n} strands")
        return x
    if isinstance(x, str) and x and x[0] in "eE":
        try:
            i = int(x[1:])
        except ValueError:
            raise ParseError(f"bad braid letter {x!r}")
        return _normalize_letter(("e", i), n)
    if isinstance(x, (tuple, list)) and len(x) == 2 and x[0] == "e" and type(x[1]) is int:
        if not 1 <= x[1] <= n - 1:
            raise ParseError(f"turnback letter e{x[1]} out of range for {n} strands")
        return ("e", x[1])
    raise ParseError(f"bad braid letter {x!r}")


@dataclass(frozen=True)
class BraidWord:
    """A braid-like word: sigma letters (nonzero ints) plus optional
    turnback letters ("e", i), closed by the standard trace closure.

    ``orientation[c]`` is True when the closure arc of column c+1 carries the
    strand upward through the word.
    """

    strands: int
    letters: tuple = ()
    orientation: tuple = ()

    def __post_init__(self):
        if self.strands < 1:
            raise ParseError("braid needs at least one strand")
        letters = tuple(_normalize_letter(x, self.strands) for x in self.letters)
        object.__setattr__(self, "letters", letters)
        if not self.orientation:
            object.__setattr__(self, "orientation", (True,) * self.strands)
        elif len(self.orientation) != self.strands:
            raise ParseError("orientation pattern length must equal strand count")
        else:
            object.__setattr__(self, "orientation", tuple(bool(v) for v in self.orientation))

    @property
    def sigma_letters(self):
        return [x for x in self.letters if isinstance(x, int)]

    def writhe_all_up(self) -> int:
        """Sum of letter signs (the braid writhe wr(beta))."""
        return sum(1 if x > 0 else -1 for x in self.sigma_letters)

    def mirror(self) -> "BraidWord":
        return BraidWord(
            self.strands,
            tuple(-x if isinstance(x, int) else x for x in self.letters),
            self.orientation,
        )


# ---------------------------------------------------------------------------
# Diagram data types


@dataclass(frozen=True)
class Crossing:
    """ends[0] is the incoming under-strand arc; positions run
    counterclockwise (the PD convention).  Derived from the arcs."""

    id: int
    sign: int
    ends: tuple


@dataclass(frozen=True)
class Arc:
    id: int
    component: int
    tail: Optional[tuple]  # (crossing id, position) or None for a closed circle
    head: Optional[tuple]
    slots: frozenset = frozenset()  # boundary points covered (braid-built diagrams)

    @property
    def closed(self) -> bool:
        return self.tail is None


@dataclass
class Circle:
    arcs: frozenset  # member arc ids


@dataclass
class Resolution:
    choice: tuple
    circles: list


_SMOOTHING_PAIRS = {0: ((0, 1), (2, 3)), 1: ((1, 2), (3, 0))}


def _turned(arcs, turn):
    """arcs with the ends at each crossing c renumbered p -> p - turn[c]
    (mod 4); an arc whose ends do not move is kept."""
    def move(end):
        return end and (end[0], (end[1] - turn[end[0]]) % 4)

    out = {}
    for a in arcs.values():
        tail, head = move(a.tail), move(a.head)
        out[a.id] = a if (tail, head) == (a.tail, a.head) else \
            Arc(a.id, a.component, tail, head, a.slots)
    return out


class OrientedDiagram:
    """Immutable oriented link diagram, stored as a planar map: its arcs.

    Each crossing's ends, its sign (positive iff the over strand enters at
    position 3), the component count and, for a braid closure, the
    component at each closure point (0, c) are derived from the arcs."""

    def __init__(self, arcs, braid=None, slot_direction=None):
        self.arcs = dict(arcs)
        self.braid = braid
        # (row, col) -> True when the strand flows upward there (braid-built)
        self.slot_direction = slot_direction
        self._arc_at = at = {}
        heads = set()
        for a in self.arcs.values():
            if not a.closed:
                at[a.tail] = at[a.head] = a.id
                heads.add(a.head)
        self.crossings = []
        for cid in sorted({cid for cid, _ in heads}):
            in0, in1, in2, in3 = [(cid, p) in heads for p in range(4)]
            if not in0 or in2 or in1 == in3:
                raise OrientationConflict(f"arc orientations conflict at crossing {cid}")
            self.crossings.append(Crossing(cid, 1 if in3 else -1,
                                           tuple([at[(cid, p)] for p in range(4)])))
        self.n_components = 1 + max((a.component for a in self.arcs.values()), default=-1)

    @cached_property
    def col_component(self):
        """The component at each closure point (0, c) of a braid closure."""
        if self.braid is None:
            return None
        comp_at = {s: a.component for a in self.arcs.values() for s in a.slots if s[0] == 0}
        return tuple(comp_at[(0, c)] for c in range(1, self.braid.strands + 1))

    # -- elementary statistics ------------------------------------------------

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    @property
    def n_plus(self) -> int:
        return sum(1 for c in self.crossings if c.sign > 0)

    @property
    def n_minus(self) -> int:
        return sum(1 for c in self.crossings if c.sign < 0)

    @property
    def writhe(self) -> int:
        return self.n_plus - self.n_minus

    def arc_at(self, cid: int, pos: int) -> int:
        return self._arc_at[(cid, pos)]

    # -- resolutions ----------------------------------------------------------

    def oriented_choice(self) -> tuple:
        return tuple(0 if c.sign > 0 else 1 for c in self.crossings)

    def smoothing_mate(self, cid: int, pos: int, smoothing: int) -> int:
        for a, b in _SMOOTHING_PAIRS[smoothing]:
            if pos == a:
                return b
            if pos == b:
                return a
        raise AssertionError

    def resolve(self, choice) -> Resolution:
        choice = tuple(choice)
        if len(choice) != self.n_crossings:
            raise ValueError("choice length must equal the crossing count")
        smoothing = {c.id: s for c, s in zip(self.crossings, choice)}
        oriented = choice == self.oriented_choice()

        # Walk each circle as a cycle alternating arc traversals and hops
        # across the chosen smoothing at the far crossing.
        visited = set()
        circles = []
        for a0 in sorted(self.arcs):
            if a0 in visited:
                continue
            arc0 = self.arcs[a0]
            member = [a0]
            visited.add(a0)
            exit_end = arc0.head
            while exit_end is not None:
                cid, pos = exit_end
                entry = (cid, self.smoothing_mate(cid, pos, smoothing[cid]))
                if entry == arc0.tail:
                    break
                arc = self.arcs[self.arc_at(*entry)]
                forward = entry == arc.tail
                assert forward or not oriented, \
                    "oriented resolution must follow arc directions"
                member.append(arc.id)
                visited.add(arc.id)
                exit_end = arc.head if forward else arc.tail
            circles.append(Circle(arcs=frozenset(member)))
        circles.sort(key=lambda c: min(c.arcs))
        return Resolution(choice, circles)

    # -- faces and the Lee signs -----------------------------------------------

    def _next_dart(self, dart):
        """The dart after (arc id, forward) on the face to its right: at the
        crossing reached, leave through the next position counterclockwise."""
        aid, forward = dart
        arc = self.arcs[aid]
        cid, pos = arc.head if forward else arc.tail
        out = (cid, (pos + 1) % 4)
        nxt = self.arcs[self.arc_at(*out)]
        return (nxt.id, nxt.tail == out)

    def faces(self):
        """(faces, face_of): each face as its cycle of darts (arc id,
        forward), with the face on the right of each dart; crossingless
        circles bound no traced face."""
        faces = []
        face_of = {}
        for aid in sorted(self.arcs):
            if self.arcs[aid].closed:
                continue
            for start in ((aid, True), (aid, False)):
                dart = start
                walk = []
                while dart not in face_of:
                    face_of[dart] = len(faces)
                    walk.append(dart)
                    dart = self._next_dart(dart)
                if walk:
                    faces.append(walk)
        return faces, face_of

    def euler_check(self) -> bool:
        """V - E + F = 2 on each connected 4-valent piece."""
        parent = {c.id: c.id for c in self.crossings}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        open_arcs = [a for a in self.arcs.values() if not a.closed]
        for a in open_arcs:
            parent[find(a.tail[0])] = find(a.head[0])
        chi = {}
        for c in self.crossings:
            chi[find(c.id)] = chi.get(find(c.id), 0) + 1
        for a in open_arcs:
            chi[find(a.tail[0])] -= 1
        faces, _ = self.faces()
        for walk in faces:
            aid, _forward = walk[0]
            chi[find(self.arcs[aid].tail[0])] += 1
        return all(v == 2 for v in chi.values())

    def face_colours(self) -> dict:
        """A checkerboard colouring: dart -> 0/1 colour of the face on its
        right, with the two faces along every arc coloured differently.  The
        first face of each connected piece gets colour 0."""
        faces, face_of = self.faces()
        colour = {}
        for root in range(len(faces)):
            if root in colour:
                continue
            colour[root] = 0
            stack = [root]
            while stack:
                f = stack.pop()
                for aid, forward in faces[f]:
                    g = face_of[(aid, not forward)]
                    if g not in colour:
                        colour[g] = 1 - colour[f]
                        stack.append(g)
                    elif colour[g] == colour[f]:
                        raise NonPlanar("the faces admit no checkerboard colouring")
        return {dart: colour[f] for dart, f in face_of.items()}

    def seifert_signs(self, res: Resolution) -> tuple:
        """Lee-cycle sign per circle of the oriented resolution: (-1)^colour
        of the face on the left of the circle (+1 for crossingless circles).

        Along a Seifert circle the left faces are opposite corners at every
        crossing, hence one colour; the two circles meeting at a crossing
        have adjacent corners on their left, hence opposite signs.  Mod 2
        the colour is Rasmussen's nesting depth plus counterclockwise
        winding, up to a flip per connected piece, which exchanges s_o and
        s_obar there and leaves every filtration level unchanged."""
        colour = self.face_colours()
        signs = []
        for c in res.circles:
            aid = min(c.arcs)
            left = 0 if self.arcs[aid].closed else colour[(aid, False)]
            signs.append(-1 if left else 1)
        return tuple(signs)

    # -- misc invariants -------------------------------------------------------

    def seifert_count(self) -> int:
        return len(self.resolve(self.oriented_choice()).circles)

    def linking_matrix(self):
        ell = self.n_components
        mat = [[0] * ell for _ in range(ell)]
        for c in self.crossings:
            cu = self.arcs[c.ends[0]].component
            co = self.arcs[c.ends[1]].component
            if cu == co:
                mat[cu][cu] += c.sign
            else:
                mat[cu][co] += c.sign
                mat[co][cu] += c.sign
        for i in range(ell):
            for j in range(ell):
                if i != j:
                    if mat[i][j] % 2 != 0:
                        raise AssertionError("odd inter-component crossing sum")
                    mat[i][j] //= 2
        return mat

    # -- transforms ------------------------------------------------------------

    def mirror(self) -> "OrientedDiagram":
        """Flip every crossing (over <-> under): the incoming over end, at
        position 3 or 1, becomes position 0."""
        arcs = _turned(self.arcs, {c.id: 3 if c.sign > 0 else 1 for c in self.crossings})
        braid = self.braid.mirror() if self.braid else None
        return OrientedDiagram(arcs, braid=braid, slot_direction=self.slot_direction)

    def reorient(self, flips) -> "OrientedDiagram":
        """Reverse the orientation of the given set of component indices."""
        flips = set(flips)
        for f in flips:
            if not 0 <= f < self.n_components:
                raise BadComponent(f"component {f} out of range")
        arcs = {a.id: replace(a, tail=a.head, head=a.tail) if a.component in flips else a
                for a in self.arcs.values()}
        # where the under strand turns round, its new incoming end is position 2
        arcs = _turned(arcs, {c.id: 2 if self.arcs[c.ends[0]].component in flips else 0
                                   for c in self.crossings})
        braid = None
        if self.braid is not None:
            flags = list(self.braid.orientation)
            for ci, comp in enumerate(self.col_component):
                if comp in flips:
                    flags[ci] = not flags[ci]
            braid = BraidWord(self.braid.strands, self.braid.letters, tuple(flags))
        slot_direction = None
        if self.slot_direction is not None:
            slot_direction = dict(self.slot_direction)
            for a in self.arcs.values():
                if a.component in flips:
                    for slot in a.slots:
                        slot_direction[slot] = not slot_direction[slot]
        return OrientedDiagram(arcs, braid=braid, slot_direction=slot_direction)

    def reverse(self) -> "OrientedDiagram":
        return self.reorient(range(self.n_components))


# ---------------------------------------------------------------------------
# Braid closure construction


def from_braid(b: BraidWord) -> OrientedDiagram:
    """Standard (trace) closure of a braid-like word: strands run up the
    columns, closure arcs pass to the right of the word.

    Point (j, c) is column c at row boundary j (0 <= j <= m for m letters);
    letter k + 1 lies between rows k and k + 1.  A strand passes each point
    once, and ``slot_direction`` records which way.  Crossing corners are
    numbered counterclockwise from the bottom left (0 BL, 1 BR, 2 TR, 3 TL),
    and a strand leaves a crossing at the corner opposite its entry.
    Components are numbered by their least point.  A component through a
    closure column runs as the flag of its first such column says.  Any
    other component begins, in letter order, with a cup, and leaves it
    upward on the right."""
    n, letters = b.strands, b.letters
    m = len(letters)
    cols = [abs(x) if isinstance(x, int) else x[1] for x in letters]
    sigmas = [k for k, x in enumerate(letters) if isinstance(x, int)]  # per crossing id
    cid_of = {k: cid for cid, k in enumerate(sigmas)}

    def step(j, c, up):
        """The next point of a strand at (j, c) running up (or down), and
        the crossing end (id, corner) it enters on the way, if any."""
        k = j if up else j - 1
        if k == m or k < 0:  # the closure arc
            return (0 if up else m), c, up, None
        i = cols[k]
        if c != i and c != i + 1:
            return (j + 1 if up else j - 1), c, up, None
        cid = cid_of.get(k)
        if cid is None:  # the cap above row j, or the cup below it
            return j, 2 * i + 1 - c, not up, None
        if up:
            return j + 1, 2 * i + 1 - c, up, (cid, c - i)
        return j - 1, 2 * i + 1 - c, up, (cid, 3 - (c - i))

    # 1. trace the components, recording each point's component and flow
    traces, comp_at, slot_direction, loops = [], {}, {}, set()

    def trace(j, c, up):
        t, points, crossed = len(traces), [], False
        while (j, c) not in comp_at:
            comp_at[(j, c)] = t
            slot_direction[(j, c)] = up
            points.append((j, c))
            j, c, up, entered = step(j, c, up)
            crossed = crossed or entered is not None
        traces.append(points)
        if not crossed:
            loops.add(t)

    for c in range(1, n + 1):
        if (0, c) not in comp_at:
            trace(0, c, b.orientation[c - 1])
        elif slot_direction[(0, c)] != b.orientation[c - 1]:
            raise OrientationConflict(
                f"orientation flags are inconsistent on the closure of column {c}")
    for j, x in enumerate(letters, 1):
        if not isinstance(x, int) and (j, x[1]) not in comp_at:
            trace(j, x[1] + 1, True)
    order = sorted(range(len(traces)), key=lambda t: min(traces[t]))
    rank = {t: r for r, t in enumerate(order)}

    # each crossing's ends start at its incoming under corner: the strand
    # BR -- TL passes under a positive letter, BL -- TR under a negative one
    under = [(1 if slot_direction[(k, cols[k] + 1)] else 3) if letters[k] > 0
             else (0 if slot_direction[(k, cols[k])] else 2) for k in sigmas]

    # 2. cut an arc from each outgoing corner, in letter order BL, BR, TL, TR
    arcs = {}
    for cid, k in enumerate(sigmas):
        i = cols[k]
        for corner, j, c, up in ((0, k, i, False), (1, k, i + 1, False),
                                 (3, k + 1, i, True), (2, k + 1, i + 1, True)):
            if slot_direction[(j, c)] != up:
                continue  # the strand comes in here
            aid, tail, points, head = len(arcs), (cid, (corner - under[cid]) % 4), [], None
            comp = rank[comp_at[(j, c)]]
            while head is None:
                points.append((j, c))
                j, c, up, head = step(j, c, up)
            head = (head[0], (head[1] - under[head[0]]) % 4)
            arcs[aid] = Arc(aid, comp, tail=tail, head=head, slots=frozenset(points))

    # 3. the crossingless loops, at their first piece in letter order: caps,
    # cups and straights of each letter, then the closure arcs
    def pieces():
        for j, x in enumerate(letters, 1):
            i = cols[j - 1]
            if not isinstance(x, int):
                yield j - 1, i
                yield j, i
            yield from ((j, c) for c in range(1, n + 1) if c != i and c != i + 1)
        yield from ((0, c) for c in range(1, n + 1))

    for point in pieces() if loops else ():
        t = comp_at[point]
        if t in loops:
            loops.discard(t)
            aid = len(arcs)
            arcs[aid] = Arc(aid, rank[t], tail=None, head=None, slots=frozenset(traces[t]))
    return OrientedDiagram(arcs, braid=b, slot_direction=slot_direction)


# ---------------------------------------------------------------------------
# Diagram combination operations


def disjoint_union(d1: OrientedDiagram, d2: OrientedDiagram) -> OrientedDiagram:
    if d1.braid is not None and d2.braid is not None:
        b1, b2 = d1.braid, d2.braid
        shifted = tuple(
            (x + b1.strands if x > 0 else x - b1.strands) if isinstance(x, int)
            else ("e", x[1] + b1.strands)
            for x in b2.letters
        )
        word = BraidWord(b1.strands + b2.strands, b1.letters + shifted,
                         b1.orientation + b2.orientation)
        return from_braid(word)
    return _merge(d1, d2)


def _merge(d1: OrientedDiagram, d2: OrientedDiagram) -> OrientedDiagram:
    """Both diagrams side by side; d2's crossing, arc and component ids
    are shifted past d1's.  The result is not braid-built."""
    coff = len(d1.crossings)
    aoff = (max(d1.arcs) + 1) if d1.arcs else 0
    arcs = dict(d1.arcs)
    for a in d2.arcs.values():
        arcs[a.id + aoff] = Arc(
            a.id + aoff, a.component + d1.n_components,
            tail=(a.tail[0] + coff, a.tail[1]) if a.tail else None,
            head=(a.head[0] + coff, a.head[1]) if a.head else None)
    return OrientedDiagram(arcs)


def connect_sum(d1: OrientedDiagram, c1: int, d2: OrientedDiagram, c2: int) -> OrientedDiagram:
    """Splice component c2 of d2 into component c1 of d1, respecting
    orientation.  The first arc of each component is cut and the ends are
    rejoined tail1 -> head2 and tail2 -> head1.  The rotations at the
    crossings are kept, so the faces right of the two cut arcs merge into
    one face, as do the faces on their left: d2 sits in a face of d1 next
    to the cut arc and the map stays planar."""
    if not 0 <= c1 < d1.n_components:
        raise BadComponent(f"component {c1} out of range")
    if not 0 <= c2 < d2.n_components:
        raise BadComponent(f"component {c2} out of range")
    arcs = _merge(d1, d2).arcs
    aoff = (max(d1.arcs) + 1) if d1.arcs else 0
    a1 = arcs[min(a.id for a in d1.arcs.values() if a.component == c1)]
    a2 = arcs[min(a.id for a in d2.arcs.values() if a.component == c2) + aoff]
    if a2.closed:
        del arcs[a2.id]
    elif a1.closed:
        del arcs[a1.id]
    else:
        arcs[a1.id] = replace(a1, head=a2.head)
        arcs[a2.id] = replace(a2, head=a1.head)
    # d2's component c2 merges into c1, and the ones after it move down
    old_c2 = c2 + d1.n_components
    for aid, a in arcs.items():
        comp = c1 if a.component == old_c2 else a.component - (a.component > old_c2)
        arcs[aid] = replace(a, component=comp)
    return OrientedDiagram(arcs)

