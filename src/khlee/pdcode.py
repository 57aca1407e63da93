"""PD-code input: parsing and the planarity check.

Grammar: ``PD[X(a,b,c,d), ...]`` with an optional suffix
``; orient: comp1=+,comp2=-``.  Entries follow the dominant community
convention: the incoming under-strand first, then counterclockwise.  Arcs
are numbered consecutively along each component, which fixes the implicit
orientation; the orient suffix reverses chosen components afterwards.

The crossing tuples are the rotation system of a planar map, so the parsed
diagram needs no layout: each arc runs from its outgoing to its incoming
crossing end, and the faces traced from the rotations must satisfy Euler's
formula.  Codes of split links are accepted.
"""

from __future__ import annotations

import re

from .diagrams import Arc, Crossing, OrientedDiagram
from .errors import NonPlanar, OrientationConflict, ParseError

_PD_RE = re.compile(r"^\s*PD\[(.*)\]\s*(?:;\s*orient:\s*(.*))?\s*$", re.DOTALL)
_X_RE = re.compile(r"X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")


def parse_pd(text: str) -> OrientedDiagram:
    m = _PD_RE.match(text.strip())
    if not m:
        raise ParseError("input does not match PD[X(a,b,c,d), ...]")
    body, orient_suffix = m.group(1), m.group(2)
    body = body.strip()
    tuples = []
    if body:
        consumed = _X_RE.findall(body)
        cleaned = _X_RE.sub("", body).replace(",", "").strip()
        if cleaned:
            raise ParseError(f"unrecognized tokens in PD body: {cleaned!r}")
        tuples = [tuple(int(x) for x in t) for t in consumed]
    if not tuples:
        return OrientedDiagram([], {}, 0)

    # the two crossing ends (ci, pos) of every arc label
    by_arc = {}
    for ci, t in enumerate(tuples):
        for pos, a in enumerate(t):
            by_arc.setdefault(a, []).append((ci, pos))
    for a, ends in by_arc.items():
        if len(ends) != 2:
            raise ParseError(f"arc {a} appears {len(ends)} times; expected 2")

    # flow roles per crossing end: the under strand enters at position 0 and
    # leaves at position 2; every arc has exactly one incoming and one
    # outgoing end; at every crossing exactly one of the over ends (1, 3)
    # is incoming.  Propagate these constraints to orient the over strands.
    role = {}  # (ci, pos) -> "in"/"out" (relative to the crossing)

    def set_role(end, value):
        if end in role:
            if role[end] != value:
                raise OrientationConflict(
                    f"arc orientations conflict at crossing {end[0]}")
            return []
        role[end] = value
        work = []
        ci, pos = end
        # the same arc's other end has the opposite role
        e1, e2 = by_arc[tuples[ci][pos]]
        other = e2 if e1 == end else e1
        work.append((other, "out" if value == "in" else "in"))
        # the partner over end of the same crossing, if this is an over end
        if pos in (1, 3):
            partner = (ci, 4 - pos)
            work.append((partner, "out" if value == "in" else "in"))
        return work

    worklist = []
    for ci in range(len(tuples)):
        worklist += set_role((ci, 0), "in")
        worklist += set_role((ci, 2), "out")
    while True:
        while worklist:
            end, value = worklist.pop()
            worklist += set_role(end, value)
        free = [(ci, 1) for ci in range(len(tuples)) if (ci, 1) not in role]
        if not free:
            break
        worklist += set_role(min(free), "in")  # canonical choice for
        # components that are everywhere the over strand

    # components: follow the flow in -> out through each crossing
    comp_of = {}
    comp = 0
    for a0 in sorted(by_arc):
        if a0 in comp_of:
            continue
        a = a0
        while a not in comp_of:
            comp_of[a] = comp
            e1, e2 = by_arc[a]
            ci, pos = e1 if role[e1] == "in" else e2
            if pos in (0, 2):
                out_pos = 2
            else:
                out_pos = 3 if role[(ci, 3)] == "out" else 1
            a = tuples[ci][out_pos]
        comp += 1

    # an arc runs from its outgoing end to its incoming end; a crossing is
    # positive when its over strand comes in at position 3
    arcs = {}
    for a, (e1, e2) in by_arc.items():
        tail, head = (e2, e1) if role[e1] == "in" else (e1, e2)
        arcs[a] = Arc(a, comp_of[a], tail=tail, head=head)
    crossings = [Crossing(ci, 1 if role[(ci, 3)] == "in" else -1, t)
                 for ci, t in enumerate(tuples)]
    d = OrientedDiagram(crossings, arcs, comp)
    if not d.euler_check():
        raise NonPlanar("the Euler characteristic check V - E + F = 2 failed")
    if orient_suffix:
        flips = _parse_orient(orient_suffix, comp)
        if flips:
            d = d.reorient(flips)
    return d


def _parse_orient(suffix, n_components):
    flips = set()
    for item in suffix.split(","):
        item = item.strip()
        if not item:
            continue
        m = re.fullmatch(r"comp(\d+)\s*=\s*([+-])", item)
        if not m:
            raise ParseError(f"bad orient clause {item!r}")
        idx = int(m.group(1)) - 1
        if not 0 <= idx < n_components:
            raise ParseError(f"orient clause names unknown component {idx + 1}")
        if m.group(2) == "-":
            flips.add(idx)
    return flips
