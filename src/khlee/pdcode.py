"""PD-code input: parsing and the planarity check.

Grammar: ``PD[X(a,b,c,d), ...]`` with an optional suffix
``; orient: comp1=+,comp2=-``.  Entries follow the dominant community
convention: the incoming under-strand first, then counterclockwise.  Arc
labels are arbitrary distinct integers, and the code itself fixes the
orientation: a component that passes under anywhere runs into each under
passage at position 0, and one that passes only over runs into its least
crossing (in code order) at position 1.  Components are numbered by their
least label.  The orient suffix reverses chosen components afterwards.

The crossing tuples are the rotation system of a planar map, so the parsed
diagram needs no layout: each arc runs from its outgoing to its incoming
crossing end, and the faces traced from the rotations must satisfy Euler's
formula.  Codes of split links are accepted.
"""

from __future__ import annotations

import re

from .diagrams import Arc, OrientedDiagram
from .errors import NonPlanar, ParseError

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
        return OrientedDiagram({})

    # the two crossing ends (ci, pos) of every arc label
    by_arc = {}
    for ci, t in enumerate(tuples):
        for pos, a in enumerate(t):
            by_arc.setdefault(a, []).append((ci, pos))
    for a, ends in by_arc.items():
        if len(ends) != 2:
            raise ParseError(f"arc {a} appears {len(ends)} times; expected 2")

    # walk each component from its least label: through a crossing from
    # position p to p + 2, then along the arc.  A component that passes
    # under anywhere enters at position 0 (the constructor checks that it
    # does so everywhere); one that passes only over enters its least
    # crossing at position 1.
    flow, n_comp = {}, 0  # label -> (component, tail, head)
    for a0 in sorted(by_arc):
        if a0 in flow:
            continue
        walk, a = [], a0
        tail = start = by_arc[a0][0]
        while True:
            e1, e2 = by_arc[a]
            head = e2 if e1 == tail else e1
            walk.append((a, tail, head))
            tail = (head[0], (head[1] + 2) % 4)
            if tail == start:
                break
            a = tuples[tail[0]][tail[1]]
        unders = [pos for _, _, (_, pos) in walk if pos % 2 == 0]
        forward = unders[0] == 0 if unders else min(h for _, _, h in walk)[1] == 1
        for a, tail, head in walk:
            flow[a] = (n_comp, tail, head) if forward else (n_comp, head, tail)
        n_comp += 1
    d = OrientedDiagram({a: Arc(a, *flow[a]) for a in by_arc})
    if not d.euler_check():
        raise NonPlanar("the Euler characteristic check V - E + F = 2 failed")
    if orient_suffix:
        flips = _parse_orient(orient_suffix, d.n_components)
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
