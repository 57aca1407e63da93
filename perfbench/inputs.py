"""Seeded input generators for the benchmark workloads.

Everything here is pure Python on tuples and strings: the program under test
receives only the words and PD texts made here, never the seed.
"""

from __future__ import annotations

import random


def rng_for(workload: str, seed: int) -> random.Random:
    """One generator per (workload, seed); string seeding is stable across
    Python runs and independent of PYTHONHASHSEED."""
    return random.Random(f"khlee-bench/{workload}/{seed}")


def braid_word(rng: random.Random, strands: int, length: int, mixed: bool) -> tuple:
    """A word of ``length`` sigma letters on ``strands`` strands that uses every
    generator at least once, so the closure is a connected diagram (a strand
    that never crosses would close to a crossingless circle, which a PD code
    cannot hold)."""
    if strands < 2 or length < strands - 1:
        raise ValueError(f"no connected word of {length} letters on {strands} strands")
    gens = list(range(1, strands)) + [rng.randint(1, strands - 1)
                                      for _ in range(length - (strands - 1))]
    rng.shuffle(gens)
    if not mixed:
        return tuple(gens)
    return tuple(g if rng.random() < 0.5 else -g for g in gens)


def cube_size(strands: int, letters) -> int:
    """Generators of the full cube of resolutions of the closure: the sum of
    2^(circles) over all resolutions.  Both smoothings of every crossing
    are summed, so the sign convention does not matter."""
    m = len(letters)

    def node(col, level):
        return col * (m + 1) + level

    total = 0
    for choice in range(1 << m):
        parent = list(range(strands * (m + 1)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def join(a, b):
            parent[find(a)] = find(b)

        for c in range(strands):  # the closure arcs
            join(node(c, m), node(c, 0))
        for k, x in enumerate(letters):
            i = abs(x) - 1
            for c in range(strands):
                if c not in (i, i + 1):
                    join(node(c, k), node(c, k + 1))
            if (choice >> k) & 1:  # cap below, cup above
                join(node(i, k), node(i + 1, k))
                join(node(i, k + 1), node(i + 1, k + 1))
            else:
                join(node(i, k), node(i, k + 1))
                join(node(i + 1, k), node(i + 1, k + 1))
        circles = len({find(x) for x in range(len(parent))})
        total += 1 << circles
    return total


def braid_to_pd(strands: int, letters) -> str:
    """PD text of the closure of a braid word, strands running upward.

    Each crossing lists the incoming under-strand first, then goes
    counterclockwise: ``X(b,b',a',a)`` for sigma_i and ``X(a,b,b',a')`` for
    sigma_i^-1, where a, b are the labels entering columns i, i+1 from below
    and a', b' the labels leaving columns i, i+1 at the top.
    """
    label = list(range(1, strands + 1))  # label[c] runs up column c+1
    nxt = strands + 1
    crossings = []
    for x in letters:
        i = abs(x) - 1
        a, b = label[i], label[i + 1]
        a2, b2 = nxt, nxt + 1
        nxt += 2
        crossings.append((b, b2, a2, a) if x > 0 else (a, b, b2, a2))
        label[i], label[i + 1] = a2, b2
    # the closure joins the top of each column to its bottom
    close = {top: bottom for bottom, top in enumerate(label, start=1) if top != bottom}
    if len(close) != strands:
        raise ValueError("every column must carry a crossing")
    used = sorted({close.get(v, v) for t in crossings for v in t})
    renumber = {v: k for k, v in enumerate(used, start=1)}
    body = ", ".join(
        "X(" + ",".join(str(renumber[close.get(v, v)]) for v in t) + ")" for t in crossings)
    return f"PD[{body}]"

