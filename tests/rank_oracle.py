"""Homology dimensions from ranks over the full complex: the oracle for the
dimensions that ``GradedComplex`` and ``HomologySummary`` read off the
elimination kernel's output; and the filtration level of a cycle solved on
the unreduced complex, the oracle for the levels of the tracked reduction.

The ranks come from ``rank_over_q``, a fraction-free echelon over Z of its
own, which shares no code with ``khlee.reduction`` or ``khlee.linalg``.
"""

import math

from khlee.errors import NotACycle
from khlee.lee import _level_solver


def rank_over_q(cols) -> int:
    """Rank over Q of integer columns {row: int}, by a fraction-free echelon
    on the least row index; each reduced column is divided by the gcd of
    its entries, which keeps them small."""
    lead = {}
    for col in cols:
        assert all(c.denominator == 1 for c in col.values()), f"non-integral {col}"
        vec = {r: int(c) for r, c in col.items() if c}
        while vec:
            i = min(vec)
            piv = lead.get(i)
            if piv is None:
                lead[i] = vec
                break
            g = math.gcd(piv[i], vec[i])
            a, b = piv[i] // g, vec[i] // g
            # a vec - b piv clears row i
            vec = {r: a * c for r, c in vec.items()}
            for r, c in piv.items():
                vec[r] = vec.get(r, 0) - b * c
            vec = {r: c for r, c in vec.items() if c}
            if vec:
                g = math.gcd(*vec.values())
                if g != 1:
                    vec = {r: c // g for r, c in vec.items()}
    return len(lead)


def dims_t0_by_rank(cx) -> dict:
    """{(h, q): dim} at t = 0, from the ranks of the t^0 blocks."""
    blocks = {}
    for g, h in cx.gen_h.items():
        blocks.setdefault((h, cx.gen_q[g]), []).append(g)
    ranks = {}
    for (h, q), srcs in blocks.items():
        idx = {g: i for i, g in enumerate(sorted(blocks.get((h + 1, q), [])))}
        cols = []
        for src in sorted(srcs):
            col = {idx[tgt]: c for tgt, c in cx.out[src].items() if cx.gen_q[tgt] == q}
            if col:
                cols.append(col)
        ranks[(h, q)] = rank_over_q(cols)
    dims = {}
    for (h, q), gens in blocks.items():
        d = len(gens) - ranks[(h, q)] - ranks.get((h - 1, q), 0)
        if d:
            dims[(h, q)] = d
    return dims


def dims_t_by_rank(cx, value) -> dict:
    """{h: dim} at t = value, an integer, from the ranks of the full
    differential."""
    assert type(value) is int
    by_h = {}
    for g, h in cx.gen_h.items():
        by_h.setdefault(h, []).append(g)
    ranks = {}
    for h, srcs in by_h.items():
        idx = {g: i for i, g in enumerate(sorted(by_h.get(h + 1, [])))}
        cols = []
        for src in sorted(srcs):
            col = {}
            for tgt, c in cx.out[src].items():
                cv = c * value ** ((cx.gen_q[tgt] - cx.gen_q[src]) // 4)
                if cv:
                    col[idx[tgt]] = cv
            if col:
                cols.append(col)
        ranks[h] = rank_over_q(cols)
    dims = {}
    for h, gens in by_h.items():
        d = len(gens) - ranks[h] - ranks.get(h - 1, 0)
        if d:
            dims[h] = d
    return dims


def filtration_level(filtered, zvec: dict, h: int = 0) -> int:
    """max over z' ~ z of (min generator q-degree in z'), at degree h, on a
    ``FilteredComplex``."""
    boundary = {}
    for g, c in zvec.items():
        for tgt, v in filtered.out.get(g, {}).items():
            boundary[tgt] = boundary.get(tgt, 0) + c * v
    if any(boundary.values()):
        raise NotACycle("the chain has nonzero differential at t=1")
    gens_h = filtered.gens_at(h)
    cols = []
    for src in filtered.gens_at(h - 1):
        col = {tgt: c for tgt, c in filtered.out.get(src, {}).items()}
        if col:
            cols.append(col)
    solver = _level_solver(filtered.gen_q, gens_h, cols)
    return solver(zvec)
