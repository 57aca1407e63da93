"""Homology dimensions from ranks over the full complex: the oracle for the
dimensions that ``GradedComplex`` and ``HomologySummary`` read off the
elimination kernel's output; and the filtration level of a cycle solved on
the unreduced complex, the oracle for the levels of the tracked reduction.

The ranks come from ``khlee.linalg.rank_of_columns`` (an echelon form over
Q), which shares no code with ``khlee.reduction.scan_reduce``.
"""

from fractions import Fraction

from khlee.errors import NotACycle
from khlee.lee import _level_solver
from khlee.linalg import rank_of_columns


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
            col = {idx[tgt]: c for tgt, (c, e) in cx.out[src].items() if e == 0}
            if col:
                cols.append(col)
        ranks[(h, q)] = rank_of_columns(cols)
    dims = {}
    for (h, q), gens in blocks.items():
        d = len(gens) - ranks[(h, q)] - ranks.get((h - 1, q), 0)
        if d:
            dims[(h, q)] = d
    return dims


def dims_t_by_rank(cx, value) -> dict:
    """{h: dim} at t = value, from the ranks of the full differential."""
    v = Fraction(value)
    by_h = {}
    for g, h in cx.gen_h.items():
        by_h.setdefault(h, []).append(g)
    ranks = {}
    for h, srcs in by_h.items():
        idx = {g: i for i, g in enumerate(sorted(by_h.get(h + 1, [])))}
        cols = []
        for src in sorted(srcs):
            col = {}
            for tgt, (c, e) in cx.out[src].items():
                cv = c * v**e
                if cv:
                    col[idx[tgt]] = cv
            if col:
                cols.append(col)
        ranks[h] = rank_of_columns(cols)
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
            boundary[tgt] = boundary.get(tgt, Fraction(0)) + c * v
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
