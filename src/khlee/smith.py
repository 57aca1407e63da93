"""The homology of a complex as a graded Q[t]-module.

``homology_qt`` runs the elimination kernel of ``reduction`` to the end:
``scan_reduce`` clears the unit (t^0) entries, and ``_graded_snf`` clears
the rest at exponents k = 1, 2, ...  Homogeneity keeps every entry a
monomial c*t^k, so the invariant factors are powers of t.  A torsion summand
Q[t]/(t^k) is reported at the bidegree of the class that generates it (the
cokernel side); its companion generator at (h-1, q-4k) is what survives in
the t=0 specialization.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .complexes import GradedComplex
from .errors import InconsistentModule, KhleeError
from .reduction import eliminate, entry_tables, scan_reduce


@dataclass
class HomologySummary:
    free: list  # sorted (h, q) pairs with multiplicity
    torsion: list  # sorted (h, q, k): summand Q[t]/(t^k) living at (h, q)

    def free_rank(self) -> int:
        return len(self.free)

    def dims_t0(self) -> dict:
        """Khovanov (t=0) dimensions implied by the module structure."""
        dims = Counter(self.free)
        for h, q, k in self.torsion:
            dims[(h, q)] += 1
            dims[(h - 1, q - 4 * k)] += 1
        return dict(dims)

    def dims_t1(self) -> dict:
        """Lee (t=1) dimensions: only the free part survives."""
        return dict(Counter(h for h, _q in self.free))

    def free_q_at(self, h: int) -> list:
        return sorted(q for hh, q in self.free if hh == h)

    def to_dict(self) -> dict:
        return {
            "free": [list(x) for x in self.free],
            "torsion": [list(x) for x in self.torsion],
        }


def _graded_snf(cx: GradedComplex) -> HomologySummary:
    """The graded Smith form of a complex: the kernel's passes k = 1, 2, ...

    Each pivot of the pass at exponent k splits off one Q[t]/(t^k) summand
    at its target's (h, q); the generators no pass eliminates are the free
    part.  The passes drop the entries into a pivot's source and out of its
    target, which is sound only if d o d = 0, so that is checked first.
    """
    try:
        cx.check_d_squared()
    except KhleeError as e:
        raise InconsistentModule(f"not a chain complex: {e}") from None
    out, inc = entry_tables(cx)
    gen_q = cx.gen_q
    torsion = []
    while any(out.values()):
        k = min(gen_q[t] - gen_q[s] for s, row in out.items() for t in row) // 4
        pairs = eliminate(out, inc, k, gen_q)
        if k:
            torsion += [(cx.gen_h[c0], cx.gen_q[c0], k) for _b, c0 in pairs]
    free = [(cx.gen_h[g], cx.gen_q[g]) for g in out]
    return HomologySummary(sorted(free), sorted(torsion))


def homology_qt(cx: GradedComplex) -> HomologySummary:
    """Homology of the complex as a graded Q[t]-module."""
    reduced = scan_reduce(cx)
    return _graded_snf(reduced)
