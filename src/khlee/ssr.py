"""Links in connected sums of S^1 x S^2: diagrams with handle regions,
finite full-twist approximation, and the stabilized s-invariants.

A diagram is a braid-like word (sigma letters plus turnbacks) with r marked
handles.  A handle is a contiguous interval of columns at a given height of
the word; the k-th approximation D(k, ..., k) splices one full twist per k
into each handle.  For null-homologous links, s stabilizes once
k >= ceil((n+ + 2) / 2), and the stabilized values bound the genus of
surfaces in the two natural 4-dimensional fillings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .diagrams import BraidWord, OrientedDiagram, from_braid
from .errors import KhleeError, NotNullHomologous, NotPositive, ParseError
from .lee import s_invariant


def torus_word(p: int, q: int) -> tuple:
    """(s_1 ... s_{p-1})^q on p strands; q < 0 gives the mirror."""
    if p < 1:
        raise ParseError("torus braid needs p >= 1")
    row = tuple(range(1, p))
    word = row * abs(q)
    if q < 0:
        word = tuple(-x for x in reversed(word))
    return word


def full_twist(n: int, k: int, offset: int = 0) -> BraidWord:
    """The full twist FT_n^k as a braid word ((s_1 ... s_{n-1})^n)^k on
    n + offset strands, acting on columns offset+1 .. offset+n."""
    if n < 1:
        raise ParseError("full twist needs at least one strand")
    return BraidWord(n + offset, _full_twist_letters(n, k, offset))


def _full_twist_letters(n: int, k: int, offset: int = 0) -> tuple:
    """FT_n^k = T(n, nk), each letter moved ``offset`` columns right."""
    return tuple(x + offset if x > 0 else x - offset for x in torus_word(n, n * k))


@dataclass(frozen=True)
class SsrDiagram:
    """base: the tangle whose closure is D(0); handles: (a, b, pos) strand
    intervals, 1-based inclusive, spliced at word position pos (an interval
    with b < a is empty and marks a handle no strand passes)."""

    base: BraidWord
    handles: tuple

    def __post_init__(self):
        n = self.base.strands
        norm = []
        for h in self.handles:
            if not (isinstance(h, (tuple, list)) and len(h) in (2, 3)
                    and all(type(v) is int for v in h)):
                raise ParseError(f"handle {h!r} must be [a, b, pos] with integer entries")
            a, b, pos = (*h, 0) if len(h) == 2 else h
            if not (1 <= a <= n and 0 <= b <= n and b >= a - 1):
                raise ParseError(f"handle interval [{a}, {b}] out of range")
            if not 0 <= pos <= len(self.base.letters):
                raise ParseError(f"handle position {pos} out of range")
            norm.append((a, b, pos))
        norm.sort()
        for (a1, b1, _), (a2, b2, _) in zip(norm, norm[1:]):
            if b1 >= a2:
                raise ParseError("handle intervals must be pairwise disjoint")
        object.__setattr__(self, "handles", tuple(norm))

    @property
    def r(self) -> int:
        return len(self.handles)

    def mirror(self) -> "SsrDiagram":
        return SsrDiagram(self.base.mirror(), self.handles)


@dataclass
class SsrReport:
    s_minus: int
    s_plus: int
    k_used_minus: int
    k_used_plus: int
    eta: tuple
    ell: int
    gDS_lower: int
    gSD_lower: int
    stabilized: bool | None = None

    def to_dict(self) -> dict:
        return {
            "s_minus": self.s_minus,
            "s_plus": self.s_plus,
            "k_used_minus": self.k_used_minus,
            "k_used_plus": self.k_used_plus,
            "eta": list(self.eta),
            "components": self.ell,
            "gDS_lower": self.gDS_lower,
            "gSD_lower": self.gSD_lower,
            "stabilized": self.stabilized,
        }


def base_diagram(s: SsrDiagram) -> OrientedDiagram:
    return from_braid(s.base)


def eta(s: SsrDiagram) -> tuple:
    """Algebraic intersection numbers with the surgery spheres."""
    d = base_diagram(s)
    out = []
    for a, b, pos in s.handles:
        total = 0
        for c in range(a, b + 1):
            total += 1 if d.slot_direction[(pos, c)] else -1
        out.append(total)
    return tuple(out)


def is_null_homologous(s: SsrDiagram) -> bool:
    return all(e == 0 for e in eta(s))


def is_two_divisible(s: SsrDiagram) -> bool:
    return all(e % 2 == 0 for e in eta(s))


def insert_twists(s: SsrDiagram, kvec) -> OrientedDiagram:
    """The finite approximation diagram D(k_1, ..., k_r) in S^3."""
    kvec = tuple(kvec)
    if len(kvec) != s.r:
        raise KhleeError(f"expected {s.r} twist counts, got {len(kvec)}")
    letters = list(s.base.letters)
    # splice from the top position down so earlier indices stay valid
    order = sorted(zip(s.handles, kvec), key=lambda hk: -hk[0][2])
    for (a, b, pos), k in order:
        width = b - a + 1
        if width >= 2 and k != 0:
            letters[pos:pos] = list(_full_twist_letters(width, k, offset=a - 1))
    return from_braid(BraidWord(s.base.strands, tuple(letters), s.base.orientation))


def approx_threshold(s: SsrDiagram, side: str) -> int:
    """Smallest k guaranteeing stabilization: ceil((n+ + 2)/2) on the minus
    side, ceil((n- + 2)/2) on the plus side."""
    d = base_diagram(s)
    if side == "minus":
        return math.ceil((d.n_plus + 2) / 2)
    if side == "plus":
        return math.ceil((d.n_minus + 2) / 2)
    raise KhleeError(f"side must be 'minus' or 'plus', not {side!r}")


def s_ssr(s: SsrDiagram, engine: str = "auto", limit=None,
          check_stabilized: bool = False) -> SsrReport:
    """The stabilized invariants s_-(L), s_+(L) and the genus lower bounds."""
    ev = eta(s)
    if any(e != 0 for e in ev):
        raise NotNullHomologous(f"eta = {ev}; s is defined for eta = 0 only")
    k_minus = approx_threshold(s, "minus")
    k_plus = approx_threshold(s, "plus")
    d_minus = insert_twists(s, (k_minus,) * s.r)
    ell = d_minus.n_components
    rep_minus = s_invariant(d_minus, engine=engine, limit=limit,
                            with_module=False, _compute_plus=False)
    s_minus = rep_minus.s
    # s_+(L) = -s(m(D(-k))): mirroring the twisted diagram reuses the splice
    d_plus = insert_twists(s, (-k_plus,) * s.r).mirror()
    rep_plus = s_invariant(d_plus, engine=engine, limit=limit,
                           with_module=False, _compute_plus=False)
    s_plus = -rep_plus.s
    stabilized = None
    if check_stabilized:
        d2 = insert_twists(s, (k_minus + 1,) * s.r)
        r2 = s_invariant(d2, engine=engine, limit=limit,
                         with_module=False, _compute_plus=False)
        stabilized = r2.s == s_minus
    gDS = max(0, math.ceil((s_minus - ell + 1) / 2))
    gSD = max(0, math.ceil((s_plus - ell + 1) / 2))
    return SsrReport(s_minus, s_plus, k_minus, k_plus, ev, ell, gDS, gSD,
                     stabilized)


def stabilization_check(s: SsrDiagram, k_max: int, engine: str = "auto",
                        limit=None, shift_per_k: int = 0):
    """s(D(k, ..., k)) for k from the minus threshold up to k_max.

    shift_per_k subtracts k*shift_per_k from each value (used for the
    conjectural shifted stabilization of non-null-homologous links).
    Returns (table, stabilized flag); the table rows are (k, s, shifted s).
    """
    k0 = approx_threshold(s, "minus")
    if k_max < k0:
        raise KhleeError(f"k_max = {k_max} is below the threshold {k0}")
    table = []
    for k in range(k0, k_max + 1):
        d = insert_twists(s, (k,) * s.r)
        rep = s_invariant(d, engine=engine, limit=limit,
                          with_module=False, _compute_plus=False)
        table.append((k, rep.s, rep.s - shift_per_k * k))
    shifted = [row[2] for row in table]
    stabilized = all(v == shifted[0] for v in shifted)
    return table, stabilized


def bennequin_report(b: BraidWord, engine: str = "auto", limit=None) -> dict:
    """Self-linking number of the braid closure against the slice-Bennequin
    bound sl + 1 <= s_+.  sl = wr - strands holds for a braid closure only,
    so a word with a turnback letter or a downward strand is refused."""
    reason = ("a turnback letter" if len(b.sigma_letters) < len(b.letters) else
              "a downward strand" if not all(b.orientation) else None)
    if reason:
        raise KhleeError(f"the word has {reason}, so its closure is not a braid "
                         f"closure and sl is not wr - strands")
    sl = b.writhe_all_up() - b.strands
    d = from_braid(b)
    rep = s_invariant(d.mirror(), engine=engine, limit=limit,
                      with_module=False, _compute_plus=False)
    s_plus = -rep.s
    return {"sl": sl, "s_plus": s_plus, "s_plus_bound_ok": sl + 1 <= s_plus}


def positivity_formula(s: SsrDiagram) -> int:
    """n+ - Seif + 1 of the base diagram; the paper's sandwich bound
    s_-(L) <= n+ - Seif + 1 <= s_+(L) is checked by the caller."""
    d = base_diagram(s)
    if d.n_minus != 0:
        raise NotPositive(f"base diagram has {d.n_minus} negative crossings")
    return d.n_plus - d.seifert_count() + 1
