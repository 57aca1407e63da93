"""Finite chain complexes of free Q[t]-modules with q-graded generators.

Homogeneity makes every differential entry a monomial c*t^k with
q(target) = q(source) + 4k, so the q-degrees fix k and an entry is stored
as its coefficient c alone, in the one number form of ``linalg``: an int
where integral, else a Fraction.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import KhleeError, ParseError
from .linalg import _exact


class GradedComplex:
    """Generators carry (h, q); the differential raises h by one."""

    def __init__(self):
        self.gen_h = {}  # gen id -> h
        self.gen_q = {}  # gen id -> q
        self.out = {}  # src -> {tgt: coeff}, of power (q(tgt) - q(src)) // 4
        self._next = 0
        self.pos = None  # gen id -> resolution bitmask, on a cube (build_cube)

    # -- construction ---------------------------------------------------------

    def add_gen(self, h: int, q: int, gid=None) -> int:
        if gid is None:
            gid = self._next
        self._next = max(self._next, gid + 1)
        if gid in self.gen_h:
            raise KhleeError(f"duplicate generator id {gid}")
        self.gen_h[gid] = h
        self.gen_q[gid] = q
        self.out[gid] = {}
        return gid

    def add_entry(self, src: int, tgt: int, coeff, texp: int) -> None:
        c = coeff if type(coeff) is int else _exact(Fraction(coeff))
        if c == 0:
            return
        if self.gen_h[tgt] != self.gen_h[src] + 1:
            raise KhleeError("differential must raise h by one")
        if texp < 0:
            raise KhleeError(f"entry {src}->{tgt} with a negative power t^{texp}")
        if self.gen_q[tgt] != self.gen_q[src] + 4 * texp:
            raise KhleeError(
                f"inhomogeneous entry {src}->{tgt}: q {self.gen_q[src]} -> "
                f"{self.gen_q[tgt]} with t^{texp}")
        c = _exact(c + self.out[src].get(tgt, 0))
        if c:
            self.out[src][tgt] = c
        else:
            del self.out[src][tgt]

    # -- views ------------------------------------------------------------------

    @property
    def n_gens(self) -> int:
        return len(self.gen_h)

    def gens(self):
        return sorted(self.gen_h)

    def gens_at(self, h: int):
        return sorted(g for g, hh in self.gen_h.items() if hh == h)

    # -- checks -------------------------------------------------------------------

    def check_d_squared(self) -> None:
        for src, row in self.out.items():
            acc = {}
            for mid, c1 in row.items():
                for tgt, c2 in self.out[mid].items():
                    acc[tgt] = acc.get(tgt, 0) + c1 * c2
            for tgt, total in acc.items():
                if total != 0:
                    e = (self.gen_q[tgt] - self.gen_q[src]) // 4
                    raise KhleeError(f"d^2 != 0 at {src} -> {tgt} (t^{e}: {total})")

    # -- specializations -----------------------------------------------------------

    def dims_at_t0(self) -> dict:
        """Khovanov specialization: {(h, q): dim} over Q at t = 0.

        The t^0 part of the differential (the entries of equal q) is the
        Khovanov complex, reduced at once with any entry that no power of t
        fits, for ``scan_reduce`` to refuse.  It ends with no entry left, so
        the dimensions are the surviving generator counts.
        """
        from .reduction import scan_reduce

        gq = self.gen_q
        t0 = GradedComplex()
        t0.gen_h, t0.gen_q, t0.pos = self.gen_h, gq, self.pos
        t0.out = {g: {t: c for t, c in row.items() if (gap := gq[t] - gq[g]) <= 0 or gap % 4}
                  for g, row in self.out.items()}
        dims = {}
        for g, h in scan_reduce(t0).gen_h.items():
            dims[(h, gq[g])] = dims.get((h, gq[g]), 0) + 1
        return dims

    # -- text export (External Interfaces) -----------------------------------------

    def export_text(self) -> str:
        lines = []
        for g in self.gens():
            lines.append(f"GEN {self.gen_h[g]} {self.gen_q[g]} {g}")
        for src in self.gens():
            for tgt in sorted(self.out[src]):
                e = (self.gen_q[tgt] - self.gen_q[src]) // 4
                lines.append(f"DIF {self.gen_h[src]} {src} {tgt} {self.out[src][tgt]} t^{e}")
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, text: str) -> "GradedComplex":
        """The complex of ``export_text`` output; ``ParseError`` names the
        first line that is malformed or breaks the complex's rules, or the
        pair of generators where d o d is not zero."""
        c = cls()
        pending = []
        for n, line in enumerate(text.splitlines(), 1):
            parts = line.split()
            try:
                if parts and parts[0] == "GEN" and len(parts) == 4:
                    h, q, gid = map(int, parts[1:])
                    c.add_gen(h, q, gid=gid)
                elif parts and parts[0] == "DIF" and len(parts) == 6 and parts[5][:2] == "t^":
                    h, src, tgt = map(int, parts[1:4])
                    pending.append((n, h, src, tgt, Fraction(parts[4]), int(parts[5][2:])))
                elif parts:
                    raise ParseError("expected 'GEN h q id' or 'DIF h src tgt coeff t^e'")
            except (KhleeError, ValueError, ZeroDivisionError) as e:
                raise ParseError(f"line {n}: {e}") from None
        for n, h, src, tgt, coeff, e in pending:
            try:
                for g in (src, tgt):
                    if g not in c.gen_h:
                        raise ParseError(f"generator {g} is not defined")
                if c.gen_h[src] != h:
                    raise ParseError(f"h {h} is not the h {c.gen_h[src]} of generator {src}")
                if tgt in c.out[src]:
                    raise ParseError(f"a second entry {src}->{tgt}")
                c.add_entry(src, tgt, coeff, e)
            except KhleeError as err:
                raise ParseError(f"line {n}: {err}") from None
        try:
            c.check_d_squared()
        except KhleeError as err:
            raise ParseError(f"not a chain complex: {err}") from None
        return c
