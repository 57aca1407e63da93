"""Canonical Lee cycles, quantum filtration levels, the s-invariant, and
the engine dispatcher.

The Lee cycle of an orientation o lives on the oriented resolution: each
circle C gets (-1)^{c(C)} 1 + x, where c(C) is the checkerboard colour of
the diagram face on the left of C (``OrientedDiagram.seifert_signs``).
Both engines end in the same tail: build a complex (``brute``: the cube of
resolutions; ``scan``: the tangle scanner's closure), eliminate its unit
entries with the Lee cycles tracked through the retraction
(``reduction.scan_reduce``), and solve for the filtration levels on what is
left.  The level of [z] is the q-degree of the first coordinate at which z
stops being reducible modulo boundaries.  ``run_engine`` picks the engine
for every caller, and under ``both`` checks one against the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import qt
from .cube import CubeComplex, FilteredComplex, build_cube, specialize_t
from .diagrams import OrientedDiagram
from .errors import InconsistentModule, KhleeError, NotACycle
from .frobenius import FrobeniusData
from .linalg import ColumnSpace
from .reduction import scan_reduce
from .smith import HomologySummary, homology_qt
from .tlscan import scan_complex, scan_levels

ENGINES = ("auto", "brute", "scan", "both")
# brute reports the Q[t]-module, which needs the full cube, up to this size
MODULE_CROSSING_MAX = 12


@dataclass
class LeeChain:
    """A rational combination of circle labelings of one resolution."""

    diagram: OrientedDiagram  # reoriented per the chain's orientation
    orientation: tuple  # +1/-1 per component of the original diagram
    choice: tuple  # the oriented resolution of the reoriented diagram
    circle_signs: tuple  # Lee sign per circle, in resolution order
    terms: dict  # label mask -> Fraction

    @property
    def h(self) -> int:
        return 0

    def q_level(self) -> int:
        """Minimum generator q-degree over the nonzero terms (recomputed)."""
        d = self.diagram
        base = sum(self.choice) + d.n_plus - 2 * d.n_minus
        k = len(self.circle_signs)
        best = None
        for mask, c in self.terms.items():
            if not c:
                continue
            q = base + sum(-1 if (mask >> j) & 1 else 1 for j in range(k))
            best = q if best is None else min(best, q)
        if best is None:
            raise KhleeError("empty Lee chain")
        return best

    def conjugate(self) -> "LeeChain":
        """The chain of the globally reversed orientation (all signs flip)."""
        k = len(self.circle_signs)
        terms = {}
        for mask, c in self.terms.items():
            ones = k - bin(mask).count("1")
            terms[mask] = c if ones % 2 == 0 else -c
        return LeeChain(self.diagram, tuple(-x for x in self.orientation),
                        self.choice, tuple(-s for s in self.circle_signs), terms)


def _expand_terms(signs) -> dict:
    terms = {0: Fraction(1)}
    for j, eps in enumerate(signs):
        new = {}
        for mask, c in terms.items():
            new[mask] = c * eps  # label 1 on circle j
            new[mask | (1 << j)] = c  # label x on circle j
        terms = new
    return terms


def _check_cycle_local(d: OrientedDiagram, res, signs) -> None:
    """Verify d(chain) = 0 at t = 1 on the edges leaving the oriented
    resolution.  Such an edge merges the two Seifert circles at its
    crossing, which are distinct (``seifert_signs`` gives them opposite
    signs).  The chain is the tensor product of eps_j*1 + x over the
    circles, so the edge's image is the product of the two merged factors
    tensored with the others, which are nonzero: the product alone decides."""
    arc2circle = {a: j for j, circle in enumerate(res.circles) for a in circle.arcs}
    for i, cross in enumerate(d.crossings):
        if res.choice[i] != 0:
            continue
        involved = sorted({arc2circle[a] for a in cross.ends})
        acc = [0, 0]  # coefficients of 1 and x
        if len(involved) == 2:
            e0, e1 = (signs[j] for j in involved)
            for (a, b), terms in FrobeniusData.mul.items():
                c = (e0 if a == 0 else 1) * (e1 if b == 0 else 1)
                for coeff, _te, lab in terms:
                    acc[lab] += c * coeff
        # ends on one circle: the edge splits it, and no comultiplication
        # of eps*1 + x is zero
        if len(involved) != 2 or any(acc):
            raise NotACycle(
                f"Lee chain is not a cycle at t=1 (crossing {i}); this "
                "signals a circle-sign computation bug")


def lee_generator(d: OrientedDiagram, orientation=None) -> LeeChain:
    """The canonical Lee cycle for the given component orientation."""
    if d.n_components == 0:
        raise KhleeError("the empty diagram has no Lee generator")
    if orientation is None:
        orientation = (1,) * d.n_components
    orientation = tuple(orientation)
    if len(orientation) != d.n_components:
        raise KhleeError("orientation vector length must equal component count")
    flips = {i for i, s in enumerate(orientation) if s < 0}
    dd = d.reorient(flips) if flips else d
    res = dd.resolve(dd.oriented_choice())
    signs = dd.seifert_signs(res)
    _check_cycle_local(dd, res, signs)
    terms = _expand_terms(signs)
    return LeeChain(dd, orientation, tuple(res.choice), tuple(signs), terms)


# ---------------------------------------------------------------------------
# Filtration levels


def _level_solver(gen_q, gens_h0, columns):
    """Prepare the descending-level solver.

    Coordinates are the h=0 generators ordered by ascending q; columns are
    the boundaries.  Returns a function mapping a vector {gid: Fraction} to
    the filtration level of its homology class.
    """
    order = sorted(gens_h0, key=lambda g: (gen_q[g], g))
    index = {g: i for i, g in enumerate(order)}
    space = ColumnSpace()
    for col in columns:
        space.insert({index[g]: v for g, v in col.items() if v})

    def level(vec) -> int:
        v = {index[g]: c for g, c in vec.items() if c}
        if not v:
            raise InconsistentModule("zero vector has no filtration level")
        residual = space.reduce(v)
        if not residual:
            raise InconsistentModule("the chain is a boundary; no Lee class found")
        return gen_q[order[min(residual)]]

    return level


def filtration_level(filtered: FilteredComplex, zvec: dict, h: int = 0) -> int:
    """max over z' ~ z of (min generator q-degree in z'), at degree h."""
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


def lee_vector_in_cube(chain: LeeChain, cube: CubeComplex) -> dict:
    return {cube.gen(chain.choice, mask): c for mask, c in chain.terms.items() if c}


# ---------------------------------------------------------------------------
# The s-invariant


@dataclass
class SReport:
    orientation: tuple
    s: int
    s_min: int
    s_max: int
    s_minus: int
    s_plus: int
    free_gen_q_degrees: list

    def to_dict(self) -> dict:
        return {
            "s": self.s,
            "s_min": self.s_min,
            "s_max": self.s_max,
            "s_minus": self.s_minus,
            "s_plus": self.s_plus,
            "orientation": list(self.orientation),
            "free_gen_q_degrees": list(self.free_gen_q_degrees),
        }


def _brute_levels(dd: OrientedDiagram, chain: LeeChain, limit, want_module=False):
    """(levels, module) on the cube of resolutions reduced by the unit
    elimination, the Lee cycles tracked through it.

    The levels are those of (s_o, s_obar, s_o + s_obar, s_o - s_obar).  They
    read only degrees -1 and 0, so the cube is built on that window unless
    the module is wanted, which needs every degree; the module is left out
    (None) above MODULE_CROSSING_MAX crossings.
    """
    want_module = want_module and dd.n_crossings <= MODULE_CROSSING_MAX
    cube = build_cube(dd, limit=limit, h_window=None if want_module else (-1, 0))
    vo = {g: qt.mono(c) for g, c in lee_vector_in_cube(chain, cube).items()}
    vbar = {g: qt.mono(c) for g, c in lee_vector_in_cube(chain.conjugate(), cube).items()}
    red, (vo, vbar) = scan_reduce(cube.complex, tracked=[vo, vbar])
    levels = _reduced_levels_from_tracked(red, vo, vbar)
    return levels, homology_qt(red) if want_module else None


def _reduced_levels_from_tracked(red, vo, vbar):
    """The four levels, on a reduced complex with tracked vectors (Qt)."""
    filt = specialize_t(red, 1)

    def at1(v):
        out = {}
        for g, poly in v.items():
            c = qt.eval_at(poly, 1)
            if c:
                out[g] = c
        return out

    zo, zbar = at1(vo), at1(vbar)
    gens_h0 = [g for g, hh in filt.gen_h.items() if hh == 0]
    cols = [dict(filt.out[src]) for src in filt.gens_at(-1) if filt.out[src]]
    solver = _level_solver(filt.gen_q, gens_h0, cols)
    plus = {g: zo.get(g, Fraction(0)) + zbar.get(g, Fraction(0)) for g in set(zo) | set(zbar)}
    minus = {g: zo.get(g, Fraction(0)) - zbar.get(g, Fraction(0)) for g in set(zo) | set(zbar)}
    return solver(zo), solver(zbar), solver(plus), solver(minus)


def run_engine(d: OrientedDiagram, engine, brute, scan, checked):
    """The engine dispatcher, through which every s-invariant and every
    homology computation passes.

    ``brute`` and ``scan`` are callables computing the same result for d
    with the two engines.  ``auto`` runs scan when d has a braid and brute
    otherwise; ``scan`` on a diagram without one raises the scanner's
    KhleeError.  ``both`` runs brute, the oracle, plus scan when d has a
    braid, and returns brute's result.  ``checked(result)`` names the values
    the engines must agree on, None where an engine left one out; a
    disagreement raises KhleeError naming both values.
    """
    if engine not in ENGINES:
        raise KhleeError(f"unknown engine {engine!r}; choose from {', '.join(ENGINES)}")
    if engine == "auto":
        engine = "scan" if d.braid is not None else "brute"
    if engine == "scan":
        return scan()
    result = brute()
    if engine == "both" and d.braid is not None:
        ours, theirs = checked(result), checked(scan())
        for what, value in ours.items():
            other = theirs[what]
            if value is not None and other is not None and value != other:
                raise KhleeError(
                    f"brute and scan disagree on {what}: brute {value}, scan {other}")
    return result


def deformed_complex(d: OrientedDiagram, engine: str = "auto", limit=None):
    """The deformed complex of d over Q[t], with every unit entry
    eliminated: brute reduces the full cube in cube order, scan the
    scanner's closure.
    ``both`` checks that the two have the same Q[t]-module."""
    return run_engine(
        d, engine,
        lambda: scan_reduce(build_cube(d, limit=limit).complex),
        lambda: scan_complex(d, limit=limit),
        lambda cx: {"the Q[t]-module": homology_qt(cx)})


def s_invariant(d: OrientedDiagram, orientation=None, engine: str = "auto",
                limit=None, with_module: bool = True, _compute_plus: bool = True) -> SReport:
    """Full s-invariant report for one orientation class."""
    if d.n_components == 0:
        # the empty link has s = 1 by convention, for both signs
        return SReport((), 1, 0, 2, 1, 1, [0])
    chain = lee_generator(d, orientation)
    dd = chain.diagram
    levels, summary = run_engine(
        dd, engine,
        lambda: _brute_levels(dd, chain, limit, with_module),
        lambda: scan_levels(dd, chain, limit=limit, want_module=with_module),
        lambda result: {"the levels of (s_o, s_obar, s_o + s_obar, s_o - s_obar)": result[0],
                        "the Q[t]-module": result[1]})
    lo, lbar, lplus, lminus = levels
    if lo != lbar:
        raise InconsistentModule(f"q[s_o] = {lo} differs from q[s_obar] = {lbar}")
    smin = lo
    if sorted((lplus, lminus)) != [smin, smin + 2]:
        raise InconsistentModule(
            f"combination levels {lplus, lminus} are not {{s_min, s_min+2}}")
    s = smin + 1
    ell = d.n_components
    if (s - (ell - 1)) % 2 != 0:
        raise InconsistentModule(f"s = {s} violates parity for {ell} components")
    s_plus = None
    if _compute_plus:
        rep_m = s_invariant(d.mirror(), orientation, engine=engine, limit=limit,
                            with_module=False, _compute_plus=False)
        s_plus = -rep_m.s
        if s_plus < s:
            raise InconsistentModule(f"s_- = {s} exceeds s_+ = {s_plus}")
    free_q = summary.free_q_at(0) if summary is not None else []
    if summary is not None and summary.free_rank() != 2**ell:
        raise InconsistentModule(
            f"free rank {summary.free_rank()} != 2^{ell}")
    return SReport(chain.orientation, s, smin, smin + 2, s,
                   s_plus if s_plus is not None else s, free_q)


def s_all_orientations(d: OrientedDiagram, engine: str = "auto", limit=None):
    """One report per orientation class {o, obar}."""
    ell = d.n_components
    if ell == 0:
        return [s_invariant(d)]
    if 2 ** (ell - 1) > 64:
        from .errors import ResourceLimit
        raise ResourceLimit(f"too many orientation classes for {ell} components")
    reports = []
    for bits in range(2 ** (ell - 1)):
        o = (1,) + tuple(-1 if (bits >> i) & 1 else 1 for i in range(ell - 1))
        reports.append(s_invariant(d, o, engine=engine, limit=limit,
                                   with_module=False))
    return reports


def s_from_module(summary: HomologySummary, ell: int):
    """Cross-check: for knots the two free generators sit at q = s -+ 1."""
    if ell != 1:
        return None
    if summary.free_rank() != 2:
        raise InconsistentModule(f"free rank {summary.free_rank()} != 2 for a knot")
    (h1, q1), (h2, q2) = summary.free
    if h1 != 0 or h2 != 0 or abs(q1 - q2) != 2:
        raise InconsistentModule(f"free part {summary.free} has the wrong shape")
    return (q1 + q2) // 2
