"""Canonical Lee cycles, quantum filtration levels, the s-invariant, and
the engine dispatcher.

The Lee cycle of an orientation o lives on the oriented resolution: each
circle C gets (-1)^{c(C)} 1 + x, where c(C) is the checkerboard colour of
the diagram face on the left of C (``OrientedDiagram.seifert_signs``).
Both engines end in the same tail: build a complex (``brute``: the cube of
resolutions; ``scan``: the tangle scanner's closure), eliminate its unit
entries with the Lee cycles tracked through the retraction
(``reduction.scan_reduce``), and solve for the filtration levels on what is
left.  The levels read the cycles at t = 1 only, and setting t := 1 is a
ring map, so the cycles are tracked as their values there.  The level of
[z] is the q-degree of the first coordinate at which z stops being
reducible modulo boundaries.  ``run_engine`` picks the engine for every
caller, and under ``both`` checks one against the other.

s_+ = -s(m(D)) needs the mirror's Lee classes.  C(m(D)) is the dual of
C(D) with h and q negated, so ``brute`` reads them off D's own cube as
covectors, pulled back through the same elimination, and solves their
levels on the transposed map C^0 -> C^1 with q negated; ``scan`` scans
m(D).  Every module reported is checked against Lee's count of its free
ranks by degree (``check_lee_degrees``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cube import CubeComplex, build_cube, specialize_t
from .diagrams import OrientedDiagram
from .errors import InconsistentModule, KhleeError, NotACycle, ResourceLimit
from .frobenius import FrobeniusData
from .linalg import ColumnSpace
from .reduction import scan_reduce
from .smith import homology_qt
from .tlscan import scan_complex, scan_levels

ENGINES = ("auto", "brute", "scan", "both")
# brute reports the Q[t]-module, which needs the full cube, up to this size
MODULE_CROSSING_MAX = 12
# s_all_orientations computes one report per class, up to this many
ORIENTATION_CLASS_MAX = 64


@dataclass
class LeeChain:
    """The Lee cycle of one orientation: the tensor product of eps_j*1 + x
    over the circles of its oriented resolution, eps_j the circle's sign."""

    diagram: OrientedDiagram  # reoriented per the chain's orientation
    orientation: tuple  # +1/-1 per component of the original diagram
    choice: tuple  # the oriented resolution of the reoriented diagram
    circle_signs: tuple  # Lee sign per circle, in resolution order
    circles: tuple  # the arc ids of each circle, in resolution order

    def conjugate(self) -> "LeeChain":
        """The chain of the globally reversed orientation (all signs flip)."""
        return LeeChain(self.diagram, tuple(-x for x in self.orientation),
                        self.choice, tuple(-s for s in self.circle_signs), self.circles)


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
    for s in orientation:
        if s not in (1, -1):
            raise KhleeError(f"orientation entry {s!r} is not +1 or -1")
    flips = {i for i, s in enumerate(orientation) if s < 0}
    dd = d.reorient(flips) if flips else d
    res = dd.resolve(dd.oriented_choice())
    signs = dd.seifert_signs(res)
    _check_cycle_local(dd, res, signs)
    return LeeChain(dd, orientation, tuple(res.choice), tuple(signs),
                    tuple(c.arcs for c in res.circles))


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
        if not vec.keys() <= index.keys():
            raise InconsistentModule("the chain has entries outside degree 0")
        v = {index[g]: c for g, c in vec.items() if c}
        if not v:
            raise InconsistentModule("zero vector has no filtration level")
        residual = space.reduce(v)
        if not residual:
            raise InconsistentModule("the chain is a boundary; no Lee class found")
        return gen_q[order[min(residual)]]

    return level


def lee_vector_in_cube(chain: LeeChain, cube: CubeComplex) -> dict:
    """The Lee cycle on the cube's oriented resolution, the one place its
    product is expanded: label x on circle j (bit j of the mask) weighs 1
    and label 1 weighs eps_j, so every coefficient is the int +1 or -1.  The
    cube already holds these 2^k generators, so its generator limit bounds
    the expansion."""
    coeffs = [1]
    for eps in chain.circle_signs:
        coeffs = [c * eps for c in coeffs] + coeffs
    return {cube.gen(chain.choice, mask): c for mask, c in enumerate(coeffs)}


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


def _brute_levels(dd: OrientedDiagram, chain: LeeChain, limit, want_module=False,
                  want_plus=False):
    """(levels, mirror levels, module) on the cube of resolutions reduced by
    the unit elimination, the Lee cycles tracked through it.

    The levels are those of (s_o, s_obar, s_o + s_obar, s_o - s_obar), and
    read only degrees -1 and 0.  C(m(D)) is the dual of C(D) with h and q
    negated (M. Khovanov, Duke Math. J. 101, 2000, section 7), and mirroring
    keeps the planar map, hence the circle signs.  So with ``want_plus`` the
    mirror's Lee cycles are covectors at h = 0 of this cube, the same +-1
    vectors as its own, pulled back through the elimination; their levels,
    the mirror levels, read degrees 0 and 1.  The cube is built on the
    window the levels read, (-1, 1) or (-1, 0) (mirror levels None), unless
    the module is wanted, which needs every degree; the module is left out
    (None) above MODULE_CROSSING_MAX crossings.
    """
    want_module = want_module and dd.n_crossings <= MODULE_CROSSING_MAX
    window = None if want_module else (-1, 1) if want_plus else (-1, 0)
    cube = build_cube(dd, limit=limit, h_window=window)
    vectors = [lee_vector_in_cube(ch, cube) for ch in (chain, chain.conjugate())]
    mirror = None
    if want_plus:
        k = len(chain.circle_signs)
        _check_pairing(vectors, vectors, k, "before")
        red, vectors, covectors = scan_reduce(cube.complex, tracked=vectors,
                                              cotracked=vectors)
        _check_pairing(vectors, covectors, k, "after")
        wo, wbar = covectors
        if k % 2:
            # the dual basis of {1, x} is {x, 1}, so w_o and w_obar are the
            # mirror's s_o and s_obar times prod eps_j and (-1)^k prod eps_j:
            # this puts the combinations in the mirror's order
            wbar = {g: -c for g, c in wbar.items()}
        mirror = _reduced_levels_from_tracked(red, wo, wbar, dual=True)
    else:
        red, vectors = scan_reduce(cube.complex, tracked=vectors)
    levels = _reduced_levels_from_tracked(red, *vectors)
    return levels, mirror, homology_qt(red) if want_module else None


def _check_pairing(vectors, covectors, k, when) -> None:
    """<w_a, v_b> = 2^k delta_ab for the Lee cycles v and covectors w of o
    and obar, k circles: the elimination keeps the pairing of a cycle with
    a cocycle, so a broken covector update shows here."""
    for a, w in enumerate(covectors):
        for b, v in enumerate(vectors):
            got = sum(c * v[g] for g, c in w.items() if g in v)
            if got != (2**k if a == b else 0):
                raise InconsistentModule(
                    f"<w_{a}, v_{b}> = {got} {when} the reduction, not "
                    f"{2**k if a == b else 0}")


def _reduced_levels_from_tracked(red, vo, vbar, dual=False):
    """The four levels, on a reduced complex with the tracked Lee vectors
    ({generator: Fraction}, their values at t = 1).  With ``dual`` they are
    covectors, and the levels are those of the dual complex: q negated, and
    its boundaries at h = 0 the rows of d: h0 -> h1."""
    filt = specialize_t(red, 1)
    gens_h0 = [g for g, hh in filt.gen_h.items() if hh == 0]
    if dual:
        gen_q = {g: -q for g, q in filt.gen_q.items()}
        rows = {}
        for src in gens_h0:
            for tgt, c in filt.out[src].items():
                rows.setdefault(tgt, {})[src] = c
        cols = [rows[tgt] for tgt in sorted(rows)]
    else:
        gen_q = filt.gen_q
        cols = [dict(filt.out[src]) for src in filt.gens_at(-1) if filt.out[src]]
    solver = _level_solver(gen_q, gens_h0, cols)
    plus = {g: vo.get(g, 0) + vbar.get(g, 0) for g in set(vo) | set(vbar)}
    minus = {g: vo.get(g, 0) - vbar.get(g, 0) for g in set(vo) | set(vbar)}
    return solver(vo), solver(vbar), solver(plus), solver(minus)


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


def lee_degree_counts(d: OrientedDiagram) -> dict:
    """Lee's count of the t=1 homology by degree: one generator per
    orientation, in degree 2 lk(E, L \\ E) for the set E of components it
    reverses (E. S. Lee, Adv. Math. 197, 2005, Prop. 4.3).  {h: count}.

    lk(E, L \\ E) adds up over the pieces of components linked to each other,
    so the subsets are enumerated per piece, and an unlink costs nothing."""
    lk = d.linking_matrix()
    counts, left = {0: 1}, set(range(d.n_components))
    while left:
        piece, stack = [], [min(left)]
        while stack:
            i = stack.pop()
            if i in left:
                left.discard(i)
                piece.append(i)
                stack += [j for j in left if lk[i][j]]
        local = {}
        for bits in range(1 << len(piece)):
            h = 2 * sum(lk[i][j] for n, i in enumerate(piece) if bits >> n & 1
                        for m, j in enumerate(piece) if not bits >> m & 1)
            local[h] = local.get(h, 0) + 1
        merged = {}
        for h, c in counts.items():
            for g, m in local.items():
                merged[h + g] = merged.get(h + g, 0) + c * m
        counts = merged
    return counts


def check_lee_degrees(d: OrientedDiagram, summary) -> None:
    """Raise InconsistentModule unless the module's free rank in each
    degree is Lee's count; their sum is the free rank 2^components."""
    want, got = lee_degree_counts(d), summary.dims_t1()
    if got != want:
        raise InconsistentModule(
            f"free ranks by degree {dict(sorted(got.items()))} differ from Lee's "
            f"count {dict(sorted(want.items()))} for {d.n_components} components")


def homology_module(d: OrientedDiagram, engine: str = "auto", limit=None):
    """The homology of d as a graded Q[t]-module (``deformed_complex``), its
    free part checked against Lee's count degree by degree."""
    summary = homology_qt(deformed_complex(d, engine, limit))
    check_lee_degrees(d, summary)
    return summary


def _s_from_levels(levels, ell) -> int:
    """s = s_min + 1 from the four levels, after the checks: equal levels
    of s_o and s_obar, combination levels {s_min, s_min + 2}, and parity."""
    lo, lbar, lplus, lminus = levels
    if lo != lbar:
        raise InconsistentModule(f"q[s_o] = {lo} differs from q[s_obar] = {lbar}")
    if sorted((lplus, lminus)) != [lo, lo + 2]:
        raise InconsistentModule(
            f"combination levels {lplus, lminus} are not {{s_min, s_min+2}}")
    s = lo + 1
    if (s - (ell - 1)) % 2 != 0:
        raise InconsistentModule(f"s = {s} violates parity for {ell} components")
    return s


def s_invariant(d: OrientedDiagram, orientation=None, engine: str = "auto",
                limit=None, with_module: bool = True, _compute_plus: bool = True) -> SReport:
    """Full s-invariant report for one orientation class.

    s_- = s is read off d's Lee classes, and s_+ = -s(m(d)) off those of
    the mirror, in the same engine call: brute reads them as covectors on
    d's own cube (``_brute_levels``), scan scans m(d).  Without
    ``_compute_plus`` no mirror is read and s_+ is reported as s.  The
    module, when computed, must have Lee's free ranks degree by degree.
    """
    if d.n_components == 0:
        # the empty link has s = 1 by convention, for both signs
        return SReport((), 1, 0, 2, 1, 1, [0])
    chain = lee_generator(d, orientation)
    dd = chain.diagram

    def scan():
        levels, summary = scan_levels(dd, chain, limit=limit, want_module=with_module)
        mirror = None
        if _compute_plus:
            mchain = lee_generator(d.mirror(), orientation)
            mirror, _ = scan_levels(mchain.diagram, mchain, limit=limit, want_module=False)
        return levels, mirror, summary

    levels, mirror, summary = run_engine(
        dd, engine,
        lambda: _brute_levels(dd, chain, limit, with_module, _compute_plus),
        scan,
        lambda result: {"the levels of (s_o, s_obar, s_o + s_obar, s_o - s_obar)": result[0],
                        "the mirror's levels of (s_o, s_obar, s_o + s_obar, s_o - s_obar)":
                            result[1],
                        "the Q[t]-module": result[2]})
    ell = d.n_components
    s = _s_from_levels(levels, ell)
    s_plus = s
    if mirror is not None:
        s_plus = -_s_from_levels(mirror, ell)
        if s_plus < s:
            raise InconsistentModule(f"s_- = {s} exceeds s_+ = {s_plus}")
    free_q = []
    if summary is not None:
        check_lee_degrees(dd, summary)
        free_q = summary.free_q_at(0)
    return SReport(chain.orientation, s, s - 1, s + 1, s, s_plus, free_q)


def s_all_orientations(d: OrientedDiagram, engine: str = "auto", limit=None):
    """One report per orientation class {o, obar}."""
    ell = d.n_components
    if ell == 0:
        return [s_invariant(d)]
    if 2 ** (ell - 1) > ORIENTATION_CLASS_MAX:
        raise ResourceLimit(f"{2 ** (ell - 1)} orientation classes for {ell} components, "
                            f"over the budget of {ORIENTATION_CLASS_MAX}")
    reports = []
    for bits in range(2 ** (ell - 1)):
        o = (1,) + tuple(-1 if (bits >> i) & 1 else 1 for i in range(ell - 1))
        reports.append(s_invariant(d, o, engine=engine, limit=limit,
                                   with_module=False))
    return reports
