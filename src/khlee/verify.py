"""Invariant suites: executable forms of the properties the theory promises.

Each check yields (name, ok, detail).  The CLI `verify` command prints them;
the acceptance tests assert them.  Counterexample diagrams are embedded in
the detail string.
"""

from __future__ import annotations

import random

from . import diagrams as dg
from .corpus import (builtin_ssr, random_braids, random_oriented_pure_diagram,
                     small_corpus, torus_word)
from .diagrams import BraidWord, from_braid
from .errors import KhleeError
from .lee import deformed_complex, lee_generator, s_all_orientations, s_invariant
from .ssr import (SsrDiagram, approx_threshold, bennequin_report,
                  insert_twists, positivity_formula, s_ssr, stabilization_check)


def _s(d, engine="auto", plus=False):
    rep = s_invariant(d, engine=engine, with_module=False, _compute_plus=plus)
    return rep


def suite_oracle(quick: bool = False):
    """Brute-vs-scan agreement (engine ``both``) and Lee dimension counts."""
    corpus = small_corpus()
    braids = random_braids(count=20 if quick else 100)
    named = corpus + [(f"braid{i}", from_braid(w)) for i, w in enumerate(braids)]
    bad_hom = []
    bad_dim = []
    bad_s = []
    for name, d in named:
        try:
            cx = deformed_complex(d, engine="both")
        except KhleeError as e:
            bad_hom.append(f"{name}: {e}")
            continue
        if sum(cx.dims_at_t(1).values()) != 2 ** d.n_components:
            bad_dim.append(name)
        try:
            _s(d, engine="both")
        except KhleeError as e:
            bad_s.append(f"{name}: {e}")
    yield ("brute-vs-scan homology equivalence", not bad_hom, "; ".join(bad_hom) or "all match")
    yield ("dim Lee homology = 2^components", not bad_dim, ", ".join(bad_dim) or "all match")
    yield ("brute-vs-scan s-invariant", not bad_s, "; ".join(bad_s) or "all match")


def suite_s3(quick: bool = False):
    """The S^3 properties of the Lee classes and the s-invariant."""
    corpus = small_corpus()
    if quick:
        corpus = corpus[:18]
    rng = random.Random(20260812)

    bad = []
    for name, d in corpus:
        try:
            for rep in s_all_orientations(d, engine="auto"):
                pass  # cycle checks, level identities and parity run inside
        except KhleeError as e:
            bad.append(f"{name}: {e}")
    yield ("Lee generators are cycles; level identities; parity", not bad,
           "; ".join(bad) or f"{len(corpus)} diagrams, all orientations")

    bad = []
    for name, d in corpus:
        if d.n_components != 1:
            continue
        if _s(d.mirror()).s != -_s(d).s:
            bad.append(name)
    yield ("mirror antisymmetry s(m(K)) = -s(K)", not bad, ", ".join(bad) or "all knots")

    bad = []
    for name, d in corpus[: 12 if quick else 30]:
        if _s(d.reverse()).s != _s(d).s:
            bad.append(name)
    yield ("reversal invariance", not bad, ", ".join(bad) or "checked")

    # sign-convention robustness: computing with the conjugate chain as the
    # primary Lee generator must give the same s
    from .lee import _brute_levels

    bad = []
    for name, d in corpus[: 8 if quick else 16]:
        if d.n_crossings > 8 or d.n_components == 0:
            continue
        chain = lee_generator(d)
        (lo, lb, lp, lm), _ = _brute_levels(d, chain, None)
        (lo2, lb2, lp2, lm2), _ = _brute_levels(d, chain.conjugate(), None)
        if (lo, lb) != (lo2, lb2) or sorted((lp, lm)) != sorted((lp2, lm2)):
            bad.append(name)
    yield ("global sign-flip of circle signs leaves s unchanged", not bad,
           ", ".join(bad) or "checked")

    pairs = [("trefoil+", "trefoil+"), ("trefoil+", "figure8"),
             ("hopf+", "trefoil-"), ("figure8", "hopf+")]
    if not quick:
        pairs += [("hopf+", "hopf+"), ("trefoil-", "figure8")]
    from .corpus import builtin_diagram

    bad = []
    for n1, n2 in pairs:
        d1, d2 = builtin_diagram(n1), builtin_diagram(n2)
        c1 = rng.randrange(d1.n_components)
        c2 = rng.randrange(d2.n_components)
        dsum = dg.connect_sum(d1, c1, d2, c2)
        if _s(dsum, engine="brute").s != _s(d1).s + _s(d2).s:
            bad.append(f"{n1}#{n2}")
    yield ("connected sum additivity", not bad, ", ".join(bad) or f"{len(pairs)} pairs")

    bad = []
    for n1, n2 in pairs[: 3 if quick else len(pairs)]:
        d1, d2 = builtin_diagram(n1), builtin_diagram(n2)
        du = dg.disjoint_union(d1, d2)
        if _s(du).s != _s(d1).s + _s(d2).s - 1:
            bad.append(f"{n1} u {n2}")
    yield ("disjoint union: s(A u B) = s(A) + s(B) - 1", not bad,
           ", ".join(bad) or "checked")

    bad = []
    words = random_braids(count=6 if quick else 20, seed=20260813, max_letters=6)
    for i, w in enumerate(words):
        letters = list(w.letters)
        spots = [j for j, x in enumerate(letters) if isinstance(x, int)]
        if not spots:
            continue
        j = rng.choice(spots)
        plus = list(letters)
        plus[j] = abs(plus[j])
        minus = list(letters)
        minus[j] = -abs(minus[j])
        sp = _s(from_braid(BraidWord(w.strands, tuple(plus)))).s
        sm = _s(from_braid(BraidWord(w.strands, tuple(minus)))).s
        if not (sm <= sp <= sm + 2):
            bad.append(f"braid{i}: s-={sm} s+={sp}")
    yield ("crossing change sandwich s(L-) <= s(L+) <= s(L-)+2", not bad,
           "; ".join(bad) or f"{len(words)} pairs")

    bad = []
    positives = [("trefoil", BraidWord(2, (1, 1, 1))),
                 ("T(3,3)", BraidWord(3, torus_word(3, 3))),
                 ("T(2,4)", BraidWord(2, (1,) * 4)),
                 ("pos1", BraidWord(3, (1, 2, 1, 1))),
                 ("pos2", BraidWord(4, (1, 2, 3, 2, 1)))]
    for name, w in positives:
        d = from_braid(w)
        if _s(d, engine="scan").s != d.n_plus - d.seifert_count() + 1:
            bad.append(name)
    yield ("positive diagrams: s = n+ - Seif + 1", not bad, ", ".join(bad) or "checked")

    bad = []
    words = [w for w in random_braids(count=8 if quick else 25, seed=20260814)]
    words += [w for _n, w in positives]
    for i, w in enumerate(words):
        rep = bennequin_report(w, engine="auto")
        if not rep["s_plus_bound_ok"]:
            bad.append(f"braid{i}: {rep}")
        if all(x > 0 for x in w.sigma_letters) and rep["sl"] + 1 != rep["s_plus"]:
            bad.append(f"braid{i}: positive braid not sharp: {rep}")
    yield ("braid Bennequin wr - br + 1 <= s, sharp on positive braids",
           not bad, "; ".join(bad) or f"{len(words)} braids")


def _ssr_examples(quick: bool):
    """(name, diagram) pairs; the second list is the null-homologous ones."""
    null = [("Wh+", builtin_ssr("Wh+")), ("Wh-", builtin_ssr("Wh-")),
            ("F_1", builtin_ssr("F_1")),
            ("local(trefoil+)", builtin_ssr("local(trefoil+)"))]
    if not quick:
        null += [("F_2", builtin_ssr("F_2")), ("DT(Wh+)", builtin_ssr("DT(Wh+)"))]
    sweeps = list(null)
    if not quick:
        # eta != 0, but the unshifted sweep still stabilizes for p - q = 1
        sweeps += [("F_2,1", builtin_ssr("F_2,1"))]
    return sweeps, null


def suite_ssr(quick: bool = False):
    """Properties of the stabilized invariants in #^r(S^1 x S^2)."""
    sweeps, examples = _ssr_examples(quick)

    bad = []
    for name, s in sweeps:
        table, stab = stabilization_check(s, approx_threshold(s, "minus") + 1,
                                          engine="auto")
        if not stab:
            bad.append(f"{name}: {table}")
    yield ("s(D(k)) constant at and beyond the threshold", not bad,
           "; ".join(bad) or f"{len(sweeps)} diagrams")

    bad = []
    for name, s in examples:
        rep = s_ssr(s, engine="auto")
        d0 = insert_twists(s, (0,) * s.r)
        s0 = _s(d0, plus=True)
        if not rep.s_minus <= s0.s:
            bad.append(f"{name}: s_-(L)={rep.s_minus} > s(D(0))={s0.s}")
        if not s0.s_plus <= rep.s_plus:
            bad.append(f"{name}: s_+(D(0))={s0.s_plus} > s_+(L)={rep.s_plus}")
        if (rep.s_minus - (rep.ell - 1)) % 2 or (rep.s_plus - (rep.ell - 1)) % 2:
            bad.append(f"{name}: parity")
        if rep.s_minus > rep.s_plus:
            bad.append(f"{name}: s_- > s_+")
        if rep.gDS_lower > rep.gSD_lower and rep.s_minus <= rep.s_plus:
            bad.append(f"{name}: genus bound order")
    yield ("threshold sandwich, parity, s_- <= s_+, genus bounds", not bad,
           "; ".join(bad) or f"{len(examples)} diagrams")

    bad = []
    for name, s in [("Wh+", builtin_ssr("Wh+"))]:
        if insert_twists(s, (0,) * s.r).n_minus == 0:
            val = positivity_formula(s)
            rep = s_ssr(s, engine="auto")
            if not (rep.s_minus <= val <= rep.s_plus):
                bad.append(f"{name}: {rep.s_minus} <= {val} <= {rep.s_plus} fails")
    yield ("positivity sandwich s_- <= n+ - Seif + 1 <= s_+", not bad,
           "; ".join(bad) or "checked")

    rng = random.Random(20260815)
    bad = []
    count = 4 if quick else 20
    for i in range(count):
        m = 1 if quick or i % 3 else 2
        strands = 2 * m
        d = random_oriented_pure_diagram(rng, strands=max(2, strands), blocks=2)
        w = d.braid
        flags = (True,) * m + (False,) * m
        base = BraidWord(strands, w.letters, flags)
        tw = SsrDiagram(base, ((1, strands, 0),))
        L = from_braid(base)
        Ltw = insert_twists(tw, (1,))
        rl = _s(L, engine="scan", plus=True)
        rt = _s(Ltw, engine="scan", plus=True)
        if rt.s > rl.s or rt.s_plus > rl.s_plus:
            bad.append(f"pair{i}: {rl.s, rl.s_plus} -> {rt.s, rt.s_plus}")
    yield ("generalized crossing change never increases s_+-", not bad,
           "; ".join(bad) or f"{count} constructed pairs")

    bad = []
    for p, q in [(1, 1), (2, 1)] if quick else [(1, 1), (2, 1), (2, 2), (3, 1)]:
        s = builtin_ssr(f"F_{p},{q}")
        for k in (1, 2):
            d = insert_twists(s, (k,))
            got = _s(d, engine="scan").s - k * (p - q) * (p - q - 1)
            if got != 1 - p - q:
                bad.append(f"F_{{{p},{q}}}({k}): shifted {got}")
    yield ("F_pq regression s(F_pq(k)) - k(p-q)(p-q-1) = 1-p-q", not bad,
           "; ".join(bad) or "checked")

    bad = []
    for p, q in [(2, 1)] if quick else [(2, 1), (2, 2), (3, 1)]:
        s = builtin_ssr(f"C_({p},{q})")
        for k in (1, 2):
            d = insert_twists(s, (k,))
            if _s(d, engine="scan").s - k * p * (p - 1) != (p - 1) * (q - 1):
                bad.append(f"C_({p},{q})({k})")
    yield ("cable regression s(C_pq(k)) - kp(p-1) = (p-1)(q-1)", not bad,
           "; ".join(bad) or "checked")

    rep_wh = s_ssr(builtin_ssr("Wh+"), engine="auto")
    rep_dt = s_ssr(builtin_ssr("DT(Wh+)"), engine="auto")
    ok = rep_wh.s_minus == rep_dt.s_minus == 0
    yield ("Dehn twist invariance s_-(DT(Wh+)) = s_-(Wh+) = 0", ok,
           f"Wh+: {rep_wh.s_minus}, DT(Wh+): {rep_dt.s_minus}")


SUITES = {
    "oracle": suite_oracle,
    "s3-properties": suite_s3,
    "ssr-properties": suite_ssr,
}


def run_suite(name: str, quick: bool = False):
    if name == "all":
        results = []
        for key in SUITES:
            results += list(SUITES[key](quick=quick))
        return results
    if name not in SUITES:
        raise KhleeError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return list(SUITES[name](quick=quick))
