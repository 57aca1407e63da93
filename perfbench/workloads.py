"""The benchmark workloads: seeded inputs, the timed call per input, and an
untimed oracle for each input.

Each workload leans on one layer and touches the others lightly:

* ``scan-braids``: the tangle scanner (``tlscan``) on positive braids and on
  fixed values from the paper, all through ``engine="scan"``.
* ``pd-brute``: PD parsing (``pdcode``) and the brute filtration solve
  (``lee`` over a ``cube`` slice); ``tlscan`` does not run in the timed part.
* ``kh-module``: the full cube, its Gaussian reduction (``reduction``) with
  no tracked vectors, the graded Smith form and the t=0 ranks (``linalg``).

The input shapes (strands, letters) are fixed per workload and only the
words are drawn from the seed (``kh-module`` also keeps each cube within a
fixed size band), so every seed asks for about the same amount of work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import khlee
from khlee import corpus

from inputs import braid_to_pd, braid_word, cube_size, rng_for


class OracleError(Exception):
    """The oracle's own results disagree with each other."""


@dataclass
class Item:
    """One benchmark input: ``run`` is timed, ``expect`` is the untimed
    oracle giving the value ``run`` must return."""

    name: str
    run: Callable[[], object]
    expect: Callable[[], object]


def _s(d, engine):
    return khlee.s_invariant(d, engine=engine, with_module=False, _compute_plus=False).s


def _ssr(name):
    rep = khlee.s_ssr(corpus.builtin_ssr(name), engine="scan")
    return (rep.s_minus, rep.s_plus)


def _const(value):
    return lambda: value


# ---------------------------------------------------------------------------
# scan-braids

# (strands, letters) of the random positive braids, in input order
SCAN_SHAPES = [(4, 6), (4, 7), (4, 8), (5, 6), (5, 7), (5, 8)] * 5


def _fpq_formula(p, q, k):
    """s(F_{p,q}(k)), from the shifted formula s - k(p-q)(p-q-1) = 1-p-q."""
    return 1 - p - q + k * (p - q) * (p - q - 1)


def _cable_formula(p, q, k):
    """s(C_(p,q)(k)), from the shifted formula s - kp(p-1) = (p-1)(q-1)."""
    return (p - 1) * (q - 1) + k * p * (p - 1)


def _paper_items():
    """Values from the paper, each checked against its closed formula.
    F_2 is F_{2,2}: two strands up, two down."""
    return [
        Item("s(Wh+(T_2,3,2))",
             lambda: _s(corpus.builtin_diagram("Wh+(trefoil+,2)"), "scan"), _const(2)),
        Item("s_ssr(Wh+)", lambda: _ssr("Wh+"), _const((0, 2))),
        Item("s_ssr(F_2)", lambda: _ssr("F_2"), _const((-3, 3))),
        Item("s(F_2(2))", lambda: _s(corpus.builtin_diagram("F_2(2)"), "scan"), _const(_fpq_formula(2, 2, 2))),
        Item("s(C_(3,2)(2))",
             lambda: _s(corpus.builtin_diagram("C_(3,2)(2)"), "scan"), _const(_cable_formula(3, 2, 2))),
        Item("s(T(5,5))", lambda: _s(corpus.builtin_diagram("T(5,5)"), "scan"), _const((5 - 1) ** 2)),
    ]


def _positive_item(strands, word):
    # a positive braid closure has n+ = len(word) and one Seifert circle per strand
    formula = len(word) - strands + 1
    return Item(f"braid {strands}: {' '.join(map(str, word))}",
                lambda: _s(khlee.from_braid(khlee.BraidWord(strands, word)), "scan"),
                _const(formula))


def scan_braids_inputs(seed):
    rng = rng_for("scan-braids", seed)
    return [(n, braid_word(rng, n, length, mixed=False)) for n, length in SCAN_SHAPES]


def scan_braids_items(inputs):
    return _paper_items() + [_positive_item(n, w) for n, w in inputs]


# ---------------------------------------------------------------------------
# pd-brute

PD_SHAPES = [(2, 5), (3, 5), (4, 5), (2, 6), (3, 6), (4, 6)] * 5


def pd_brute_inputs(seed):
    rng = rng_for("pd-brute", seed)
    words = [(n, braid_word(rng, n, length, mixed=True)) for n, length in PD_SHAPES]
    return [(n, w, braid_to_pd(n, w)) for n, w in words]


def _pd_run(text):
    d = khlee.parse_pd(text)
    rep = khlee.s_invariant(d, engine="auto", with_module=False)
    return (d.n_crossings, d.n_plus, d.n_minus, d.n_components, rep.s, rep.s_plus)


def _pd_expect(strands, word):
    # the same link through the braid closure and the other engine; the
    # counts also check the braid -> PD converter
    d = khlee.from_braid(khlee.BraidWord(strands, word))
    rep = khlee.s_invariant(d, engine="scan", with_module=False)
    return (d.n_crossings, d.n_plus, d.n_minus, d.n_components, rep.s, rep.s_plus)


def pd_brute_items(inputs):
    return [Item(f"braid {n}: {' '.join(map(str, w))}",
                 lambda text=text: _pd_run(text),
                 lambda n=n, w=w: _pd_expect(n, w))
            for n, w, text in inputs]


# ---------------------------------------------------------------------------
# kh-module

KH_SHAPES = [(3, 7), (4, 7)] * 15
# Full-cube generators allowed per input.  The time of an input follows its
# cube size closely, so a fixed band keeps the work of a seed near that of
# any other; no input here fails, so the band hides no failure.
KH_CUBE_GENS = (1100, 1520)


def kh_module_inputs(seed):
    rng = rng_for("kh-module", seed)
    words = []
    for n, length in KH_SHAPES:
        w = braid_word(rng, n, length, mixed=True)
        while not KH_CUBE_GENS[0] <= cube_size(n, w) <= KH_CUBE_GENS[1]:
            w = braid_word(rng, n, length, mixed=True)
        words.append((n, w))
    return words


def _module_key(summary):
    return (tuple(summary.free), tuple(summary.torsion))


def _kh_run(strands, word):
    # what `khlee kh --engine brute` does
    d = khlee.from_braid(khlee.BraidWord(strands, word))
    cx = khlee.build_cube(d).complex
    summary = khlee.homology_qt(cx)
    dims = tuple(sorted(cx.dims_at_t0().items()))
    return _module_key(summary), dims, summary.free_rank()


def _kh_expect(strands, word):
    d = khlee.from_braid(khlee.BraidWord(strands, word))
    cx = khlee.scan_complex(d)
    summary = khlee.homology_qt(cx)
    dims = tuple(sorted(cx.dims_at_t0().items()))
    if dims != tuple(sorted(summary.dims_t0().items())):
        raise OracleError("scan module and its t=0 ranks disagree")
    return _module_key(summary), dims, 2 ** d.n_components


def kh_module_items(inputs):
    return [Item(f"braid {n}: {' '.join(map(str, w))}",
                 lambda n=n, w=w: _kh_run(n, w),
                 lambda n=n, w=w: _kh_expect(n, w))
            for n, w in inputs]


WORKLOADS = {
    "scan-braids": (scan_braids_inputs, scan_braids_items),
    "pd-brute": (pd_brute_inputs, pd_brute_items),
    "kh-module": (kh_module_inputs, kh_module_items),
}
