"""Call-site tracing of the khlee layers, installed from outside the package.

Modules bind the functions they import under their own names (for example
``tlscan.scan_reduce`` and ``smith.scan_reduce`` are the same function as
``reduction.scan_reduce``), so a target is wrapped at every binding that
refers to it, in every loaded ``khlee`` module.  Spans are kept in memory as
(name, start, end, parent index, item id) and written out at the end.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter


def _adder(key, amount):
    """Counter hook adding ``amount(args, result)`` to ``key``."""
    def hook(counts, args, result):
        counts[key] += amount(args, result)
    return hook


def _count_scan_reduce(counts, args, result):
    red = result[0] if isinstance(result, tuple) else result
    counts["reduction.gens_in"] += args[0].n_gens
    counts["reduction.gens_out"] += red.n_gens


def _count_level_solver(counts, args, result):
    _gen_q, gens_h0, columns = args
    counts["lee.solve_rows"] += len(gens_h0)
    counts["lee.solve_cols"] += len(columns)


# (module, attribute, span name, counter hook).  An attribute "Class.method"
# wraps the method on the class.
TARGETS = [
    ("khlee.diagrams", "from_braid", "diagrams.from_braid", None),
    ("khlee.diagrams", "OrientedDiagram.resolve", "diagrams.resolve",
     _adder("diagrams.resolve_calls", lambda a, r: 1)),
    ("khlee.diagrams", "OrientedDiagram.mirror", "diagrams.mirror", None),
    ("khlee.diagrams", "OrientedDiagram.reorient", "diagrams.reorient", None),
    ("khlee.diagrams", "OrientedDiagram.seifert_count", "diagrams.seifert_count", None),
    ("khlee.pdcode", "parse_pd", "pdcode.parse_pd",
     _adder("pdcode.crossings", lambda a, r: r.n_crossings)),
    ("khlee.cube", "build_cube", "cube.build_cube",
     _adder("cube.gens", lambda a, r: r.complex.n_gens)),
    ("khlee.cube", "specialize_t", "cube.specialize_t", None),
    ("khlee.reduction", "scan_reduce", "reduction.scan_reduce", _count_scan_reduce),
    ("khlee.linalg", "rank_of_columns", "linalg.rank_of_columns", None),
    ("khlee.complexes", "GradedComplex.dims_at_t0", "complexes.dims_at_t0", None),
    ("khlee.smith", "homology_qt", "smith.homology_qt", None),
    ("khlee.smith", "_graded_snf", "smith._graded_snf", None),
    ("khlee.lee", "lee_generator", "lee.lee_generator", None),
    ("khlee.lee", "_level_solver", "lee._level_solver", _count_level_solver),
    ("khlee.lee", "s_invariant", "lee.s_invariant", None),
    ("khlee.lee", "_brute_levels", "lee._brute_levels", None),
    ("khlee.lee", "_reduced_levels_from_tracked", "lee._reduced_levels_from_tracked", None),
    ("khlee.tlscan", "scan_word", "tlscan.scan_word", None),
    ("khlee.tlscan", "_tensor_letter", "tlscan._tensor_letter",
     _adder("tlscan.letters", lambda a, r: 1)),
    ("khlee.tlscan", "_deloop_all", "tlscan._deloop_all", None),
    ("khlee.tlscan", "_eliminate", "tlscan._eliminate", None),
    ("khlee.tlscan", "_close_and_reduce", "tlscan._close_and_reduce",
     _adder("tlscan.closed_gens", lambda a, r: r.gc.n_gens)),
    ("khlee.tlscan", "_ScanClosure.lee_vectors", "tlscan.lee_vectors", None),
    ("khlee.tlscan", "scan_levels", "tlscan.scan_levels", None),
    ("khlee.tlscan", "scan_complex", "tlscan.scan_complex", None),
    ("khlee.ssr", "s_ssr", "ssr.s_ssr", None),
    ("khlee.ssr", "insert_twists", "ssr.insert_twists", None),
]

# Per-layer time metrics: the summed self time of these spans, per pass.
LAYER_TIMES = {
    "tlscan.tensor_s": ["tlscan._tensor_letter"],
    "tlscan.deloop_s": ["tlscan._deloop_all"],
    "tlscan.eliminate_s": ["tlscan._eliminate"],
    "tlscan.close_s": ["tlscan._close_and_reduce"],
    "tlscan.other_s": ["tlscan.scan_word", "tlscan.lee_vectors", "tlscan.scan_levels",
                       "tlscan.scan_complex"],
    "reduction.reduce_s": ["reduction.scan_reduce"],
    "cube.build_s": ["cube.build_cube"],
    "cube.specialize_s": ["cube.specialize_t"],
    "lee.generator_s": ["lee.lee_generator"],
    "lee.level_solve_s": ["lee._level_solver", "lee.level"],
    "lee.other_s": ["lee.s_invariant", "lee._brute_levels", "lee._reduced_levels_from_tracked"],
    "pdcode.parse_s": ["pdcode.parse_pd"],
    "linalg.rank_s": ["linalg.rank_of_columns"],
    "complexes.dims_s": ["complexes.dims_at_t0"],
    "smith.snf_s": ["smith._graded_snf"],
    "smith.other_s": ["smith.homology_qt"],
    "diagrams.resolve_s": ["diagrams.resolve"],
    "diagrams.from_braid_s": ["diagrams.from_braid"],
    "diagrams.other_s": ["diagrams.mirror", "diagrams.reorient", "diagrams.seifert_count"],
    "ssr.other_s": ["ssr.s_ssr", "ssr.insert_twists"],
}

LAYER_COUNTS = [
    "tlscan.letters", "tlscan.closed_gens", "reduction.gens_in", "reduction.gens_out",
    "cube.gens", "lee.solve_rows", "lee.solve_cols", "pdcode.crossings",
    "diagrams.resolve_calls",
]

ITEM_SPAN = "bench.item"


class Tracer:
    """Span recorder.  ``install`` wraps every binding of each target;
    ``uninstall`` puts the originals back."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, item id)
        self.counts = defaultdict(lambda: defaultdict(int))  # item id -> name -> count
        self.item = None
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, parent, name, t0):
        t1 = perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, t0, t1, parent, self.item)

    def run_item(self, item_id, fn):
        """Run one benchmark input under a root span."""
        self.item = item_id
        idx, parent = self._open()
        t0 = perf_counter()
        try:
            return fn()
        finally:
            self._close(idx, parent, ITEM_SPAN, t0)
            self.item = None

    def wrap(self, fn, name, count=None, wrap_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent = tracer._open()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, parent, name, t0)
            if count is not None:
                count(tracer.counts[tracer.item], args, result)
            return wrap_result(result) if wrap_result is not None else result

        return traced

    def install(self):
        for module_name, attr, name, count in TARGETS:
            module = sys.modules[module_name]
            owner_name, _, meth = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, original, self.wrap(original, name, count))
                continue
            original = getattr(module, attr)
            # the solver returns a closure that does the per-vector solve
            wrap_result = self._wrap_level if attr == "_level_solver" else None
            wrapped = self.wrap(original, name, count, wrap_result)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "khlee" or mod_name.startswith("khlee.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)

    def _wrap_level(self, level):
        return self.wrap(level, "lee.level")

    def _patch(self, owner, attr, original, wrapped):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self) -> dict:
        """Summed self time per (span name, item id): each span's duration
        minus its children's."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _item in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        totals = defaultdict(float)
        for i, (name, t0, t1, _parent, item) in enumerate(self.spans):
            totals[name, item] += (t1 - t0) - child[i]
        return totals

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "item": item}) + "\n")
