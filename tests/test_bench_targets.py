import importlib
import types
from pathlib import Path

import khlee

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    # executed from its source, so no bytecode is written next to it
    spans = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans.__dict__)
    return spans


def test_traced_functions_exist():
    # the benchmark's tracer wraps these functions by name; a refactor that
    # drops or renames one must fail here, not only under --trace 1
    spans = _spans()
    assert spans.TARGETS
    for module_name, attr, _name, _count in spans.TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, name = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            assert owner is not None and name in vars(owner), f"{module_name}.{attr}"
        else:
            assert callable(getattr(module, name, None)), f"{module_name}.{attr}"


def test_counter_hooks_run():
    # the counter hooks read fields of what the traced functions return
    # (build_cube(...).complex.n_gens, _close_and_reduce(...).gc.n_gens), so
    # they run here on one brute s and one scan_complex
    tracer = _spans().Tracer()
    d = khlee.from_braid(khlee.BraidWord(2, (1, 1, 1)))
    try:
        tracer.install()
        tracer.run_item(0, lambda: khlee.s_invariant(d, engine="brute"))
        tracer.run_item(1, lambda: khlee.scan_complex(d))
    finally:
        tracer.uninstall()
    brute, scan = tracer.counts[0], tracer.counts[1]
    assert brute["cube.gens"] > 0 and brute["reduction.gens_in"] > 0
    assert scan["tlscan.closed_gens"] > 0 and scan["reduction.gens_in"] > 0
