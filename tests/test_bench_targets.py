import importlib
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_functions_exist():
    # the benchmark's tracer wraps these functions by name; a refactor that
    # drops or renames one must fail here, not only under --trace 1.  The
    # file is executed from its source, so no bytecode is written next to it.
    spans = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans.__dict__)
    assert spans.TARGETS
    for module_name, attr, _name, _count in spans.TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, name = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            assert owner is not None and name in vars(owner), f"{module_name}.{attr}"
        else:
            assert callable(getattr(module, name, None)), f"{module_name}.{attr}"
