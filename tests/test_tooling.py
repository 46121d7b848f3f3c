"""Guards between the package and the benchmark that traces it."""

import ast
import importlib
import types
from pathlib import Path

SPANS = Path(__file__).parent.parent / "perfbench" / "spans.py"


def _read_names() -> set:
    """perfbench/spans.py's READ set, parsed without importing it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "READ" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no READ in perfbench/spans.py")


def test_traced_functions_are_public():
    # each "<module>.<name>" whose spans a per-layer metric reads must be
    # a function in that module's __all__ and defined there, or the traced
    # benchmark stops
    names = _read_names()
    assert names
    for name in sorted(names):
        module, attr = name.rsplit(".", 1)
        mod = importlib.import_module(f"unembed.{module}")
        assert attr in mod.__all__, name
        fn = getattr(mod, attr)
        assert isinstance(fn, types.FunctionType), name
        assert fn.__module__ == mod.__name__, name
