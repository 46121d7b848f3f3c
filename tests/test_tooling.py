"""Guards between the package and the benchmark that traces it."""

import ast
import importlib
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


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


def test_benchmark_selftest_passes():
    # the benchmark's self-test traces a tiny workload: it fails when the
    # hull LPs stop going through lp.solve, or when BENCHMARK.json and
    # spans.PER_LAYER name different metrics
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_every_exported_name_resolves():
    # a stale __all__ entry breaks `from unembed.<module> import *`
    import unembed

    modules = [unembed] + [importlib.import_module(f"unembed.{info.name}")
                           for info in pkgutil.iter_modules(unembed.__path__)]
    for mod in modules:
        missing = [name for name in getattr(mod, "__all__", ())
                   if not hasattr(mod, name)]
        assert not missing, (mod.__name__, missing)
        exec(f"from {mod.__name__} import *", {})


def test_one_json_writer():
    # model_io._write_json writes every JSON file byte for byte as
    # json.dumps(obj, indent=2) would; a json.dump or json.dumps call
    # elsewhere in the package would be a second writer to keep in step
    calls = []
    for path in sorted((ROOT / "src" / "unembed").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                calls += [(path.name, a.name) for a in node.names
                          if a.name in ("dump", "dumps")]
            elif (isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps")
                  and getattr(node.value, "id", None) == "json"):
                calls.append((path.name, node.attr))
    assert not calls, calls


def _names_read(node) -> set:
    """Every name, attribute and imported name under node."""
    return {getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}


def test_no_dead_private_functions():
    # every module-level private function of the package is used somewhere
    # in it outside its own def
    statements = [node for path in sorted((ROOT / "src" / "unembed").glob("*.py"))
                  for node in ast.parse(path.read_text()).body]
    assert statements
    reads = [_names_read(node) for node in statements]
    dead = [node.name for node in statements
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and not any(node.name in names for other, names in zip(statements, reads)
                        if other is not node)]
    assert not dead, dead
