"""Spans around the calls into each `unembed` layer, recorded from outside.

`Tracer.install()` wraps every public function (the names in a submodule's
`__all__` that it defines itself) and rebinds the wrapper at every place
where an `unembed` module holds a reference to the original, e.g. both
`unembed.lp.solve` and `unembed.geometry.solve`.  A refactor that moves a
call site keeps it traced.  If a function that a per-layer metric reads
(`READ`) is no longer found, `install()` raises instead of letting the
metric read 0.  Spans stay in memory with parent links until `write()`.

A few boundaries also record a count next to the span: pivots and status
for `lp.solve`, the verdict for `geometry.coargmax_feasible`, cells for
`geometry.decision_regions`, and bytes for the `model_io` readers and
writers.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
import types
from collections import defaultdict

PACKAGE = "unembed"


# name -> (unit, better) of every per-layer metric, in report order.
# Counts and times are given per traced cycle of the workload.
PER_LAYER = {
    "lp.solve.calls": ("calls/cycle", "lower"),
    "lp.solve.ms": ("ms/cycle", "lower"),
    "lp.solve.us_per_call": ("us", "lower"),
    "lp.pivots": ("count/cycle", "lower"),
    "lp.pivots_per_solve": ("count", "lower"),
    "lp.us_per_pivot": ("us", "lower"),
    "lp.non_optimal": ("count/cycle", "lower"),
    "lp.build.ms": ("ms/cycle", "lower"),
    "geometry.coargmax_feasible.self_ms": ("ms/cycle", "lower"),
    "geometry.pairs_decided": ("count/cycle", "higher"),
    "geometry.lp_solves_per_pair": ("ratio", "lower"),
    "geometry.verdict.feasible": ("count/cycle", "lower"),
    "geometry.verdict.infeasible": ("count/cycle", "lower"),
    "geometry.verdict.degenerate": ("count/cycle", "lower"),
    "geometry.verdict.indeterminate": ("count/cycle", "lower"),
    "geometry.oracle.calls": ("calls/cycle", "lower"),
    "geometry.oracle.ms": ("ms/cycle", "lower"),
    "geometry.decision_regions.ms": ("ms/cycle", "lower"),
    "geometry.cells_per_s": ("1/s", "higher"),
    "geometry.similarity_matrix.ms": ("ms/cycle", "lower"),
    **{f"model_io.{fn}.{m}": u for fn in (
        "load_model", "save_model", "export_grid_csv", "save_report")
       for m, u in (("ms", ("ms/cycle", "lower")), ("mb_per_s", ("MB/s", "higher")))},
    "transforms.verify_equivalence.ms": ("ms/cycle", "lower"),
    "examples.evaluate_example.ms": ("ms/cycle", "lower"),
    "examples.synthetic_embeddings.ms": ("ms/cycle", "lower"),
    **{f"{layer}.self_ms": ("ms/cycle", "lower") for layer in (
        "lp", "geometry", "model_io", "transforms", "examples", "model", "cli")},
    "cli.self_share": ("%", "lower"),
    "trace.spans": ("count/cycle", "lower"),
    "trace.ops_per_s_traced": ("1/s", "higher"),
    "trace.ops_per_s_untraced": ("1/s", "higher"),
    "trace.overhead_pct": ("%", "lower"),
}


# The functions, as "<module>.<name>" below the package, whose spans the
# per-layer metrics read.
READ = {
    "cli.main", "lp.solve", "lp.coargmax_lp", "geometry.coargmax_feasible",
    "geometry.coargmax_oracle_2d", "geometry.decision_regions",
    "geometry.similarity_matrix", "model_io.load_model", "model_io.save_model",
    "model_io.export_grid_csv", "model_io.save_report",
    "transforms.verify_equivalence", "examples.evaluate_example",
    "examples.synthetic_embeddings",
}


def _span_name(fn) -> str:
    return f"{fn.__module__[len(PACKAGE) + 1:]}.{fn.__name__}"


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if p and os.path.exists(p))


def _bound(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def _probes(fn):
    """Count recorded when a call of `fn` returns, keyed by qualified name."""
    name = f"{fn.__module__}.{fn.__name__}"
    if name == f"{PACKAGE}.lp.solve":
        return lambda a, kw, r: (r.status, r.iterations)
    if name == f"{PACKAGE}.geometry.coargmax_feasible":
        return lambda a, kw, r: r.verdict
    if name == f"{PACKAGE}.geometry.decision_regions":
        return lambda a, kw, r: int(r.labels.size)
    bind = _bound(fn)
    if name == f"{PACKAGE}.model_io.load_model":
        return lambda a, kw, r: _file_bytes(
            *(bind(a, kw).get(p) for p in ("path", "embeddings_path")))
    if name == f"{PACKAGE}.model_io.save_model":
        return lambda a, kw, r: _file_bytes(*r)
    if name in (f"{PACKAGE}.model_io.export_grid_csv",
                f"{PACKAGE}.model_io.save_report"):
        return lambda a, kw, r: _file_bytes(bind(a, kw)["path"])
    return None


class Tracer:
    """Records (name, parent, op, start_ns, end_ns, count) per call."""

    def __init__(self):
        self.spans: list = []
        self.op = -1  # id shared by the spans of one CLI invocation
        self._stack: list[int] = []
        self._wrappers: dict = {}
        self._installed: list = []

    def _wrap(self, fn):
        name = _span_name(fn)
        probe = _probes(fn)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, parent, self.op, start, clock(), None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            count = None if probe is None else probe(args, kwargs, result)
            spans[idx] = (name, parent, self.op, start, end, count)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _modules(self):
        return [mod for name, mod in sorted(sys.modules.items())
                if (name == PACKAGE or name.startswith(PACKAGE + "."))
                and mod is not None]

    def install(self) -> None:
        modules = self._modules()
        if not self._wrappers:
            for mod in modules:
                for attr in getattr(mod, "__all__", ()):
                    fn = getattr(mod, attr, None)
                    if (isinstance(fn, types.FunctionType)
                            and fn.__module__ == mod.__name__):
                        self._wrappers[fn] = self._wrap(fn)
            missing = READ - {_span_name(fn) for fn in self._wrappers}
            if missing:
                raise RuntimeError(
                    "no public unembed function " + ", ".join(sorted(missing))
                    + ": update READ and the metrics that use it in perfbench/spans.py")
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in self._wrappers:
                    setattr(mod, attr, self._wrappers[value])
                    self._installed.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in self._installed:
            setattr(mod, attr, value)
        self._installed.clear()

    def write(self, path: str) -> None:
        """One JSON array per span: id, parent id, op id, name, start, end,
        count."""
        with open(path, "w") as handle:
            for idx, (name, parent, op, start, end, count) in enumerate(self.spans):
                handle.write(json.dumps([idx, parent, op, name, start, end, count]))
                handle.write("\n")

    def layer_metrics(self, cycles: int, pairs_per_cycle: float) -> dict:
        """Per-layer metrics, every count and time given per traced cycle."""
        dur = defaultdict(int)       # name -> total ns
        self_ns = defaultdict(int)   # name -> ns not covered by child spans
        calls = defaultdict(int)
        child = [0] * len(self.spans)
        for name, parent, _op, start, end, _count in self.spans:
            if parent >= 0:
                child[parent] += end - start
        pivots = non_optimal = cells = 0
        verdicts = defaultdict(int)
        nbytes = defaultdict(int)
        for idx, (name, _parent, _op, start, end, count) in enumerate(self.spans):
            dur[name] += end - start
            self_ns[name] += end - start - child[idx]
            calls[name] += 1
            if count is None:
                continue
            if name == "lp.solve":
                non_optimal += count[0] != "optimal"
                pivots += count[1]
            elif name == "geometry.coargmax_feasible":
                verdicts[count] += 1
            elif name == "geometry.decision_regions":
                cells += count
            else:
                nbytes[name] += count

        per = 1.0 / max(cycles, 1)

        def ms(name):
            return dur[name] / 1e6 * per

        def ratio(a, b):
            return a / b if b else 0.0

        solves = calls["lp.solve"]
        layer_self = defaultdict(int)
        for name, ns in self_ns.items():
            layer_self[name.split(".", 1)[0]] += ns
        out = {
            "lp.solve.calls": solves * per,
            "lp.solve.ms": ms("lp.solve"),
            "lp.solve.us_per_call": ratio(dur["lp.solve"] / 1e3, solves),
            "lp.pivots": pivots * per,
            "lp.pivots_per_solve": ratio(pivots, solves),
            "lp.us_per_pivot": ratio(dur["lp.solve"] / 1e3, pivots),
            "lp.non_optimal": non_optimal * per,
            "lp.build.ms": ms("lp.coargmax_lp"),
            "geometry.coargmax_feasible.self_ms":
                self_ns["geometry.coargmax_feasible"] / 1e6 * per,
            "geometry.pairs_decided": pairs_per_cycle,
            "geometry.lp_solves_per_pair": ratio(solves * per, pairs_per_cycle),
        }
        for verdict in ("feasible", "infeasible", "degenerate", "indeterminate"):
            out[f"geometry.verdict.{verdict}"] = verdicts[verdict] * per
        out.update({
            "geometry.oracle.calls": calls["geometry.coargmax_oracle_2d"] * per,
            "geometry.oracle.ms": ms("geometry.coargmax_oracle_2d"),
            "geometry.decision_regions.ms": ms("geometry.decision_regions"),
            "geometry.cells_per_s":
                ratio(cells, dur["geometry.decision_regions"] / 1e9),
            "geometry.similarity_matrix.ms": ms("geometry.similarity_matrix"),
        })
        for fn in ("load_model", "save_model", "export_grid_csv", "save_report"):
            name = f"model_io.{fn}"
            out[f"{name}.ms"] = ms(name)
            out[f"{name}.mb_per_s"] = ratio(nbytes[name] / 1e6, dur[name] / 1e9)
        out.update({
            "transforms.verify_equivalence.ms": ms("transforms.verify_equivalence"),
            "examples.evaluate_example.ms": ms("examples.evaluate_example"),
            "examples.synthetic_embeddings.ms": ms("examples.synthetic_embeddings"),
        })
        for layer in ("lp", "geometry", "model_io", "transforms", "examples",
                      "model"):
            out[f"{layer}.self_ms"] = layer_self[layer] / 1e6 * per
        out["cli.self_ms"] = self_ns["cli.main"] / 1e6 * per
        out["cli.self_share"] = 100.0 * ratio(self_ns["cli.main"], dur["cli.main"])
        out["trace.spans"] = len(self.spans) * per
        return out
