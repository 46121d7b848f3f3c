"""Self-test of the benchmark on tiny models; exits non-zero on failure.

    python3 perfbench/selftest.py

Runs a tiny `ties` workload twice with the same seed under the tracer and
asserts that the counts the program makes (LP solves, pivots, LP solves
per pair and the verdict counts) repeat exactly, that every output passes
its checks, and that BENCHMARK.json names exactly the metrics the
benchmark reports.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import workload
from run import UNITS
from spans import PER_LAYER, Tracer

TINY_SHAPES = [(2, 8), (3, 8), (8, 6)]
EXACT = ["lp.solve.calls", "lp.pivots", "geometry.lp_solves_per_pair"] + [
    f"geometry.verdict.{v}" for v in ("feasible", "infeasible", "degenerate",
                                      "indeterminate")]


def require(condition, message) -> None:
    if not condition:
        raise SystemExit(f"selftest failed: {message}")


def traced_counts(cli, base, seed) -> dict:
    dirs = [os.path.join(base, d) for d in ("in", "run", "keep")]
    for d in dirs:
        os.makedirs(d)
    ops = workload.ties_ops(TINY_SHAPES, seed, *dirs[:2])
    result = workload.measure(cli, ops, 0, dirs[2], Tracer())
    shutil.rmtree(base)
    require(result["failed"] == 0, result["errors"])
    return {name: result["per_layer"][name] for name in EXACT}


def main() -> int:
    import unembed.cli as cli

    with open(os.path.join(workload.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    require({m["name"]: m["unit"] for m in spec["end_to_end"]} == UNITS,
            "BENCHMARK.json end_to_end names or units")
    require({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER,
            "BENCHMARK.json per_layer names, units or directions")

    base = os.path.join(workload.ROOT, ".perfbench", f"selftest-{os.getpid()}")
    first = traced_counts(cli, os.path.join(base, "a"), seed=7)
    second = traced_counts(cli, os.path.join(base, "b"), seed=7)
    shutil.rmtree(base, ignore_errors=True)
    require(first == second, f"counts differ: {first} != {second}")
    require(first["lp.solve.calls"] > 0 and first["lp.pivots"] > 0, first)
    print("selftest passed:", json.dumps(first))
    return 0


if __name__ == "__main__":
    sys.exit(main())
