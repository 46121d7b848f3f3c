"""One benchmark workload in a fresh single-threaded process (see run.py).

The process imports `unembed` from the checkout's `src/`, writes the
workload's seeded input files, runs one untimed warm-up invocation and then
runs a closed loop with one client: each operation is one in-process call
of `unembed.cli.main(argv)`, issued only after the previous one returned.
The loop runs whole cycles over the workload's fixed list of operations
until the timed operations add up to --seconds, so every run holds the same
mix.  Outputs are checked after timing: an output whose bytes match an
output of the same operation that already passed its checks passes too;
any other output is kept aside and checked in full once the loop is over,
after peak memory has been read.  The last stdout line is a JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import checks  # noqa: E402

# (d, k) of each model of the `ties` workloads, one `ties --all` per model
# and cycle.  Sizes are picked so that every model costs about the same
# (0.25-0.4 s each on 2 cores at the first benchmarked commit), which keeps
# the latency distribution of a run unimodal; twelve models per cycle
# average out how much the cost of one model depends on its seed.
# The share of labels that are hull vertices is measured on every run and
# kept in the result file and in noise_floor.json (`hull_vertex_share`).
TIES_SHAPES = {
    # About 23% (d=2) and 48% (d=3) of the labels are hull vertices, so
    # nearly every pair is infeasible.
    "ties-hull": [(2, 32)] * 6 + [(3, 30)] * 6,
    # Nearly every label is a hull vertex and most pairs are feasible.
    "ties-dense": [(8, 24)] * 6 + [(16, 22)] * 6,
}
BIG_K, BIG_D, BIG_POINTS = 256, 32, 2000   # the `artifacts` model
REGIONS_K = 8                               # labels of the 2D `regions` model
REPRODUCE_POINTS, REPRODUCE_RESOLUTION = 500, 200
SYNTHETIC_POINTS = 200   # verify-equivalence on a CSV model without points
FS_MAGIC = {0x01021994: "tmpfs", 0x794C7630: "overlayfs", 0xEF53: "ext4",
            0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs",
            0x65735546: "fuse"}


@dataclass
class Op:
    """One CLI invocation of the cycle.  `out` is the directory it writes;
    `check(dir)` returns (errors, info) for a copy of that directory."""

    slot: str
    argv: list
    out: str
    check: Callable


def _labels(prefix, n):
    return [f"{prefix}{i}" for i in range(n)]


def ties_models(shapes, seed):
    """The unembedding matrix of each model of a `ties` workload."""
    return [np.random.default_rng([seed, n]).standard_normal((k, d))
            for n, (d, k) in enumerate(shapes)]


def hull_vertex_share(shapes, seed) -> dict:
    """Share of labels that are hull vertices, per dimension d."""
    found: dict = {}
    for g in ties_models(shapes, seed):
        row = found.setdefault(f"d={g.shape[1]}", [0, 0])
        row[0] += checks.hull_vertices(g)
        row[1] += len(g)
    return {d: vertices / labels for d, (vertices, labels) in found.items()}


def ties_ops(shapes, seed, inputs, rundir) -> list:
    ops = []
    for n, g in enumerate(ties_models(shapes, seed)):
        k, d = g.shape
        labels = _labels("l", k)
        path = os.path.join(inputs, f"m{n}.csv")
        checks.write_vector_csv(path, "label", labels, g)
        out = os.path.join(rundir, f"ties-{n}")
        check = functools.partial(_check_ties, labels, g, checks.HighsMargins(g))
        ops.append(Op(f"ties-{n}-d{d}-k{k}",
                      ["ties", "--input", path, "--all",
                       "--output", os.path.join(out, "report.json")], out, check))
    return ops


def _check_ties(labels, g, margins, out):
    return checks.check_ties_report(os.path.join(out, "report.json"), labels, g, margins)


def artifact_ops(seed, inputs, rundir) -> list:
    rng = np.random.default_rng([seed, 1000])
    g = rng.standard_normal((BIG_K, BIG_D))
    points = rng.standard_normal((BIG_POINTS, BIG_D))
    shift = rng.standard_normal(BIG_D)
    g2 = rng.standard_normal((REGIONS_K, 2))
    labels = _labels("l", BIG_K)

    def inp(name):
        return os.path.join(inputs, name)

    checks.write_vector_csv(inp("big.csv"), "label", labels, g)
    checks.write_vector_csv(inp("big.embeddings.csv"), "point",
                            _labels("p", BIG_POINTS), points)
    checks.write_model_json(inp("big.json"), labels, g, points)
    checks.write_vector_csv(inp("other.csv"), "label", labels, g + shift)
    checks.write_model_json(inp("other.json"), labels, g + shift)
    checks.write_vector_csv(inp("regions.csv"), "label", _labels("r", REGIONS_K), g2)

    ops = []

    def add(slot, argv, check):
        out = os.path.join(rundir, slot)
        ops.append(Op(slot, [a.replace("{out}", out) for a in argv], out, check))

    from unembed.examples import example_names

    for name in example_names():
        add(f"reproduce-{name}",
            ["reproduce", name, "--outdir", "{out}", "--points", str(REPRODUCE_POINTS),
             "--resolution", str(REPRODUCE_RESOLUTION)],
            functools.partial(_check_reproduce, name))
    for res in (1000, 200):
        add(f"regions-{res}",
            ["regions", "--input", inp("regions.csv"), "--resolution", str(res),
             "--output", "{out}/grid.csv"],
            functools.partial(_check_regions, g2, res))
    for fmt in ("csv", "json"):
        model_in = (["--input", inp("big.csv"), "--embeddings", inp("big.embeddings.csv")]
                    if fmt == "csv" else ["--input", inp("big.json")])
        model_out = ["--output", f"{{out}}/model.{fmt}"]
        add(f"similarity-{fmt}",
            ["similarity", *model_in, "--output", "{out}/report.json"],
            functools.partial(_check_similarity, labels, g))
        add(f"center-{fmt}", ["transform", *model_in, "--op", "center", *model_out],
            functools.partial(_check_model_out, fmt, labels, g - g.mean(axis=0),
                              points, False))
        add(f"scale-{fmt}",
            ["transform", *model_in, "--op", "scale", "--scale", "2", *model_out],
            functools.partial(_check_model_out, fmt, labels, g * 2, points / 2, True))
        add(f"force-cosine-{fmt}",
            ["force-cosine", *model_in, "--pair", "0", "1", "--target", "-1", *model_out,
             "--report", "{out}/report.json"],
            functools.partial(_check_force_cosine, fmt, labels, g, points))
        add(f"verify-equivalence-{fmt}",
            ["verify-equivalence", "--input", inp(f"big.{fmt}"),
             "--other", inp(f"other.{fmt}"), "--output", "{out}/report.json"],
            functools.partial(_check_verify, g, g + shift,
                              points if fmt == "json" else None))
    return ops


def _check_reproduce(name, out):
    from unembed.examples import example, synthetic_embeddings

    u = example(name).model.unembeddings
    g, labels = np.array(u.vectors), list(u.labels)

    def path(f):
        return os.path.join(out, f)

    with open(path("summary.txt")) as handle:
        lines = handle.read().splitlines()
    errors = [] if lines and lines[-1] == "ALL CHECKS PASSED" else [
        f"reproduce {name}: summary does not end ALL CHECKS PASSED"]
    errors += checks.check_model(path(f"{name}.json"), labels, g)
    errors += checks.check_model(path(f"{name}.csv"), labels, g)
    bounds = checks.inflated_bounds(g)
    cloud = synthetic_embeddings(u, REPRODUCE_POINTS, 0).points
    errors += checks.check_model(path("with_embeddings.csv"), labels, g, cloud,
                                 embeddings_path=path("embeddings.csv"))
    errors += checks.check_grid(path("grid.csv"), g, bounds, REPRODUCE_RESOLUTION)
    if name == "unrestricted":
        for target, tag in ((-1, "minus1"), (1, "plus1")):
            _, h, _ = checks.read_model(path(f"forced_cos_{tag}.json"))
            if not np.allclose(h - g, (h - g)[0], rtol=0, atol=1e-12 * (1 + np.abs(h).max())):
                errors.append(f"forced_cos_{tag}: not a translation")
            if abs(checks.cosine(h[0], h[1]) - target) > 1e-9:
                errors.append(f"forced_cos_{tag}: cosine is not {target}")
            errors += checks.check_grid(path(f"grid_cos_{tag}.csv"), h, bounds,
                                        REPRODUCE_RESOLUTION)
    info = {}
    section = checks.load_json(path("report.json")).get("feasibility")
    if section is not None:
        more, info = checks.check_feasibility(section, labels, g, checks.HighsMargins(g))
        errors += more
    return errors, info


def _check_regions(g2, res, out):
    return checks.check_grid(os.path.join(out, "grid.csv"), g2,
                             checks.inflated_bounds(g2), res), {}


def _check_similarity(labels, g, out):
    sim = checks.load_json(os.path.join(out, "report.json"))["similarity"]
    if sim["metric"] != "cosine" or sim["labels"] != labels:
        return ["similarity: wrong metric or labels"], {}
    if not np.allclose(sim["values"], checks.cosine_matrix(g), rtol=0, atol=1e-12):
        return ["similarity: values differ from numpy"], {}
    return [], {}


def _model_paths(out, fmt):
    path = os.path.join(out, f"model.{fmt}")
    return path, (os.path.join(out, "model.embeddings.csv") if fmt == "csv" else None)


def _check_model_out(fmt, labels, expected, points, exact, out):
    path, emb = _model_paths(out, fmt)
    return checks.check_model(path, labels, expected, points, exact, emb), {}


def _check_force_cosine(fmt, labels, g, points, out):
    path, emb = _model_paths(out, fmt)
    got_labels, h, got_points = checks.read_model(path, emb)
    errors = []
    if list(got_labels) != labels or not checks.same_bits(got_points, points):
        errors.append("force-cosine: labels or points changed")
    if not np.allclose(h - g, (h - g)[0], rtol=0, atol=1e-12 * (1 + np.abs(h).max())):
        errors.append("force-cosine: not a translation")
    if abs(checks.cosine(h[0], h[1]) + 1) > 1e-9:
        errors.append("force-cosine: cosine is not -1")
    if not checks.load_json(os.path.join(out, "report.json"))["equivalence"]["passed"]:
        errors.append("force-cosine: equivalence check did not pass")
    return errors, {}


def _check_verify(g, other, points, out):
    eq = checks.load_json(os.path.join(out, "report.json"))["equivalence"]
    errors = [] if eq["passed"] else ["verify-equivalence: not equivalent"]
    expected_n = SYNTHETIC_POINTS if points is None else len(points)
    if eq["num_points_checked"] != expected_n:
        errors.append("verify-equivalence: wrong number of points")
    if points is not None:
        diff = np.abs(checks.softmax(points @ g.T) - checks.softmax(points @ other.T)).max()
        if abs(diff - eq["max_prob_diff"]) > 1e-12:
            errors.append("verify-equivalence: max_prob_diff differs from numpy")
    return errors, {}


def build_ops(workload, seed, inputs, rundir) -> list:
    if workload in TIES_SHAPES:
        return ties_ops(TIES_SHAPES[workload], seed, inputs, rundir)
    return artifact_ops(seed, inputs, rundir)


# --- the closed loop -----------------------------------------------------------

def invoke(cli, argv):
    """0 for a CLI call that succeeded; otherwise its exit code with the last
    line it printed, or the exception it raised."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, not a stop
        return f"{type(exc).__name__}: {exc}"
    if rc == 0:
        return 0
    last = sink.getvalue().strip().splitlines()
    return f"{rc} ({last[-1] if last else 'no output'})"


def digest_dir(path) -> str:
    h = hashlib.blake2b(digest_size=16)
    for base, _dirs, files in sorted(os.walk(path)):
        for name in sorted(files):
            full = os.path.join(base, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as handle:
                for chunk in iter(lambda: handle.read(1 << 20), b""):
                    h.update(chunk)
    return h.hexdigest()


def run_loop(cli, ops, seconds, keepdir, tracer=None):
    """Whole cycles until the timed operations add up to `seconds`; with a
    tracer, even cycles are traced and odd ones are not."""
    records = []   # (op index, seconds, exit code, digest, traced, cycle)
    kept = {}      # (op index, digest) -> directory holding that output
    busy = 0.0
    cycles = 0
    while True:
        traced = tracer is not None and cycles % 2 == 0
        if traced:
            tracer.install()
        for n, op in enumerate(ops):
            os.makedirs(op.out)
            if traced:
                tracer.op = len(records)
            start = time.perf_counter()
            rc = invoke(cli, op.argv)
            elapsed = time.perf_counter() - start
            busy += elapsed
            key = (n, digest_dir(op.out))
            if key in kept:
                shutil.rmtree(op.out)
            else:
                kept[key] = os.path.join(keepdir, f"{len(kept)}-{op.slot}")
                os.rename(op.out, kept[key])
            records.append((n, elapsed, rc, key[1], traced, cycles))
        if traced:
            tracer.uninstall()
        cycles += 1
        if busy >= seconds and (tracer is None or cycles % 2 == 0):
            return records, kept, cycles


def verify(ops, records, kept):
    """Check each distinct output once; returns per-record (ok, info) and the
    distinct error messages.  An operation that exited nonzero fails with its
    exit message alone: its output is incomplete by design."""
    results = {}
    for (n, digest), path in kept.items():
        try:
            results[(n, digest)] = ops[n].check(path)
        except Exception as exc:  # unreadable or malformed output
            results[(n, digest)] = ([f"{ops[n].slot}: {type(exc).__name__}: {exc}"], {})
    outcomes, messages = [], []
    for n, _elapsed, rc, digest, _traced, _cycle in records:
        errors, info = results[(n, digest)]
        if rc != 0:
            errors = [f"{ops[n].slot}: exit {rc}"]
        outcomes.append((not errors, info))
        for m in errors:
            m = m.replace(os.path.dirname(kept[(n, digest)]) + os.sep, "")
            if m not in messages:
                messages.append(m)
    return outcomes, messages


def measure(cli, ops, seconds, keepdir, tracer=None) -> dict:
    """Run the loop, then check the outputs.  End-to-end metrics come from
    the untraced cycles, per-layer metrics from the traced ones.  Rates are
    the median over cycles, so that a burst of load from outside in one
    cycle does not move them."""
    records, kept, cycles = run_loop(cli, ops, seconds, keepdir, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outcomes, messages = verify(ops, records, kept)

    def part(traced):
        """Latencies, and per-cycle [seconds, ops, pairs], of one half."""
        latencies, per_cycle = [], {}
        for r, (_ok, info) in zip(records, outcomes):
            if r[4] == traced:
                latencies.append(r[1])
                row = per_cycle.setdefault(r[5], [0.0, 0, 0])
                row[0] += r[1]
                row[1] += 1
                row[2] += info.get("pairs", 0)
        return latencies, list(per_cycle.values())

    def rate(per_cycle, column):
        return statistics.median(row[column] / row[0] for row in per_cycle)

    latencies, per_cycle = part(False)
    busy = sum(latencies)
    tail_s, tail_pct, samples = tail(latencies)
    result = {
        "cycles": cycles,
        "ops_per_cycle": len(ops),
        "attempted": len(records),
        "failed": sum(not ok for ok, _ in outcomes),
        "errors": messages[:20],
        "degenerate": sum(info.get("degenerate", 0) for _, info in outcomes),
        "tail_pct": tail_pct,
        "samples": samples,
        "busy_s": busy,
        "metrics": {
            "ops_per_s": rate(per_cycle, 1),
            "op_ms_p50": float(np.median(latencies)) * 1e3,
            "op_ms_tail": tail_s * 1e3,
            "pairs_per_s": rate(per_cycle, 2),
            "peak_rss_mb": peak_rss_mb,
        },
    }
    if tracer is not None:
        _, traced_cycles = part(True)
        layers = tracer.layer_metrics(
            len(traced_cycles), sum(row[2] for row in traced_cycles) / len(traced_cycles))
        traced_rate = rate(traced_cycles, 1)
        untraced_rate = result["metrics"]["ops_per_s"]
        layers["trace.ops_per_s_traced"] = traced_rate
        layers["trace.ops_per_s_untraced"] = untraced_rate
        layers["trace.overhead_pct"] = 100.0 * (1.0 - traced_rate / untraced_rate)
        result["per_layer"] = layers
    return result


def tail(latencies):
    """Highest percentile with at least ten samples beyond it: the 11th
    largest latency.  Returns (value, percentile, samples)."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = max(n - 11, 0)
    return ordered[idx], 100.0 * (idx + 1) / n, n


def fs_type(path) -> str:
    buf = ctypes.create_string_buffer(256)
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.statfs(os.fsencode(path), buf) != 0:
        return "unknown"
    magic = ctypes.c_long.from_buffer(buf).value & 0xFFFFFFFF
    return FS_MAGIC.get(magic, hex(magic))


def environment(workdir) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "artifact_fs": fs_type(workdir),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*TIES_SHAPES, "artifacts"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() when the parent started this process")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import unembed.cli as cli

    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(SRC, "unembed"):
        raise SystemExit(f"unembed was imported from {cli.__file__}, not {SRC}")
    inputs, rundir, keepdir = (os.path.join(args.workdir, d) for d in ("in", "run", "keep"))
    for d in (inputs, rundir, keepdir):
        os.makedirs(d)
    ops = build_ops(args.workload, args.seed, inputs, rundir)
    os.makedirs(ops[0].out)
    invoke(cli, ops[0].argv)  # warm-up
    shutil.rmtree(ops[0].out)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    result = measure(cli, ops, args.seconds, keepdir, tracer)
    result.update(setup_s=setup_s, environment=environment(args.workdir))
    if args.workload in TIES_SHAPES:
        result["hull_vertex_share"] = hull_vertex_share(TIES_SHAPES[args.workload],
                                                        args.seed)
    if tracer is not None:
        tracer.write(os.path.join(ROOT, ".perfbench", f"trace-{args.workload}.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
