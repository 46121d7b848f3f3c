"""Benchmark of the `unembed` command line, one workload per call.

    python3 perfbench/run.py --workload ties-hull --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each workload runs in a fresh Python process
(perfbench/workload.py) with the BLAS thread pools capped at one thread;
that process calls `unembed.cli.main(argv)` in a closed loop with one
client and checks every output after timing.  Workloads:

  ties-hull   `ties --all --output` on Gaussian models, d=2 and d=3, where
              most labels lie inside the hull and nearly no pair can tie
  ties-dense  the same on d=8 and d=16, where nearly every pair can tie
  artifacts   reproduce, regions, similarity, transform, force-cosine and
              verify-equivalence in CSV and JSON: I/O, rasterization and
              transforms, with almost no LP work

With --trace 0 it prints the end-to-end metrics; set-up runs three times
(twice in processes that only set up) and setup_s is their median.  With
--trace 1 it alternates traced and untraced cycles and prints the
per-layer metrics (perfbench/spans.py); the spans are written to
.perfbench/trace-<workload>.jsonl.  Work files live under .perfbench/ in
the checkout and are removed at the end.  The last line of stdout is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from spans import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ties-hull", "ties-dense", "artifacts")
SETUPS = 3
DEADLINE_S = 170
BLAS_CAP = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
         "pairs_per_s": "1/s", "peak_rss_mb": "MB"}


def commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def spawn(args, workdir, deadline, extra=()) -> dict:
    """Run workload.py to completion and return its JSON result."""
    t0 = time.monotonic()
    argv = [sys.executable, os.path.join(HERE, "workload.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", workdir, "--t0", repr(t0), *extra]
    proc = subprocess.run(argv, cwd=ROOT, env=dict(os.environ, **BLAS_CAP),
                          capture_output=True, text=True,
                          timeout=max(deadline - t0, 1))
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"workload process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Benchmark the unembed CLI.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "unembed", "cli.py")):
        print(f"error: no unembed sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    base = os.path.join(ROOT, ".perfbench")
    work = os.path.join(base, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        setups = []
        if not args.trace:
            for n in range(SETUPS - 1):
                setups.append(spawn(args, os.path.join(work, f"setup{n}"), deadline,
                                    ["--setup-only"])["setup_s"])
        res = spawn(args, os.path.join(work, "main"), deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(res["setup_s"])

    e2e = dict(res["metrics"], setup_s=statistics.median(setups))
    res.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, setups_s=setups, commit=commit())
    res["metrics"] = e2e
    if args.trace:
        metrics = {k: {"value": res["per_layer"][k], "unit": unit}
                   for k, (unit, _better) in PER_LAYER.items()}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()}
    with open(os.path.join(base, f"result-{args.workload}-trace{args.trace}.json"),
              "w") as handle:
        json.dump(res, handle, indent=1)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: closed loop, 1 client, "
          f"{res['attempted']} ops in {res['cycles']} cycles of {res['ops_per_cycle']}, "
          f"{res['busy_s']:.2f} s timed")
    for name, unit in UNITS.items():
        note = ""
        if name == "setup_s":
            note = f"median of {len(setups)} set-ups"
        elif name == "op_ms_tail":
            beyond = min(10, res["samples"] - 1)
            note = f"p{res['tail_pct']:.1f}, {beyond} of {res['samples']} samples beyond"
        elif name == "op_ms_p50":
            note = f"{res['samples']} samples"
        print(f"  {name:<12} {e2e[name]:12.4f} {unit:<4} {note}")
    print(f"  {'fail_rate':<12} {res['failed'] / res['attempted']:12.4f}      "
          f"{res['failed']} of {res['attempted']} failed; "
          f"{res['degenerate']} degenerate verdicts (not failures)")
    for message in res["errors"]:
        print(f"  error: {message}")
    if args.trace:
        for name, metric in metrics.items():
            print(f"  {name:<40} {metric['value']:14.4f} {metric['unit']}")
    print(f"  environment: commit={res['commit']} {json.dumps(res['environment'])}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
