"""Run-to-run spread and set-to-set drift of the end-to-end metrics.

    python3 perfbench/spread.py --workloads ties-hull,artifacts --seeds 1-10 \\
        --seconds 20 [--sets 2] [--output perfbench/noise_floor.json]

Runs perfbench/run.py once per workload and seed, one after another, and
repeats that whole set --sets times.  For each set it prints, per metric,
the median, the quartiles and their distance as a share of the median
(Python's statistics.quantiles with n=4).  With two or more sets it also
prints how much worse each later set's median is than the first set's,
against the metric's bound in BENCHMARK.json.

Next to `setup_s` (the median of the set-ups of one run) it reports
`setup_s_single`, the set-up time of the measuring process alone, so the two
spreads can be compared.  On the `ties-*` workloads it also averages the
share of labels that are hull vertices.  With --output everything is
written as JSON, with the environment of the last run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def last_result(name) -> dict:
    with open(os.path.join(ROOT, ".perfbench", f"result-{name}-trace0.json")) as handle:
        return json.load(handle)


def run_set(workloads, seed_list, seconds, bounds) -> dict:
    report = {}
    for name in workloads:
        values: dict[str, list] = {}
        failed = attempted = 0
        hull: dict[str, list] = {}
        for seed in seed_list:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += last["failed"]
            attempted += last["attempted"]
            for metric, entry in last["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            full = last_result(name)
            values.setdefault("setup_s_single", []).append(full["setups_s"][-1])
            for d, share in full.get("hull_vertex_share", {}).items():
                hull.setdefault(d, []).append(share)
            print(name, seed, {m: round(v[-1], 4) for m, v in values.items()}, flush=True)
        rows = {}
        for metric, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            rows[metric] = {"median": median, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / median, "values": vals}
            bound = f"(bound {bounds[metric]:.0%})" if metric in bounds else ""
            print(f"  {name:<11} {metric:<14} median {median:10.4f} "
                  f"spread {rows[metric]['spread']:7.2%} {bound}")
        report[name] = {"attempted": attempted, "failed": failed, "metrics": rows}
        if hull:
            report[name]["hull_vertex_share"] = {
                d: statistics.mean(v) for d, v in hull.items()}
    return report


def drift(first, later, spec) -> dict:
    """Per workload and metric: how much worse the later set's median is
    than the first set's, as a share of the first, and whether that is
    within the metric's bound."""
    out = {}
    for name, rows in first.items():
        out[name] = {}
        for metric, bound, better in spec:
            a = rows["metrics"][metric]["median"]
            b = later[name]["metrics"][metric]["median"]
            worse = (b - a) / a if better == "lower" else (a - b) / a
            out[name][metric] = {"worse_by": worse, "bound": bound,
                                 "within_bound": worse <= bound}
            print(f"  {name:<11} {metric:<14} {a:10.4f} -> {b:10.4f}  "
                  f"worse by {worse:7.2%} (bound {bound:.0%})")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10")
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--output", default=None)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        metrics = json.load(handle)["end_to_end"]
    bounds = {m["name"]: m["bound"] for m in metrics}
    spec = [(m["name"], m["bound"], m["better"]) for m in metrics]
    workloads = args.workloads.split(",")

    sets = []
    for n in range(args.sets):
        print(f"set {n + 1} of {args.sets}", flush=True)
        sets.append(run_set(workloads, args.seeds, args.seconds, bounds))
    report = {"seconds": args.seconds, "seeds": args.seeds, "sets": sets}
    if len(sets) > 1:
        report["drift"] = []
        for n, later in enumerate(sets[1:], start=2):
            print(f"set {n} against set 1", flush=True)
            report["drift"].append(drift(sets[0], later, spec))
    last = last_result(workloads[-1])
    report["environment"] = dict(last["environment"], commit=last["commit"])
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
