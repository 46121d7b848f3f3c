"""Command-line interface.

Subcommands: similarity, force-cosine, transform, ties, regions, reproduce,
verify-equivalence.  Exit codes: 0 success, 2 file I/O or parse failure,
3 invalid arguments or violated preconditions, 4 internal consistency
failure (the LP and the exact 2D oracle disagree, or a bundled example
fails its own expected values).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from .errors import ConsistencyError, ModelFormatError
from .examples import (
    evaluate_example,
    example,
    example_names,
    synthetic_embeddings,
)
from .geometry import (
    DEFAULT_EPS,
    coargmax_oracle_2d_pairs,
    cosine,
    decision_regions,
    inflated_bounds,
    similarity_matrix,
    tie_graph,
)
from .model import SoftmaxModel
from .model_io import (
    export_grid_csv,
    load_model,
    new_report,
    save_model,
    save_report,
)
from .transforms import (
    center,
    cosine_forcing_translation,
    equivalent_model_pair,
    normalize_rows,
    scale_pair,
    translate,
    verify_equivalence,
)

__all__ = ["main", "main_entry"]

EXIT_OK = 0
EXIT_IO = 2
EXIT_USAGE = 3
EXIT_INCONSISTENT = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad command lines; this CLI reserves 2 for file
    problems, so usage errors exit 3 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_input_flags(sub):
    sub.add_argument("--input", required=True, help="model file (csv or json)")
    sub.add_argument(
        "--format", choices=("csv", "json"), default=None,
        help="input format (default: by extension)",
    )
    sub.add_argument(
        "--embeddings", default=None,
        help="separate embedding-points csv (csv models only)",
    )


def _load(args) -> SoftmaxModel:
    return load_model(args.input, args.format, args.embeddings)


def _input_section(path: str, fmt: str | None, model: SoftmaxModel) -> dict:
    return {
        "path": path,
        "format": fmt or os.path.splitext(path)[1].lstrip("."),
        "k": model.k,
        "d": model.d,
        "labels": list(model.labels),
        "n_points": model.embeddings.n,
    }


def _force_cosine_entry(v, pair, target) -> dict:
    """The transform entry of a translation that forces a pair's cosine."""
    return {
        "op": "translate",
        "vector": [float(x) for x in v],
        "reason": "force_cosine",
        "pair": list(pair),
        "target": target,
    }


def _similarity_section(model: SoftmaxModel, metric: str) -> dict:
    sim = similarity_matrix(model.unembeddings, metric)
    return {
        "metric": metric,
        "labels": list(sim.labels),
        "values": sim.values.tolist(),
    }


def _equivalence_section(report, extra: dict | None = None) -> dict:
    section = {
        "max_prob_diff": report.max_prob_diff,
        "num_points_checked": report.num_points_checked,
        "worst_point": report.worst_point,
        "worst_label": report.worst_label,
        "tol": report.tol,
        "passed": report.passed,
    }
    if extra:
        section.update(extra)
    return section


def _pair_entry(model: SoftmaxModel, rep, oracle: bool | None) -> dict:
    return {
        "i": rep.i,
        "j": rep.j,
        "label_i": model.labels[rep.i],
        "label_j": model.labels[rep.j],
        "verdict": rep.verdict,
        "margin": float(rep.margin) if math.isfinite(rep.margin) else None,
        "witness": None if rep.witness is None else rep.witness.tolist(),
        "oracle": oracle,
    }


def _check_against_oracle(model: SoftmaxModel, reps) -> list:
    """Cross-check proven verdicts against the exact 2D oracle, all in one
    call: a feasible or degenerate pair must tie, an infeasible one must
    not.  Returns the oracle's answer per pair (None when unavailable);
    raises on the first disagreement."""
    if model.d != 2:
        return [None] * len(reps)
    oracle = coargmax_oracle_2d_pairs(
        model.unembeddings, [(rep.i, rep.j) for rep in reps]).tolist()
    for rep, ties in zip(reps, oracle):
        if ties != (rep.verdict != "infeasible"):
            raise ConsistencyError(
                f"pair ({rep.i}, {rep.j}): lp says {rep.verdict} "
                f"(margin {rep.margin!r}), exact 2D oracle says "
                f"{'feasible' if ties else 'infeasible'}"
            )
    return oracle


def _feasibility_section(model: SoftmaxModel, eps: float, indices) -> dict:
    """Verdicts of every pair that involves a label in `indices`, each
    pair decided once and listed as i < j, plus each label's partners."""
    u = model.unembeddings
    reps = list(tie_graph(u, eps, indices).values())
    pairs = [
        _pair_entry(model, rep, oracle)
        for rep, oracle in zip(reps, _check_against_oracle(model, reps))
    ]
    a, b = np.array([(rep.i, rep.j) for rep in reps if rep.feasible],
                    dtype=int).reshape(-1, 2).T
    ties = np.zeros((u.k, u.k), dtype=bool)
    ties[a, b] = ties[b, a] = True
    labels = np.array(u.labels, dtype=object)
    partners = {u.labels[i]: labels[ties[i]].tolist() for i in indices}
    return {"eps": eps, "pairs": pairs, "partners": partners}


# --- subcommands -----------------------------------------------------------

def _cmd_similarity(args) -> int:
    model = _load(args)
    section = _similarity_section(model, args.metric)
    if args.output:
        report = new_report(
            input=_input_section(args.input, args.format, model),
            similarity=section,
        )
        save_report(report, args.output)
        print(f"wrote {args.output}")
    else:
        print(",".join([args.metric] + list(model.labels)))
        for label, row in zip(model.labels, section["values"]):
            print(",".join([label] + [repr(v) for v in row]))
    return EXIT_OK


def _cmd_force_cosine(args) -> int:
    model = _load(args)
    i, j = args.pair
    u = model.unembeddings
    if not (0 <= i < u.k and 0 <= j < u.k):
        raise IndexError(f"pair ({i}, {j}) out of range for k={u.k}")
    a, b = u.vector(i), u.vector(j)
    before = cosine(a, b)
    v = cosine_forcing_translation(a, b, args.target)
    transformed = model.with_unembeddings(translate(u, v))
    after = cosine(transformed.unembeddings.vector(i),
                   transformed.unembeddings.vector(j))
    points = model.embeddings
    if points.n == 0:
        points = synthetic_embeddings(u, args.points, args.seed)
    equiv = verify_equivalence(model, transformed, points, args.tol)
    save_model(transformed, args.output)
    print(f"cosine({u.labels[i]}, {u.labels[j]}): {before!r} -> {after!r}")
    print(f"max probability difference: {equiv.max_prob_diff!r} "
          f"over {equiv.num_points_checked} points")
    print(f"wrote {args.output}")
    if args.report:
        report = new_report(
            input=_input_section(args.input, args.format, model),
            transforms=[_force_cosine_entry(v, (i, j), args.target)],
            equivalence=_equivalence_section(
                equiv, {"cosine_before": before, "cosine_after": after}
            ),
        )
        save_report(report, args.report)
        print(f"wrote {args.report}")
    return EXIT_OK


def _cmd_transform(args) -> int:
    model = _load(args)
    if args.op == "center":
        out = model.with_unembeddings(center(model.unembeddings))
    elif args.op == "normalize":
        out = model.with_unembeddings(normalize_rows(model.unembeddings))
    elif args.op == "translate":
        if args.vector is None:
            raise ValueError("--op translate requires --vector")
        out = model.with_unembeddings(translate(model.unembeddings, args.vector))
    else:  # scale
        if args.scale is None:
            raise ValueError("--op scale requires --scale")
        out = scale_pair(model, args.scale)
    save_model(out, args.output)
    print(f"applied {args.op}; wrote {args.output}")
    return EXIT_OK


def _cmd_ties(args) -> int:
    model = _load(args)
    u = model.unembeddings
    indices = range(u.k) if args.all else [args.index]
    feasibility = _feasibility_section(model, args.eps, indices)
    for label, mine in feasibility["partners"].items():
        print(f"{label}: ties possible with "
              f"{', '.join(mine) if mine else '(none)'}")
    if args.output:
        report = new_report(
            input=_input_section(args.input, args.format, model),
            feasibility=feasibility,
        )
        save_report(report, args.output)
        print(f"wrote {args.output}")
    return EXIT_OK


def _parse_bounds(values):
    if values is None:
        return None
    x0, x1, y0, y1 = values
    return ((x0, x1), (y0, y1))


def _cmd_regions(args) -> int:
    model = _load(args)
    grid = decision_regions(
        model, _parse_bounds(args.bounds), args.resolution
    )
    export_grid_csv(grid, args.output)
    counts = np.bincount(grid.labels.ravel(), minlength=model.k)
    total = grid.labels.size
    print(f"wrote {args.output} ({grid.resolution[0]}x{grid.resolution[1]} cells)")
    for label, count in zip(model.labels, counts):
        print(f"  {label}: {count} cells ({100.0 * count / total:.1f}%)")
    return EXIT_OK


def _cmd_verify_equivalence(args) -> int:
    model_a = _load(args)
    model_b = load_model(args.other)
    points = model_a.embeddings
    if points.n == 0:
        points = synthetic_embeddings(model_a.unembeddings, args.points, args.seed)
    equiv = verify_equivalence(model_a, model_b, points, args.tol)
    verdict = "EQUIVALENT" if equiv.passed else "NOT EQUIVALENT"
    print(f"{verdict}: max probability difference {equiv.max_prob_diff!r} "
          f"over {equiv.num_points_checked} points (tol {equiv.tol:g})")
    if args.output:
        report = new_report(
            input=_input_section(args.input, args.format, model_a),
            equivalence=_equivalence_section(equiv, {"other": args.other}),
        )
        save_report(report, args.output)
        print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    ex = example(args.name)
    outdir = args.outdir or f"reproduce-{args.name}"
    os.makedirs(outdir, exist_ok=True)

    def path(name: str) -> str:
        return os.path.join(outdir, name)

    model = ex.model
    save_model(model, path(f"{ex.name}.json"))
    save_model(model, path(f"{ex.name}.csv"))
    report = new_report(input=_input_section(f"{ex.name}.json", None, model))
    report["similarity"] = _similarity_section(model, "cosine")

    # every bundled example is 2D
    cloud = synthetic_embeddings(model.unembeddings, args.points, args.seed)
    save_model(
        SoftmaxModel(model.unembeddings, cloud),
        path("with_embeddings.csv"),
        embeddings_path=path("embeddings.csv"),
    )
    bounds = inflated_bounds(model.unembeddings)
    export_grid_csv(
        decision_regions(model, bounds, args.resolution), path("grid.csv")
    )

    if ex.name == "unrestricted":
        # the two probability-preserving models with forced cosines
        minus, plus = equivalent_model_pair(model, 0, 1)
        save_model(minus, path("forced_cos_minus1.json"))
        save_model(plus, path("forced_cos_plus1.json"))
        export_grid_csv(
            decision_regions(minus, bounds, args.resolution),
            path("grid_cos_minus1.csv"),
        )
        export_grid_csv(
            decision_regions(plus, bounds, args.resolution),
            path("grid_cos_plus1.csv"),
        )
        equiv = verify_equivalence(model, minus, cloud, args.tol)
        report["transforms"] = [
            _force_cosine_entry(cosine_forcing_translation(
                model.unembeddings.vector(0), model.unembeddings.vector(1), t),
                (0, 1), t)
            for t in (-1, 1)
        ]
        report["equivalence"] = _equivalence_section(equiv, {
            "cosine_before": cosine(model.unembeddings.vector(0),
                                    model.unembeddings.vector(1)),
            "cosine_minus1": cosine(minus.unembeddings.vector(0),
                                    minus.unembeddings.vector(1)),
            "cosine_plus1": cosine(plus.unembeddings.vector(0),
                                   plus.unembeddings.vector(1)),
        })

    if any(ev.check in ("tie_partners", "pair_feasible") for ev in ex.expected):
        report["feasibility"] = _feasibility_section(
            model, DEFAULT_EPS, range(model.k)
        )

    save_report(report, path("report.json"))

    lines = [f"# {ex.name}: {ex.description}"]
    if ex.name == "centered_unit":
        lines.append(
            "note: this is the sign-corrected variant (second coordinates "
            "of l3 and l4 negated); 'centered_unit_printed' keeps the "
            "uncorrected rows and fails centering"
        )
    results = evaluate_example(ex)
    lines += [res.line() for res in results]
    all_passed = all(res.passed for res in results)
    lines.append("ALL CHECKS PASSED" if all_passed else "SOME CHECKS FAILED")
    with open(path("summary.txt"), "w") as handle:
        handle.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    print(f"artifacts in {outdir}/")
    return EXIT_OK if all_passed else EXIT_INCONSISTENT


# --- wiring ----------------------------------------------------------------

@functools.cache  # one parser per process: parsing leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="unembed",
        description=(
            "Inspect and transform the unembedding geometry of softmax "
            "classifiers."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("similarity", help="pairwise similarity matrix",
                       description="Print or save the pairwise similarity "
                       "matrix of the unembeddings.")
    _add_input_flags(p)
    p.add_argument("--metric", choices=("cosine", "dot", "euclidean"),
                   default="cosine")
    p.add_argument("--output", default=None, help="report json path")
    p.set_defaults(func=_cmd_similarity)

    p = sub.add_parser(
        "force-cosine",
        help="translate all unembeddings so one pair hits cosine -1 or +1",
        description="Apply the probability-preserving translation that "
        "forces the cosine of one unembedding pair to -1 or +1.",
    )
    _add_input_flags(p)
    p.add_argument("--pair", nargs=2, type=int, metavar=("I", "J"),
                   required=True)
    p.add_argument("--target", type=int, choices=(-1, 1), required=True)
    p.add_argument("--output", required=True, help="transformed model path")
    p.add_argument("--report", default=None, help="report json path")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", type=int, default=200,
                   help="synthetic check points when the model has none")
    p.set_defaults(func=_cmd_force_cosine)

    p = sub.add_parser("transform", help="center, normalize, translate, or scale",
                       description="Apply one transform and save the result.")
    _add_input_flags(p)
    p.add_argument("--op", choices=("center", "normalize", "translate", "scale"),
                   required=True)
    p.add_argument("--vector", nargs="+", type=float, default=None,
                   help="translation vector (for --op translate)")
    p.add_argument("--scale", type=float, default=None,
                   help="factor c > 0 (for --op scale; embeddings scale by 1/c)")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser(
        "ties",
        help="which labels can tie for the highest probability",
        description="Decide tie feasibility with a (d+1)-row phase-1 LP "
        "whose verdicts carry checked certificates; in 2D every verdict is "
        "cross-checked against the exact oracle (disagreement exits 4).",
    )
    _add_input_flags(p)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--index", type=int, default=None, help="one label index")
    which.add_argument("--all", action="store_true", help="all labels")
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--output", default=None, help="report json path")
    p.set_defaults(func=_cmd_ties)

    p = sub.add_parser("regions", help="rasterize argmax decision regions",
                       description="Write a grid csv of winning label "
                       "indices over a 2D box.")
    _add_input_flags(p)
    p.add_argument("--resolution", type=int, default=200)
    p.add_argument("--bounds", nargs=4, type=float, default=None,
                   metavar=("XMIN", "XMAX", "YMIN", "YMAX"))
    p.add_argument("--output", required=True, help="grid csv path")
    p.set_defaults(func=_cmd_regions)

    p = sub.add_parser(
        "reproduce",
        help="rebuild a bundled example and verify its expected values",
        description="Write a bundled example's models, reports, and grids, "
        "then check every expected value (exit 0 only if all pass).",
    )
    p.add_argument("name", choices=example_names())
    p.add_argument("--outdir", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", type=int, default=500)
    p.add_argument("--resolution", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser(
        "verify-equivalence",
        help="compare the probabilities of two models",
        description="Report the max probability difference between two "
        "models over shared points.",
    )
    _add_input_flags(p)
    p.add_argument("--other", required=True, help="second model file")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--output", default=None, help="report json path")
    p.set_defaults(func=_cmd_verify_equivalence)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse --help or usage error
        return int(exc.code or 0)
    except ModelFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
