"""The benchmark's own model I/O and the correctness checks of each output.

Nothing here calls `unembed` to decide what is correct: models are read
and written by the plain parsers below, tie verdicts are re-decided with
scipy's HiGHS on the same margin LP, witnesses are re-scored, and region
grids are compared with a numpy argmax over the documented cell centres.
Every check returns a list of error strings; an empty list is a pass.
"""

from __future__ import annotations

import json
import os

import numpy as np

GRID_HEADER = "x,y,label_index"


# --- model files --------------------------------------------------------------

def write_vector_csv(path, id_column, names, matrix) -> None:
    with open(path, "w") as handle:
        handle.write(",".join([id_column] + [f"dim_{m}" for m in range(matrix.shape[1])]))
        handle.write("\n")
        for name, row in zip(names, matrix):
            handle.write(name + "," + ",".join("%.17g" % v for v in row) + "\n")


def write_model_json(path, labels, vectors, points=None) -> None:
    payload = {"version": "1", "d": int(vectors.shape[1]), "labels": list(labels),
               "unembeddings": vectors.tolist()}
    if points is not None:
        payload["embeddings"] = points.tolist()
    with open(path, "w") as handle:
        json.dump(payload, handle)


def read_vector_csv(path):
    with open(path) as handle:
        lines = handle.read().splitlines()
    rows = [line.split(",") for line in lines[1:] if line]
    return [row[0] for row in rows], np.array([[float(x) for x in row[1:]] for row in rows])


def read_model(path, embeddings_path=None):
    """(labels, unembeddings, points or None) from a CSV or JSON model."""
    if path.endswith(".json"):
        with open(path) as handle:
            data = json.load(handle)
        points = data.get("embeddings")
        return (data["labels"], np.array(data["unembeddings"], dtype=float),
                None if points is None else np.array(points, dtype=float))
    labels, vectors = read_vector_csv(path)
    points = None
    if embeddings_path is not None and os.path.exists(embeddings_path):
        points = read_vector_csv(embeddings_path)[1]
    return labels, vectors, points


def same_bits(a, b) -> bool:
    return (a is not None and b is not None and a.shape == b.shape
            and np.array_equal(a.view(np.uint64), b.view(np.uint64)))


def check_model(path, labels, expected, points=None, exact=True,
                embeddings_path=None) -> list[str]:
    """The model at `path` holds `labels`, `expected` (bit for bit unless
    exact is False) and, when given, exactly `points`."""
    got_labels, got, got_points = read_model(path, embeddings_path)
    errors = []
    if list(got_labels) != list(labels):
        errors.append(f"{path}: labels differ")
    elif exact and not same_bits(got, expected):
        errors.append(f"{path}: unembeddings are not bit-exact")
    elif not exact and not np.allclose(got, expected, rtol=0,
                                       atol=1e-12 * (1 + np.abs(expected).max())):
        errors.append(f"{path}: unembeddings differ from the expected transform")
    if points is not None and not same_bits(got_points, points):
        errors.append(f"{path}: embedding points are not bit-exact")
    return errors


# --- tie feasibility -------------------------------------------------------------

class HighsMargins:
    """Optimal margin t of the tie LP for one model, decided by HiGHS:
    maximize t s.t. (g_i-g_j).f = 0, (g_i-g_m).f >= t, -1 <= f <= 1, t <= 1e6."""

    def __init__(self, g):
        self.g = np.asarray(g, dtype=float)
        self.cache: dict = {}

    def __call__(self, i, j) -> float:
        key = (min(i, j), max(i, j))
        if key not in self.cache:
            from scipy.optimize import linprog  # imported once timing is over

            i, j = key
            k, d = self.g.shape
            others = [m for m in range(k) if m not in key]
            c = np.zeros(d + 1)
            c[d] = -1.0
            a_eq = np.append(self.g[i] - self.g[j], 0.0)[None, :]
            a_ub = np.hstack([self.g[others] - self.g[i], np.ones((len(others), 1))])
            res = linprog(
                c, A_ub=a_ub, b_ub=np.zeros(len(others)), A_eq=a_eq, b_eq=[0.0],
                bounds=[(-1.0, 1.0)] * d + [(None, 1e6)], method="highs")
            self.cache[key] = -res.fun if res.status == 0 else float("nan")
        return self.cache[key]


def hull_vertices(g) -> int:
    """Labels of `g` that are vertices of the convex hull of all labels: the
    rows that no convex combination of the other rows reproduces (HiGHS)."""
    from scipy.optimize import linprog

    g = np.asarray(g, dtype=float)
    k = len(g)
    count = 0
    for i in range(k):
        others = np.delete(g, i, axis=0)
        res = linprog(np.zeros(k - 1), A_eq=np.vstack([others.T, np.ones(k - 1)]),
                      b_eq=np.append(g[i], 1.0), bounds=[(0, None)] * (k - 1),
                      method="highs")
        count += res.status == 2  # infeasible: not inside the others' hull
    return count


def check_feasibility(section, labels, g, margins) -> tuple[list[str], dict]:
    """Check a report's feasibility section against HiGHS and re-score every
    witness.  A verdict within a factor 10 of eps of the HiGHS margin is not
    a clear disagreement; degenerate verdicts are counted, never failed."""
    errors = []
    eps = float(section["eps"])
    pairs = section["pairs"]
    k = len(g)
    keys = sorted((min(p["i"], p["j"]), max(p["i"], p["j"])) for p in pairs)
    if keys != [(i, j) for i in range(k) for j in range(i + 1, k)]:
        errors.append("pairs do not list every unordered pair exactly once")
    counts = {"pairs": len(pairs), "degenerate": 0}
    feasible: dict[str, set] = {label: set() for label in labels}
    for p in pairs:
        i, j, verdict = p["i"], p["j"], p["verdict"]
        t = margins(i, j)
        if t != t:
            errors.append(f"pair ({i}, {j}): HiGHS found no optimum")
        elif verdict == "feasible":
            feasible[labels[i]].add(labels[j])
            feasible[labels[j]].add(labels[i])
            if t <= eps / 10:
                errors.append(f"pair ({i}, {j}): feasible, HiGHS margin {t:.3g}")
            scores = g @ np.asarray(p["witness"], dtype=float)
            rest = np.delete(scores, [i, j])
            if abs(scores[i] - scores[j]) > 1e-9 * (1 + abs(scores[i])) or (
                    rest.size and scores[i] <= rest.max()):
                errors.append(f"pair ({i}, {j}): witness does not tie at the top")
        elif verdict == "infeasible":
            if t >= 10 * eps:
                errors.append(f"pair ({i}, {j}): infeasible, HiGHS margin {t:.3g}")
        elif verdict == "degenerate":
            counts["degenerate"] += 1
        else:
            errors.append(f"pair ({i}, {j}): verdict {verdict!r}")
    for label, partners in section["partners"].items():
        if set(partners) != feasible.get(label):
            errors.append(f"partners of {label} disagree with the pair verdicts")
    return errors, counts


def check_ties_report(path, labels, g, margins) -> tuple[list[str], dict]:
    with open(path) as handle:
        report = json.load(handle)
    return check_feasibility(report["feasibility"], labels, g, margins)


# --- region grids ------------------------------------------------------------------

def inflated_bounds(g, inflate=0.5):
    """Bounding box of the unembeddings, half-widths grown by 50%, unit pad
    on a degenerate axis (the documented default of `regions`)."""
    lo, hi = g.min(axis=0), g.max(axis=0)
    half = (hi - lo) / 2 * (1 + inflate)
    half = np.where(half == 0, 1.0, half)
    mid = (lo + hi) / 2
    return [(m - h, m + h) for m, h in zip(mid, half)]


def check_grid(path, g, bounds, resolution) -> list[str]:
    """Header, y-major cell centres and argmax labels of a grid CSV.  A label
    that differs from numpy's argmax fails only when its score is clearly
    lower than the best."""
    with open(path) as handle:
        if handle.readline().strip() != GRID_HEADER:
            return [f"{path}: header is not {GRID_HEADER!r}"]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    (x0, x1), (y0, y1) = bounds
    xs = x0 + (np.arange(resolution) + 0.5) * ((x1 - x0) / resolution)
    ys = y0 + (np.arange(resolution) + 0.5) * ((y1 - y0) / resolution)
    if data.shape != (resolution * resolution, 3):
        return [f"{path}: {data.shape[0]} cells, expected {resolution ** 2}"]
    centres = np.column_stack([np.tile(xs, resolution), np.repeat(ys, resolution)])
    scale = 1e-12 * (1 + np.abs(centres).max())
    if not np.allclose(data[:, :2], centres, rtol=0, atol=scale):
        return [f"{path}: cell centres differ from the documented grid"]
    scores = data[:, 0:1] * g[:, 0] + data[:, 1:2] * g[:, 1]
    labels = data[:, 2].astype(np.int64)
    if labels.min() < 0 or labels.max() >= len(g):
        return [f"{path}: label index out of range"]
    rows = np.arange(len(labels))
    best = scores.argmax(axis=1)
    gap = scores[rows, best] - scores[rows, labels]
    bad = gap > 1e-9 * (1 + np.abs(scores).max(axis=1))
    return [f"{path}: {int(bad.sum())} cells are not the argmax"] if bad.any() else []


# --- reports -------------------------------------------------------------------------

def cosine_matrix(g):
    norms = np.sqrt(np.einsum("ij,ij->i", g, g))
    return np.clip(np.einsum("ij,kj->ik", g, g) / np.outer(norms, norms), -1, 1)


def cosine(a, b) -> float:
    return float(a @ b / np.sqrt((a @ a) * (b @ b)))


def softmax(scores):
    z = np.exp(scores - scores.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def load_json(path):
    with open(path) as handle:
        return json.load(handle)
