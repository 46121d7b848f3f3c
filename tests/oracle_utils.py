"""Independent reference implementations used only by the tests.

The numeric references are computed with mpmath at 50 significant digits so
the package's float64 results can be judged against a source that shares
none of its code paths.  The pair-system references are the hand-written
builds of the Motzkin pair and hull systems that `unembed.lp._pair_systems`
must match bit for bit.  The file-format references at the end are the
plain per-field writers and reader that `unembed.model_io` must match byte
for byte and bit for bit.
"""

from __future__ import annotations

import csv
import math
from typing import NamedTuple

import mpmath
import numpy as np

from unembed import ModelFormatError
from unembed.lp import (
    _INFEASIBLE, _OPTIMAL, _STATUSES, _coargmax_phase1, pow2_exponent,
)

mpmath.mp.dps = 50


def softmax_reference(point, vectors) -> list[float]:
    """High-precision softmax of the scores vectors @ point."""
    scores = [
        mpmath.fsum(mpmath.mpf(repr(float(p))) * mpmath.mpf(repr(float(v)))
                    for p, v in zip(point, row))
        for row in vectors
    ]
    exps = [mpmath.e ** s for s in scores]
    total = mpmath.fsum(exps)
    return [float(e / total) for e in exps]


def cosine_reference(a, b) -> float:
    """High-precision cosine of the angle between two vectors."""
    av = [mpmath.mpf(repr(float(x))) for x in a]
    bv = [mpmath.mpf(repr(float(x))) for x in b]
    num = mpmath.fsum(x * y for x, y in zip(av, bv))
    na = mpmath.sqrt(mpmath.fsum(x * x for x in av))
    nb = mpmath.sqrt(mpmath.fsum(x * x for x in bv))
    return float(num / (na * nb))


def coargmax_bruteforce(vectors, i, j, samples=720, radii=(0.25, 1.0, 4.0)):
    """Search for a point where labels i and j strictly beat all others
    while tying each other, scanning ray directions on the tie line.

    The tie set {f : (g_i - g_j) . f = 0} is a hyperplane through the
    origin; in 2D it is spanned by one vector w, so scanning t * w and
    t * (-w) over a few magnitudes either finds a witness or (for the
    well-separated instances the tests use) correctly reports none.
    Only valid in 2D.
    """
    gi = [mpmath.mpf(repr(float(x))) for x in vectors[i]]
    gj = [mpmath.mpf(repr(float(x))) for x in vectors[j]]
    diff = [a - b for a, b in zip(gi, gj)]
    w = [-diff[1], diff[0]]
    norm = mpmath.sqrt(w[0] * w[0] + w[1] * w[1])
    if norm == 0:
        raise ValueError("identical unembeddings have no tie direction")
    w = [w[0] / norm, w[1] / norm]
    for sign in (1, -1):
        for r in radii:
            f = [sign * r * w[0], sign * r * w[1]]
            score_ij = gi[0] * f[0] + gi[1] * f[1]
            ok = True
            for k, row in enumerate(vectors):
                if k in (i, j):
                    continue
                gk = [mpmath.mpf(repr(float(x))) for x in row]
                if gk[0] * f[0] + gk[1] * f[1] >= score_ij:
                    ok = False
                    break
            if ok:
                return [float(f[0]), float(f[1])]
    return None


# --- pair systems, written out label by label -----------------------------

def coargmax_system_reference(g, i, j):
    """coargmax_lp's (a_eq, b_eq, free) on the rescaled model g: weights on
    every other label in index order, then the free s."""
    k, d = g.shape
    others = [m for m in range(k) if m not in (i, j)]
    a_eq = np.zeros((d + 1, k - 1))
    a_eq[:d, :-1] = g[others].T
    a_eq[:d, -1] = g[i] - g[j]
    a_eq[d, :-1] = 1.0
    free = np.zeros(k - 1, dtype=bool)
    free[-1] = True
    return a_eq, np.append(g[i], 1.0), free


def hull_system_reference(g, i):
    """The hull system's (a_eq, b_eq) of label i on the rescaled model g:
    weights on every other label in index order, no s."""
    k = g.shape[0]
    return np.vstack([np.delete(g, i, axis=0).T, np.ones(k - 1)]), np.append(g[i], 1.0)


def no_tie_columns_reference(g, i, j):
    """Every column of the system of each pair (i_p, j_p), as rows: (g_l, 1)
    of each other label l, then (g_i - g_j, 0) for s.  All pairs have
    i != j, or all have i = j (the hull system plus a zero s column)."""
    k, d = g.shape
    others = np.array([[m for m in range(k) if m not in (a, b)]
                       for a, b in zip(i, j)])
    columns = np.ones((len(i), others.shape[1] + 1, d + 1))
    columns[:, :-1, :d] = g[others]
    columns[:, -1, :d] = g[i] - g[j]
    columns[:, -1, d] = 0.0
    return columns


class Phase1(NamedTuple):
    """One pair's result of lp._coargmax_phase1: duals only where phase 1
    ended infeasible, the final basis only where it ended feasible."""

    status: str
    iterations: int
    duals: np.ndarray | None
    basis: np.ndarray | None


def phase1_solutions(unembeddings, pairs) -> list:
    """One Phase1 per pair from the arrays of lp._coargmax_phase1 on the
    power-of-two-rescaled model, for comparison with
    solve(coargmax_lp(unembeddings, i, j))."""
    g = unembeddings.vectors
    status, iterations, duals, basis = _coargmax_phase1(
        np.ldexp(g, -pow2_exponent(g)), pairs)
    return [Phase1(_STATUSES[code], steps,
                   duals[p] if code == _INFEASIBLE else None,
                   basis[p] if code == _OPTIMAL else None)
            for p, (code, steps) in enumerate(zip(status.tolist(),
                                                  iterations.tolist()))]


# --- file formats, one Python step per field ------------------------------

def write_vector_csv_reference(path, id_column, names, matrix):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([id_column] + [f"dim_{m}" for m in range(matrix.shape[1])])
        for name, row in zip(names, matrix):
            writer.writerow([name] + ["%.17g" % v for v in row])


def _parse_float(text, where):
    try:
        value = float(text)
    except ValueError:
        raise ModelFormatError(f"{where}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ModelFormatError(f"{where}: non-finite value: {text!r}")
    return value


def read_vector_csv_reference(path, id_column):
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ModelFormatError(f"{path}: empty file") from None
        if len(header) < 2 or header[0] != id_column:
            raise ModelFormatError(
                f"{path}, line 1: header must start with {id_column!r},dim_0,..."
            )
        d = len(header) - 1
        expected = [id_column] + [f"dim_{m}" for m in range(d)]
        if header != expected:
            raise ModelFormatError(f"{path}, line 1: header {header!r} != {expected!r}")
        names, rows = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 1:
                raise ModelFormatError(
                    f"{path}, line {lineno}: {len(row)} fields, expected {d + 1}"
                )
            if not row[0]:
                raise ModelFormatError(f"{path}, line {lineno}: empty {id_column} name")
            names.append(row[0])
            rows.append([
                _parse_float(text, f"{path}, line {lineno}, column {ci + 2}")
                for ci, text in enumerate(row[1:])
            ])
    return names, np.array(rows, dtype=np.float64).reshape(len(rows), d), d


def export_grid_csv_reference(grid, path):
    xs_text = [repr(float(v)) for v in grid.x_centers]
    ys_text = [repr(float(v)) for v in grid.y_centers]
    with open(path, "w", newline="") as handle:
        handle.write("x,y,label_index\n")
        for iy, y in enumerate(ys_text):
            row = grid.labels[iy]
            handle.writelines(f"{x},{y},{row[ix]}\n" for ix, x in enumerate(xs_text))
