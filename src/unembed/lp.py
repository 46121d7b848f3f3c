"""Dense two-phase simplex solver for small linear programs.

Problems are stated in maximize form over variables with per-variable bounds:

    maximize  c . x
    s.t.      a_eq @ x  = b_eq
              a_ge @ x >= b_ge
              lower <= x <= upper      (entries may be -inf / +inf)

The solver converts to standard form (shift variables with a finite lower
bound, split free variables into a nonnegative pair, turn finite upper bounds
into slack rows, give >= rows a surplus variable), then runs the textbook
two-phase tableau method:

  * Entering column: most negative reduced cost, ties to the lowest column
    index (Dantzig).  After more than 2 * (rows + columns) degenerate pivots
    within a phase, the rule switches to Bland's (lowest eligible index),
    which guarantees termination.
  * Leaving row: minimum ratio, ties to the lowest basic-variable index.
  * Pivot eligibility threshold: PIVOT_TOL = 1e-9.
  * Iteration cap: 10 * (rows + columns)^2 per solve; hitting it yields
    status "indeterminate", never a wrong verdict.

When phase 1 proves the constraints infeasible, the solution carries the
phase-1 duals, a Farkas certificate.  The pivot sequence is a pure function
of the input, so identical problems produce bit-identical solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinearProgram", "LpSolution", "solve", "coargmax_lp", "hull_lp", "PIVOT_TOL",
]

PIVOT_TOL = 1e-9
PHASE1_TOL = 1e-7


def _as_matrix(a, b, n, name):
    if a is None or (hasattr(a, "__len__") and len(a) == 0):
        if b is not None and len(b):
            raise ValueError(f"{name} rhs given without a matrix")
        return np.zeros((0, n)), np.zeros(0)
    if b is None:
        raise ValueError(f"{name} matrix given without a rhs")
    am = np.asarray(a, dtype=np.float64)
    bm = np.asarray(b, dtype=np.float64)
    if am.ndim != 2 or am.shape[1] != n:
        raise ValueError(f"{name} must be a matrix with {n} columns")
    if bm.shape != (am.shape[0],):
        raise ValueError(f"{name} rhs length {bm.shape} != {am.shape[0]} rows")
    if not (np.all(np.isfinite(am)) and np.all(np.isfinite(bm))):
        raise ValueError(f"{name} contains non-finite entries")
    return am, bm


@dataclass(frozen=True)
class LinearProgram:
    """A maximize-form LP; constraint blocks may be omitted."""

    objective: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_ge: np.ndarray | None = None
    b_ge: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=np.float64)
        if c.ndim != 1 or c.size == 0 or not np.all(np.isfinite(c)):
            raise ValueError("objective must be a finite 1-D vector")
        n = c.shape[0]
        a_eq, b_eq = _as_matrix(self.a_eq, self.b_eq, n, "a_eq")
        a_ge, b_ge = _as_matrix(self.a_ge, self.b_ge, n, "a_ge")
        lower = (
            np.full(n, -np.inf)
            if self.lower is None
            else np.asarray(self.lower, dtype=np.float64).copy()
        )
        upper = (
            np.full(n, np.inf)
            if self.upper is None
            else np.asarray(self.upper, dtype=np.float64).copy()
        )
        if lower.shape != (n,) or upper.shape != (n,):
            raise ValueError("bounds must have one entry per variable")
        if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
            raise ValueError("bounds may be infinite but not NaN")
        if np.any(lower > upper):
            raise ValueError("lower bound exceeds upper bound")
        for attr, val in (
            ("objective", c), ("a_eq", a_eq), ("b_eq", b_eq),
            ("a_ge", a_ge), ("b_ge", b_ge), ("lower", lower), ("upper", upper),
        ):
            val.setflags(write=False)
            object.__setattr__(self, attr, val)

    @property
    def n(self) -> int:
        return self.objective.shape[0]


@dataclass(frozen=True)
class LpSolution:
    """status is one of optimal | infeasible | unbounded | indeterminate;
    x and objective are filled only when optimal.

    duals is filled only when infeasible: the phase-1 dual vector y, one
    entry per constraint row in original orientation (the a_eq rows, the
    a_ge rows, then one row per finite upper bound).  It is a Farkas
    certificate up to the pivot tolerance: y . b > 0 while y . A_col <= 0
    for every nonnegative standard-form column.
    """

    status: str
    x: np.ndarray | None
    objective: float | None
    iterations: int
    duals: np.ndarray | None = None


def _pivot(t: np.ndarray, row: int, col: int) -> None:
    t[row] = t[row] / t[row, col]
    factors = t[:, col].copy()
    factors[row] = 0.0
    t -= np.outer(factors, t[row])
    t[:, col] = 0.0
    t[row, col] = 1.0


def _run_phase(t, basis, cost, allowed, max_iter, iteration_start):
    """Minimize cost over the current tableau.  Returns (outcome, iterations)
    where outcome is 'optimal', 'unbounded', or 'cap'."""
    m = basis.shape[0]
    ncols = t.shape[1] - 1
    # reduced-cost row
    t[m, :ncols] = cost - cost[basis] @ t[:m, :ncols]
    t[m, ncols] = -(cost[basis] @ t[:m, ncols])
    bland_after = 2 * (m + ncols)
    degenerate_pivots = 0
    iterations = iteration_start
    while True:
        if iterations >= max_iter:
            return "cap", iterations
        reduced = t[m, :ncols]
        eligible = np.flatnonzero(allowed & (reduced < -PIVOT_TOL))
        if eligible.size == 0:
            return "optimal", iterations
        if degenerate_pivots > bland_after:
            col = int(eligible[0])  # Bland: lowest eligible index
        else:
            # Dantzig: most negative reduced cost, ties to lowest index
            col = int(eligible[np.argmin(reduced[eligible])])
        pivot_col = t[:m, col]
        rows = np.flatnonzero(pivot_col > PIVOT_TOL)
        if rows.size == 0:
            return "unbounded", iterations
        ratios = t[rows, ncols] / pivot_col[rows]
        best = ratios.min()
        tied = rows[ratios <= best + PIVOT_TOL * (1.0 + abs(best))]
        row = int(tied[np.argmin(basis[tied])])
        if t[row, ncols] / t[row, col] <= PIVOT_TOL:
            degenerate_pivots += 1
        _pivot(t, row, col)
        basis[row] = col
        iterations += 1


def _standard_form(lp: LinearProgram):
    """(mat, rhs, offset, first, free) with x = offset + xhat[first], minus
    xhat[first + 1] for a free variable (split into a nonnegative pair).
    The columns of mat are the structural ones, one surplus per >= row,
    then one slack per finite upper bound; its rows are the a_eq rows, the
    a_ge rows, then one bound row per finite upper bound."""
    me, mi = lp.a_eq.shape[0], lp.a_ge.shape[0]
    free = ~np.isfinite(lp.lower)
    offset = np.where(free, 0.0, lp.lower)
    width = np.where(free, 2, 1)
    first = np.cumsum(width) - width  # first standard-form column per variable
    ncols = int(width.sum())
    bounded = np.flatnonzero(np.isfinite(lp.upper))
    nb = bounded.size

    mat = np.zeros((me + mi + nb, ncols + mi + nb))
    rhs = np.zeros(me + mi + nb)
    a_all = np.vstack([lp.a_eq, lp.a_ge])
    mat[: me + mi, first] += a_all
    mat[: me + mi, first[free] + 1] += -1.0 * a_all[:, free]
    if me:
        rhs[:me] = lp.b_eq - lp.a_eq @ offset
    if mi:
        rhs[me : me + mi] = lp.b_ge - lp.a_ge @ offset
        mat[me + np.arange(mi), ncols + np.arange(mi)] = -1.0  # surplus
    rows = me + mi + np.arange(nb)
    mat[rows, first[bounded]] = 1.0
    free_bounded = free[bounded]
    mat[rows[free_bounded], first[bounded[free_bounded]] + 1] = -1.0
    mat[rows, ncols + mi + np.arange(nb)] = 1.0  # slack
    hi, lo = lp.upper[bounded], lp.lower[bounded]
    rhs[rows] = np.where(free_bounded, hi, hi - lo)
    return mat, rhs, offset, first, free


def solve(lp: LinearProgram, max_iterations: int | None = None) -> LpSolution:
    """Solve a LinearProgram; see the module docstring for the algorithm."""
    me = lp.a_eq.shape[0]
    mi = lp.a_ge.shape[0]
    mat, rhs, offset, first, free = _standard_form(lp)
    m, ncols_all = mat.shape
    nb = m - me - mi
    ncols = ncols_all - mi - nb  # structural columns

    # normalize rhs >= 0
    neg = rhs < 0.0
    mat[neg] *= -1.0
    rhs[neg] = -rhs[neg]

    # seed the basis with unit slack/surplus columns where possible (a
    # surplus column is +1 only in a negated row)
    basis = np.full(m, -1, dtype=np.int64)
    rows = np.arange(me, m)
    cols = ncols + np.arange(mi + nb)
    unit = mat[rows, cols] == 1.0
    basis[rows[unit]] = cols[unit]

    art_rows = np.flatnonzero(basis < 0)
    n_art = art_rows.size
    total_cols = ncols_all + n_art
    tab = np.zeros((m + 1, total_cols + 1))
    tab[:m, :ncols_all] = mat
    tab[:m, total_cols] = rhs
    tab[art_rows, ncols_all + np.arange(n_art)] = 1.0
    basis[art_rows] = ncols_all + np.arange(n_art)
    unit_cols = basis.copy()  # the identity block the tableau started from

    if max_iterations is None:
        max_iterations = 10 * (m + total_cols) ** 2
    iterations = 0

    structural = np.zeros(total_cols, dtype=bool)
    structural[:ncols_all] = True

    if n_art:
        cost1 = np.zeros(total_cols)
        cost1[ncols_all:] = 1.0
        outcome, iterations = _run_phase(
            tab, basis, cost1, structural.copy(), max_iterations, iterations
        )
        if outcome == "cap":
            return LpSolution("indeterminate", None, None, iterations)
        if outcome == "unbounded":  # cannot happen for a sum of nonnegatives
            return LpSolution("indeterminate", None, None, iterations)
        if -tab[m, total_cols] > PHASE1_TOL:
            # y = c_B B^-1 is the starting unit columns' cost minus their
            # reduced cost; negated rows flip back to original orientation
            duals = cost1[unit_cols] - tab[m, unit_cols]
            duals[neg] *= -1.0
            duals.setflags(write=False)
            return LpSolution("infeasible", None, None, iterations, duals)
        # drive leftover artificials out of the basis; drop redundant rows
        drop: list[int] = []
        for row in range(m):
            if basis[row] < ncols_all:
                continue
            candidates = np.flatnonzero(
                structural & (np.abs(tab[row, :total_cols]) > PIVOT_TOL)
            )
            if candidates.size:
                _pivot(tab, row, int(candidates[0]))
                basis[row] = int(candidates[0])
            else:
                drop.append(row)
        if drop:
            keep = np.setdiff1d(np.arange(m), np.asarray(drop))
            tab = np.vstack([tab[keep], tab[m:]])
            basis = basis[keep]
            m = basis.shape[0]

    # phase 2: minimize the negated objective over structural columns
    cost2 = np.zeros(total_cols)
    cost2[first] += -lp.objective
    cost2[first[free] + 1] += lp.objective[free]
    outcome, iterations = _run_phase(
        tab, basis, cost2, structural, max_iterations, iterations
    )
    if outcome == "cap":
        return LpSolution("indeterminate", None, None, iterations)
    if outcome == "unbounded":
        return LpSolution("unbounded", None, None, iterations)

    xhat = np.zeros(total_cols)
    xhat[basis] = tab[:m, total_cols]
    x = offset + xhat[first]
    x[free] += -1.0 * xhat[first[free] + 1]

    # defensive residual check: downgrade rather than return a bad vertex
    scale = 1.0 + max(
        float(np.abs(lp.b_eq).max()) if me else 0.0,
        float(np.abs(lp.b_ge).max()) if mi else 0.0,
        float(np.abs(x).max()),
    )
    ok = True
    if me and np.abs(lp.a_eq @ x - lp.b_eq).max() > 1e-9 * scale:
        ok = False
    if mi and (lp.b_ge - lp.a_ge @ x).max() > 1e-9 * scale:
        ok = False
    finite_lo = np.isfinite(lp.lower)
    finite_hi = np.isfinite(lp.upper)
    if np.any(x[finite_lo] < lp.lower[finite_lo] - 1e-9 * scale):
        ok = False
    if np.any(x[finite_hi] > lp.upper[finite_hi] + 1e-9 * scale):
        ok = False
    if not ok:
        return LpSolution("indeterminate", None, None, iterations)

    x.setflags(write=False)
    return LpSolution("optimal", x, float(lp.objective @ x), iterations)


def pow2_exponent(vectors) -> int:
    """The e with max |v| in [2**(e-1), 2**e): dividing by 2**e (np.ldexp)
    puts the largest entry in [0.5, 1) and, barring underflow, rounds
    nothing."""
    return math.frexp(float(np.abs(vectors).max()))[1]


def coargmax_lp(unembeddings, i: int, j: int) -> LinearProgram:
    """Phase-1 LP deciding whether labels i and j can tie for the highest
    score, with d + 1 equality rows.

    Variables are weights mu_k >= 0 on every other label k (in index
    order) and a free s, the last variable:

        sum_k mu_k g_k - s (g_j - g_i) = g_i,    sum_k mu_k = 1.

    It is feasible exactly when a convex combination of the other labels
    lies on the line through g_i and g_j.  By Motzkin's transposition
    theorem that is exactly when no f has f.g_i = f.g_j > f.g_k for every
    other k, i.e. when the pair cannot tie.  When phase 1 ends infeasible,
    its duals (f, c) satisfy f.g_k + c <= 0 < f.g_i + c and
    f.(g_j - g_i) = 0: f is a tie witness.  The objective is zero, so
    phase 1 decides everything.

    The model is first divided by 2**pow2_exponent(g).  That is exact, so
    no verdict changes, and it makes the system the same for every
    power-of-two scale of the model.  The sum row makes it move with any
    translation of the labels, so no centring is needed.
    """
    g = unembeddings.vectors
    k, d = g.shape
    if i == j:
        raise ValueError("need two distinct label indices")
    if not (0 <= i < k and 0 <= j < k):
        raise IndexError(f"label indices ({i}, {j}) out of range for k={k}")
    g = np.ldexp(g, -pow2_exponent(g))
    others = [m for m in range(k) if m not in (i, j)]
    a_eq = np.zeros((d + 1, k - 1))
    a_eq[:d, :-1] = g[others].T
    a_eq[:d, -1] = g[i] - g[j]
    a_eq[d, :-1] = 1.0
    b_eq = np.append(g[i], 1.0)
    lower = np.append(np.zeros(k - 2), -np.inf)
    return LinearProgram(np.zeros(k - 1), a_eq, b_eq, lower=lower)


def hull_lp(unembeddings, i: int) -> LinearProgram:
    """Phase-1 LP asking whether label i lies in the convex hull of the
    other labels: weights mu_k >= 0 on every other label k (in index
    order) with

        sum_k mu_k g_k = g_i,    sum_k mu_k = 1,

    on the model divided by 2**pow2_exponent(g), as in coargmax_lp.  It is
    coargmax_lp's system without the s column.  When it is feasible, label
    i wins nowhere and can tie with no label whose vector differs from
    g_i."""
    g = unembeddings.vectors
    k = g.shape[0]
    if not 0 <= i < k:
        raise IndexError(f"label index {i} out of range for k={k}")
    g = np.ldexp(g, -pow2_exponent(g))
    a_eq = np.vstack([np.delete(g, i, axis=0).T, np.ones(k - 1)])
    b_eq = np.append(g[i], 1.0)
    return LinearProgram(np.zeros(k - 1), a_eq, b_eq, lower=np.zeros(k - 1))
