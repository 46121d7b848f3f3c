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

The pair systems of coargmax_lp are decided as stacks: coargmax_phase1
builds the tableaus of many pairs of one model at once and pivots them
together, each under the rules above on its own, so every solution is
bit-identical to solve(coargmax_lp(...)) and so are the reports built on
it.  A stack holds a fixed budget of tableau bytes (_STACK_BYTES), so the
memory it takes does not grow with the number of pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinearProgram", "LpSolution", "solve", "coargmax_lp", "coargmax_phase1",
    "hull_lp", "PIVOT_TOL",
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
    if not (np.isfinite(am).all() and np.isfinite(bm).all()):
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
        if c.ndim != 1 or c.size == 0 or not np.isfinite(c).all():
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
        if np.isnan(lower).any() or np.isnan(upper).any():
            raise ValueError("bounds may be infinite but not NaN")
        if (lower > upper).any():
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


def _bland_after(rows: int, cols: int) -> int:
    """Degenerate pivots of one phase after which pricing turns to Bland."""
    return 2 * (rows + cols)


def _iteration_cap(rows: int, cols: int) -> int:
    """The default iteration cap of a solve, both phases together."""
    return 10 * (rows + cols) ** 2


def _run_phase(t, basis, cost, allowed, max_iter, iteration_start):
    """Minimize cost over the current tableau.  Returns (outcome, iterations)
    where outcome is 'optimal', 'unbounded', or 'cap'."""
    m = basis.shape[0]
    ncols = t.shape[1] - 1
    # reduced-cost row
    t[m, :ncols] = cost - cost[basis] @ t[:m, :ncols]
    t[m, ncols] = -(cost[basis] @ t[:m, ncols])
    bland_after = _bland_after(m, ncols)
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


def _columns(lp: LinearProgram):
    """(offset, first, free): x = offset + xhat[first], minus
    xhat[first + 1] for a free variable (split into a nonnegative pair)."""
    free = ~np.isfinite(lp.lower)
    offset = np.where(free, 0.0, lp.lower)
    width = np.where(free, 2, 1)
    first = np.cumsum(width) - width  # first standard-form column per variable
    return offset, first, free


def _standard_form(lp: LinearProgram):
    """(mat, rhs, offset, first, free), with offset, first and free as in
    _columns.  The columns of mat are the structural ones, one surplus per
    >= row, then one slack per finite upper bound; its rows are the a_eq
    rows, the a_ge rows, then one bound row per finite upper bound."""
    me, mi = lp.a_eq.shape[0], lp.a_ge.shape[0]
    offset, first, free = _columns(lp)
    ncols = first.size + int(free.sum())
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
    mat, rhs, _, _, _ = _standard_form(lp)
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
        max_iterations = _iteration_cap(m, total_cols)
    iterations = 0

    if n_art:
        cost1 = np.zeros(total_cols)
        cost1[ncols_all:] = 1.0
        structural = np.arange(total_cols) < ncols_all
        outcome, iterations = _run_phase(
            tab, basis, cost1, structural, max_iterations, iterations
        )
        # "cap", or "unbounded", which a sum of nonnegatives never is
        if outcome != "optimal":
            return LpSolution("indeterminate", None, None, iterations)
        if -tab[m, total_cols] > PHASE1_TOL:
            return _farkas(cost1[unit_cols], tab[m, unit_cols], neg, iterations)
    return _finish(lp, tab, basis, ncols_all, max_iterations, iterations)


def _farkas(unit_cost, unit_reduced, neg, iterations) -> LpSolution:
    """The infeasible verdict of a phase 1 that ended with a positive sum
    of artificials.  y = c_B B^-1 is the starting unit columns' cost minus
    their reduced cost; negated rows flip back to original orientation."""
    duals = unit_cost - unit_reduced
    duals[neg] *= -1.0
    duals.setflags(write=False)
    return LpSolution("infeasible", None, None, iterations, duals)


def _finish(lp: LinearProgram, tab, basis, ncols_all: int,
            max_iterations: int, iterations: int) -> LpSolution:
    """The tail of a solve whose phase 1 ended feasible (or was not
    needed): drive leftover artificials (the columns from ncols_all on) out
    of the basis, dropping redundant rows, run phase 2 on the structural
    columns, and check the residuals of the vertex found."""
    m = basis.shape[0]
    total_cols = tab.shape[1] - 1
    structural = np.arange(total_cols) < ncols_all
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

    # phase 2: minimize the negated objective over structural columns.  A
    # zero objective (every system the package builds) prices no column,
    # so below the cap the vertex phase 1 ended on is optimal as it stands.
    offset, first, free = _columns(lp)
    if lp.objective.any() or iterations >= max_iterations:
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
    me, mi = lp.a_eq.shape[0], lp.a_ge.shape[0]
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
    if (x[finite_lo] < lp.lower[finite_lo] - 1e-9 * scale).any():
        ok = False
    if (x[finite_hi] > lp.upper[finite_hi] + 1e-9 * scale).any():
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
    _check_pairs(g.shape[0], [(i, j)])
    return _coargmax_system(np.ldexp(g, -pow2_exponent(g)), i, j)


def _check_pairs(k: int, pairs) -> None:
    for i, j in pairs:
        if i == j:
            raise ValueError("need two distinct label indices")
        if not (0 <= i < k and 0 <= j < k):
            raise IndexError(f"label indices ({i}, {j}) out of range for k={k}")


def _coargmax_system(g, i: int, j: int) -> LinearProgram:
    """coargmax_lp's system on the rescaled model g."""
    k, d = g.shape
    others = [m for m in range(k) if m not in (i, j)]
    a_eq = np.zeros((d + 1, k - 1))
    a_eq[:d, :-1] = g[others].T
    a_eq[:d, -1] = g[i] - g[j]
    a_eq[d, :-1] = 1.0
    b_eq = np.append(g[i], 1.0)
    lower = np.append(np.zeros(k - 2), -np.inf)
    return LinearProgram(np.zeros(k - 1), a_eq, b_eq, lower=lower)


# Bytes of pair tableaus that coargmax_phase1 pivots together (at least
# one tableau per stack); one scratch buffer of the same size serves every
# pivot of every stack.
_STACK_BYTES = 256 * 1024


def coargmax_phase1(unembeddings, pairs) -> list[LpSolution]:
    """solve(coargmax_lp(unembeddings, i, j)) for every pair (i, j) of
    label indices in `pairs`, in order and bit for bit, with the phase 1
    of many pairs pivoted together.

    The tableaus of the pairs are built straight from the rescaled model
    and stacked, _STACK_BYTES at a time.  Each pivot step of a stack
    applies solve's rules to every tableau on its own: Dantzig pricing
    with ties to the lowest column, the ratio test with ties to the lowest
    basic index, Bland's rule after too many degenerate pivots of that
    tableau, and the iteration cap.  A tableau leaves the stack when its
    phase 1 ends; one that ends feasible finishes through solve's own
    tail (drive-out, phase 2 and residual check)."""
    g = unembeddings.vectors
    k, d = g.shape
    pairs = [(int(i), int(j)) for i, j in pairs]
    _check_pairs(k, pairs)
    g = np.ldexp(g, -pow2_exponent(g))
    shape = (d + 2, k + d + 2)  # one tableau: d + 1 rows and the cost row
    per_stack = max(1, _STACK_BYTES // (8 * shape[0] * shape[1]))
    scratch = np.empty((min(per_stack, len(pairs)), *shape))
    out: list[LpSolution] = []
    for start in range(0, len(pairs), per_stack):
        out += _phase1_stack(g, pairs[start:start + per_stack], scratch)
    return out


def _phase1_stack(g, pairs, scratch) -> list[LpSolution]:
    """coargmax_phase1 for one stack of pairs of the rescaled model g.
    The live tableaus are always t[:live]; one whose phase 1 ends swaps
    with the last live one."""
    k, d = g.shape
    n, m = len(pairs), d + 1
    i, j = np.array(pairs).T
    # solve's tableau of coargmax_lp: k structural columns (the other
    # labels, s+ and s-), one artificial per row, the rhs; rows with a
    # negative rhs negated; the cost row last
    total = k + m
    t = np.zeros((n, m + 1, total + 1))
    rest = np.arange(k - 2)
    others = (rest + (rest >= np.minimum(i, j)[:, None])
              + (rest >= np.maximum(i, j)[:, None] - 1))
    t[:, :d, :k - 2] = g[others].transpose(0, 2, 1)
    t[:, d, :k - 2] = 1.0
    t[:, :d, k - 2] = g[i] - g[j]
    t[:, :d, k - 1] = -t[:, :d, k - 2]
    t[:, :d, total] = g[i]
    t[:, d, total] = 1.0
    neg = t[:, :m, total] < 0.0
    flip = np.where(neg, -1.0, 1.0)
    t[:, :m, :k] *= flip[:, :, None]
    t[:, :m, total] *= flip
    t[:, np.arange(m), k + np.arange(m)] = 1.0
    basis = k + np.arange(m) + np.zeros((n, 1), dtype=np.intp)

    # phase 1 as in _run_phase, with cost 1 on the artificials.  The
    # stacked matmul makes the BLAS call of _run_phase's cost[basis] @ t
    # once per tableau, so the sums round alike.
    ones = np.ones((n, 1, m))  # cost[basis] of the artificial start
    cost = np.where(np.arange(total) < k, 0.0, 1.0)
    t[:, m, :total] = cost - (ones @ t[:, :m, :total])[:, 0]
    t[:, m, total] = -(ones @ t[:, :m, total:])[:, 0, 0]
    bland_after = _bland_after(m, total)
    max_iterations = _iteration_cap(m, total)
    degenerate = np.zeros(n, dtype=np.int64)
    lp_of = np.arange(n)  # the pair each slot of the stack holds
    slots = np.arange(n)
    out: list = [None] * n
    live, iterations = n, 0
    # the ratios over pivot-column entries <= PIVOT_TOL are masked out
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while live:
            if iterations >= max_iterations:
                for s in range(live):
                    out[lp_of[s]] = LpSolution("indeterminate", None, None,
                                               iterations)
                break
            tl, at = t[:live], slots[:live]
            reduced = tl[:, m, :k]
            eligible = reduced < -PIVOT_TOL
            col = np.where(eligible, reduced, np.inf).argmin(axis=1)
            if iterations > bland_after:  # else no count can exceed it
                bland = degenerate[:live] > bland_after
                col = np.where(bland, eligible.argmax(axis=1), col)
            pivot_col = tl[at, :m, col]
            positive = pivot_col > PIVOT_TOL
            ratios = np.where(positive, tl[:, :m, total] / pivot_col, np.inf)
            best = ratios.min(axis=1, keepdims=True)
            tied = ratios <= best + PIVOT_TOL * (1.0 + np.abs(best))
            row = np.where(tied, basis[:live], total).argmin(axis=1)
            piv, step = pivot_col[at, row], ratios[at, row]

            # a tableau whose phase 1 ended swaps with the last live one
            ended = (~(eligible.any(axis=1) & positive.any(axis=1))).nonzero()[0]
            for s in ended[::-1]:
                if eligible[s].any():  # unbounded: not for a sum of >= 0
                    sol = LpSolution("indeterminate", None, None, iterations)
                elif -t[s, m, total] > PHASE1_TOL:
                    sol = _farkas(1.0, t[s, m, k:total], neg[s], iterations)
                else:
                    sol = _finish(_coargmax_system(g, *pairs[lp_of[s]]),
                                  t[s].copy(), basis[s].copy(), k,
                                  max_iterations, iterations)
                out[lp_of[s]] = sol
                live -= 1
                for state in (t, basis, neg, degenerate, lp_of, col, row,
                              piv, step):
                    state[s] = state[live]
            if not live:
                break

            # one pivot of every live tableau, in _pivot's order of operations
            tl, at, col, row = t[:live], slots[:live], col[:live], row[:live]
            degenerate[:live] += step[:live] <= PIVOT_TOL
            factors = tl[at, :, col]
            factors[at, row] = 0.0
            pivot_row = tl[at, row] / piv[:live, None]
            tl[at, row] = pivot_row
            work = scratch[:live]
            np.multiply(factors[:, :, None], pivot_row[:, None, :], out=work)
            tl -= work
            tl[at, :, col] = 0.0
            tl[at, row, col] = 1.0
            basis[at, row] = col
            iterations += 1
    return out


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
