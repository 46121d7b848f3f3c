"""Dense phase-1 simplex for the feasibility systems the package builds.

A system is

    a_eq @ x = b_eq,    x >= 0 except where `free` is set,

with a zero objective, so phase 1 decides it.  solve splits each free
variable x into a nonnegative pair, x = x+ - x-, with the columns of the
x- after all others (right after x+ where only the last variable is free,
as in every system the package builds), negates the rows with a negative
rhs, gives every row an artificial column and minimizes their sum by the
textbook tableau method:

  * Entering column: most negative reduced cost, ties to the lowest column
    index (Dantzig).  After more than 2 * (rows + columns) degenerate
    pivots, the rule switches to Bland's (lowest eligible index), which
    guarantees termination.
  * Leaving row: minimum ratio, ties to the lowest basic-variable index.
  * Pivot eligibility threshold: PIVOT_TOL = 1e-9.
  * Iteration cap: 10 * (rows + columns)^2 per solve; hitting it yields
    status "indeterminate", never a wrong verdict.

A sum of artificials left above PHASE1_TOL proves the system infeasible,
and the solution carries the phase-1 duals, a Farkas certificate.
Otherwise the leftover artificials are driven out of the basis and the
vertex reached is the solution, once its residuals are checked.  The
pivot sequence is a pure function of the input, so identical systems
produce bit-identical solutions.

The tie question of a pair of labels and the hull question of one label
are one system, written out only by _pair_systems: on the rescaled model,
its columns are (g_l, 1) for every other label l in index order, then
(g_i - g_j, 0) for the free s, and its rhs is (g_i, 1).  coargmax_lp is
that system for one pair; the hull system of label i is the pair (i, i)
without s.  _tableaus builds the phase-1 tableaus of a stack of systems,
and solve decides a stack of one.  _coargmax_phase1 decides the pair
systems of one model as stacks of up to _STACK_BYTES (2 MiB), each tableau
under the rules above on its own, so statuses, iteration counts and duals
are bit-identical to solve(coargmax_lp(...)).  It returns its results as
arrays, which geometry proves without an LpSolution per pair; for a pair
whose phase 1 ends feasible it returns the final basis, not a solution:
the labels that mix onto the line through g_i and g_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinearProgram", "LpSolution", "solve", "coargmax_lp", "PIVOT_TOL",
]

PIVOT_TOL = 1e-9
PHASE1_TOL = 1e-7


@dataclass(frozen=True)
class LinearProgram:
    """The system a_eq @ x = b_eq with x >= 0 except where the boolean
    vector `free` is set.  The arrays are stored as read-only copies."""

    a_eq: np.ndarray
    b_eq: np.ndarray
    free: np.ndarray

    def __post_init__(self):
        a = np.array(self.a_eq, dtype=np.float64, order="C")
        b = np.array(self.b_eq, dtype=np.float64)
        free = np.array(self.free, dtype=bool)
        if a.ndim != 2 or b.shape != a.shape[:1] or free.shape != a.shape[1:]:
            raise ValueError("need an (m, n) a_eq, m rhs entries and n free flags")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("a_eq and b_eq must be finite")
        for attr, val in (("a_eq", a), ("b_eq", b), ("free", free)):
            val.setflags(write=False)
            object.__setattr__(self, attr, val)


@dataclass(frozen=True)
class LpSolution:
    """status is one of optimal | infeasible | indeterminate; x is filled
    only when optimal.

    duals is filled only when infeasible: the phase-1 dual vector y, one
    entry per row of a_eq.  It is a Farkas certificate up to the pivot
    tolerance: y . b_eq > 0, while y . a_col <= 0 for the column of every
    nonnegative variable and y . a_col = 0 for that of every free one.
    """

    status: str
    x: np.ndarray | None
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
    """Degenerate pivots after which pricing turns to Bland."""
    return 2 * (rows + cols)


def _iteration_cap(rows: int, cols: int) -> int:
    """The iteration cap of a solve."""
    return 10 * (rows + cols) ** 2


def _run_phase1(t, basis, ncols: int, max_iter: int) -> tuple[bool, int]:
    """Minimize the sum of the artificials (the columns from ncols on, all
    basic at the start) over the tableau t of _tableaus.  Returns (ended,
    iterations); ended is False when the cap was hit or no row could leave,
    which a sum of nonnegatives never allows."""
    m = basis.shape[0]
    total = t.shape[1] - 1
    bland_after = _bland_after(m, total)
    degenerate_pivots = iterations = 0
    while iterations < max_iter:
        reduced = t[m, :ncols]
        eligible = np.flatnonzero(reduced < -PIVOT_TOL)
        if eligible.size == 0:
            return True, iterations
        if degenerate_pivots > bland_after:
            col = int(eligible[0])  # Bland: lowest eligible index
        else:
            # Dantzig: most negative reduced cost, ties to lowest index
            col = int(eligible[np.argmin(reduced[eligible])])
        pivot_col = t[:m, col]
        rows = np.flatnonzero(pivot_col > PIVOT_TOL)
        if rows.size == 0:
            return False, iterations
        ratios = t[rows, total] / pivot_col[rows]
        best = ratios.min()
        tied = rows[ratios <= best + PIVOT_TOL * (1.0 + abs(best))]
        row = int(tied[np.argmin(basis[tied])])
        if t[row, total] / t[row, col] <= PIVOT_TOL:
            degenerate_pivots += 1
        _pivot(t, row, col)
        basis[row] = col
        iterations += 1
    return False, iterations


def _tableaus(a_eq, b_eq, free):
    """The phase-1 tableaus of a stack of systems a_eq[p] x = b_eq[p] with
    the same free flags, as (t, basis, flip).  A tableau holds the columns
    of a_eq, the negated columns of the free variables, one artificial per
    row (basic at the start, so basis[p] is the same for every p) and the
    rhs; a row with a negative rhs is negated, where flip is -1.0 (else
    1.0).  The last row holds the reduced costs of phase 1, with cost 1 on
    the artificials."""
    n, m, width = a_eq.shape
    ncols = width + np.count_nonzero(free)
    total = ncols + m
    t = np.zeros((n, m + 1, total + 1))
    t[:, :m, :width] = a_eq
    t[:, :m, width:ncols] = -a_eq[:, :, free]
    t[:, :m, total] = b_eq
    flip = np.where(b_eq < 0.0, -1.0, 1.0)
    t[:, :m, :ncols] *= flip[:, :, None]
    t[:, :m, total] *= flip
    t[:, np.arange(m), ncols + np.arange(m)] = 1.0
    # the stacked matmul makes the BLAS call of a single ones @ t once per
    # tableau, so a stack rounds each sum as a stack of one does
    ones = np.ones((n, 1, m))  # the costs of the starting basis
    cost = np.where(np.arange(total) < ncols, 0.0, 1.0)
    t[:, m, :total] = cost - (ones @ t[:, :m, :total])[:, 0]
    t[:, m, total] = -(ones @ t[:, :m, total:])[:, 0, 0]
    return t, ncols + np.arange(m) + np.zeros((n, 1), dtype=np.intp), flip


def solve(lp: LinearProgram) -> LpSolution:
    """Decide a LinearProgram; see the module docstring for the algorithm."""
    t, basis, flip = _tableaus(lp.a_eq[None], lp.b_eq[None], lp.free)
    tab, basis = t[0], basis[0]
    m, total = basis.shape[0], tab.shape[1] - 1
    ncols = total - m
    ended, iterations = _run_phase1(tab, basis, ncols, _iteration_cap(m, total))
    if not ended:
        return LpSolution("indeterminate", None, iterations)
    if -tab[m, total] > PHASE1_TOL:
        duals = _farkas(tab[m, ncols:total], flip[0])
        duals.setflags(write=False)
        return LpSolution("infeasible", None, iterations, duals)
    x = _finish(lp.a_eq, lp.b_eq, lp.free, tab, basis, ncols)
    return LpSolution("indeterminate" if x is None else "optimal", x, iterations)


def _farkas(reduced, flip) -> np.ndarray:
    """The phase-1 duals y = c_B B^-1 from the reduced costs of the
    artificials (one row per tableau for a stack): their cost 1 minus
    their reduced cost, times flip, -1.0 where a row was negated and 1.0
    elsewhere.  They are a Farkas certificate when phase 1 ended with a
    positive sum of artificials."""
    return (1.0 - reduced) * flip


def _finish(a_eq, b_eq, free, tab, basis, ncols: int) -> np.ndarray | None:
    """The tail of a solve whose phase 1 ended feasible: drive leftover
    artificials (the columns from ncols on) out of the basis where a row
    is not redundant, read x off the vertex reached and check its
    residuals.  Returns x (read-only), or None when the check fails."""
    m = basis.shape[0]
    for row in np.flatnonzero(basis >= ncols):
        candidates = np.flatnonzero(np.abs(tab[row, :ncols]) > PIVOT_TOL)
        if candidates.size:
            _pivot(tab, row, int(candidates[0]))
            basis[row] = int(candidates[0])

    xhat = np.zeros(tab.shape[1] - 1)
    xhat[basis] = tab[:m, -1]
    width = free.shape[0]
    x = 0.0 + xhat[:width]  # a -0.0 in xhat reads 0.0
    x[free] += -1.0 * xhat[width:ncols]

    # defensive residual check: downgrade rather than return a bad vertex
    scale = 1.0 + max(float(np.abs(b_eq).max(initial=0.0)),
                      float(np.abs(x).max(initial=0.0)))
    if (np.abs(a_eq @ x - b_eq).max(initial=0.0) > 1e-9 * scale
            or (x[~free] < -1e-9 * scale).any()):
        return None
    x.setflags(write=False)
    return x


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
    f.(g_j - g_i) = 0: f is a tie witness.

    The model is first divided by 2**pow2_exponent(g).  That is exact, so
    no verdict changes, and it makes the system the same for every
    power-of-two scale of the model.  The sum row makes it move with any
    translation of the labels, so no centring is needed.
    """
    g = unembeddings.vectors
    k = g.shape[0]
    _check_pairs(k, [(i, j)])
    a_eq, b_eq = _pair_systems(np.ldexp(g, -pow2_exponent(g)), i, j)
    return LinearProgram(a_eq, b_eq, np.arange(k - 1) == k - 2)


def _check_pairs(k: int, pairs) -> None:
    for i, j in pairs:
        if i == j:
            raise ValueError("need two distinct label indices")
        if not (0 <= i < k and 0 <= j < k):
            raise IndexError(f"label indices ({i}, {j}) out of range for k={k}")


def _others(k: int, i, j) -> np.ndarray:
    """The labels other than i and j, in index order.  For arrays of pairs,
    one row per pair: all pairs of one call have i != j, or all have
    i = j."""
    i, j = np.asarray(i)[..., None], np.asarray(j)[..., None]
    if i.size and i.flat[0] == j.flat[0]:
        rest = np.arange(k - 1)
        return rest + (rest >= i)
    rest = np.arange(k - 2)
    return rest + (rest >= np.minimum(i, j)) + (rest >= np.maximum(i, j) - 1)


def _pair_systems(g, i, j, out=None):
    """The (a_eq, b_eq) of the pair system (i, j) on the rescaled model g,
    stacked along the leading axes of i and j (a pair of ints gives one
    system): columns (g_l, 1) for every other label l in index order, then
    (g_i - g_j, 0) for s, the one free variable; rhs (g_i, 1).  For i = j
    it is label i's hull system plus a zero s column.  All pairs of one
    call have i != j, or all have i = j.

    The columns are gathered as rows of one table into `out` (a new array
    by default; else a contiguous float array of the shape of the
    columns), and a_eq is their transposed view."""
    k, d = g.shape
    i, j = np.asarray(i), np.asarray(j)
    table = np.ones((k + i.size, d + 1))  # (g_l, 1), then (g_i - g_j, 0)
    table[:k, :d] = g
    table[k:, :d] = (g[i] - g[j]).reshape(-1, d)
    table[k:, d] = 0.0
    s = k + np.arange(i.size).reshape(i.shape + (1,))
    rows = np.concatenate([_others(k, i, j), s], axis=-1)
    # every index is in range; "clip" lets take write into out unbuffered
    columns = np.take(table, rows, axis=0, out=out, mode="clip")
    return np.swapaxes(columns, -1, -2), table[i]


# Bytes of pair tableaus that _coargmax_phase1 pivots together (at least
# one tableau per stack); one scratch buffer of the same size serves every
# pivot of a stack.  All 231 pairs of a model with k = 22, d = 16
# (tableaus of 18 x 40 floats, 1.33 MB) make one stack.
_STACK_BYTES = 2 * 1024 * 1024

# The status codes of _coargmax_phase1, indices into _STATUSES.
_STATUSES = ("optimal", "infeasible", "indeterminate")
_OPTIMAL, _INFEASIBLE, _INDETERMINATE = range(3)


def _coargmax_phase1(g, pairs):
    """Phase 1 of coargmax_lp(unembeddings, i, j) for every pair (i, j) of
    label indices in `pairs`, in order, on g, the model divided by
    2**pow2_exponent, as arrays with one entry per pair: (status,
    iterations, duals, basis).  status holds codes into _STATUSES; it,
    iterations and duals are bit for bit those of solve, whose residual
    check on x can still turn an optimal status into indeterminate.  duals
    holds the d + 1 phase-1 duals where phase 1 ended, a Farkas
    certificate where it ended infeasible, and NaN where the iteration cap
    stopped it (read-only).  basis holds the d + 1 basic columns of the
    final tableau where phase 1 ended feasible: an index into the pair
    system's columns (s- folded onto s, column k - 2), or -1 for an
    artificial still basic; elsewhere it holds -1 (read-only).  No
    solution x is read off: the basis is the "cannot tie" certificate that
    geometry proves.

    The pairs are pivoted in stacks of up to _STACK_BYTES of tableaus.
    Each pivot step applies solve's rules to every tableau on its own:
    Dantzig pricing with ties to the lowest column, the ratio test with
    ties to the lowest basic index, Bland's rule after too many degenerate
    pivots of that tableau, and the iteration cap.  After each step, all
    tableaus whose phase 1 ended retire in one pass: their statuses,
    Farkas duals and iterations (the step count) are written as arrays,
    and live tableaus from the tail of the stack move into the freed
    slots.  A tableau that ends feasible leaves only its basis."""
    k, d = g.shape
    pairs = [(int(i), int(j)) for i, j in pairs]
    _check_pairs(k, pairs)
    n = len(pairs)
    out = (np.empty(n, dtype=np.int8), np.empty(n, dtype=np.int64),
           np.full((n, d + 1), np.nan), np.full((n, d + 1), -1, dtype=np.intp))
    # one tableau: d + 1 rows and the cost row, k + d + 2 columns
    per_stack = max(1, _STACK_BYTES // (8 * (d + 2) * (k + d + 2)))
    for start in range(0, n, per_stack):
        _phase1_stack(g, pairs, range(start, min(start + per_stack, n)), out)
    for array in out[2:]:
        array.setflags(write=False)
    return out


def _phase1_stack(g, pairs, stack: range, out) -> None:
    """_coargmax_phase1 for the pairs pairs[p], p in stack, as one stack:
    writes the result of pair p at index p of each array of out.  The live
    tableaus are always t[:live], and lp_of[s] is the pair of slot s."""
    k, d = g.shape
    n, m = len(stack), d + 1
    i, j = np.array(pairs[stack.start:stack.stop]).T
    # k structural columns (the other labels, s+ and s-).  The systems are
    # gathered into the scratch buffer, which the pivots overwrite later,
    # so building them takes no memory of its own.
    total = k + m
    scratch = np.empty((n, m + 1, total + 1))
    free = np.arange(k - 1) == k - 2
    systems = scratch.reshape(-1)[:n * (k - 1) * m].reshape(n, k - 1, m)
    t, basis, flip = _tableaus(*_pair_systems(g, i, j, systems), free)
    bland_after = _bland_after(m, total)
    max_iterations = _iteration_cap(m, total)
    degenerate = np.zeros(n, dtype=np.int64)
    lp_of = np.arange(stack.start, stack.stop)
    slots = np.arange(n)
    status, steps, duals, final = out
    live, iterations = n, 0
    # the ratios over pivot-column entries <= PIVOT_TOL are masked out
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while live:
            if iterations >= max_iterations:
                status[lp_of[:live]] = _INDETERMINATE
                steps[lp_of[:live]] = iterations
                break
            tl, at = t[:live], slots[:live]
            reduced = tl[:, m, :k]
            eligible = reduced < -PIVOT_TOL
            col = np.where(eligible, reduced, np.inf).argmin(axis=1)
            if iterations > bland_after:  # else no count can exceed it
                bland = degenerate[:live] > bland_after
                col = np.where(bland, eligible.argmax(axis=1), col)
            factors = tl[at, :, col]  # the pivot column, cost row included
            pivot_col = factors[:, :m]
            positive = pivot_col > PIVOT_TOL
            ratios = np.where(positive, tl[:, :m, total] / pivot_col, np.inf)
            best = ratios.min(axis=1, keepdims=True)
            tied = ratios <= best + PIVOT_TOL * (1.0 + np.abs(best))
            row = np.where(tied, basis[:live], total).argmin(axis=1)
            piv, step = pivot_col[at, row], ratios[at, row]

            has_col = eligible[at, col]  # col is eligible if any column is
            going = has_col & positive.any(axis=1)
            if np.count_nonzero(going) < live:
                # retire every tableau whose phase 1 ended in this step:
                # infeasible where the sum of artificials is above
                # PHASE1_TOL.  An eligible column with no leaving row would
                # make a sum of nonnegatives unbounded, which cannot happen.
                ended = (~going).nonzero()[0]
                at_end = lp_of[ended]
                code = np.where(t[ended, m, total] < -PHASE1_TOL,
                                _INFEASIBLE, _OPTIMAL)
                code[has_col[ended]] = _INDETERMINATE
                status[at_end] = code
                steps[at_end] = iterations
                duals[at_end] = _farkas(t[ended, m, k:total], flip[ended])
                done = ended[code == _OPTIMAL]
                # s- (column k - 1) reads as s, an artificial as -1
                final[lp_of[done]] = np.where(basis[done] < k,
                                              np.minimum(basis[done], k - 2), -1)
                # the live tableaus past the new end fill the freed slots
                live -= ended.size
                holes = ended[ended < live]
                if holes.size:
                    fill = live + going[live:].nonzero()[0]
                    for state in (t, basis, flip, degenerate, lp_of, col, row,
                                  factors, piv, step):
                        state[holes] = state[fill]
                if not live:
                    break
                tl, at = t[:live], slots[:live]
                col, row, factors = col[:live], row[:live], factors[:live]
                piv, step = piv[:live], step[:live]

            # one pivot of every live tableau, in _pivot's order of operations
            degenerate[:live] += step <= PIVOT_TOL
            factors[at, row] = 0.0
            pivot_row = tl[at, row] / piv[:, None]
            tl[at, row] = pivot_row
            work = scratch[:live]
            np.multiply(factors[:, :, None], pivot_row[:, None, :], out=work)
            tl -= work
            tl[at, :, col] = 0.0
            tl[at, row, col] = 1.0
            basis[at, row] = col
            iterations += 1

