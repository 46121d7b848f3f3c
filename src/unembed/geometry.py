"""Similarity metrics, tie feasibility, and decision-region rasterization.

Tie feasibility asks: can labels i and j be tied for the highest score at
some embedding point?  Formally, is there an f with

    f . g_i = f . g_j > f . g_k   for every other label k.

Two independent deciders are provided.  `coargmax_feasible` answers in any
dimension through the (d+1)-row phase-1 LP of `coargmax_lp`, and proves
the certificate that phase 1 ends with (a tie witness, or labels whose mix
lies on the line through g_i and g_j) in floats with an error bound, in
Fractions, or by an exact rational phase 1.  `tie_graph` decides every
unordered pair once, settles all pairs of a label proven to lie inside the
convex hull of the others from that one proof, and runs the float phase 1
of all the other pairs as stacks (`coargmax_phase1`).  `coargmax_oracle_2d`
answers exactly in two dimensions: there f is confined to the line
orthogonal to g_i - g_j, so it suffices to test the two directions of that
line, each sign by an exact orientation predicate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatchError, ZeroVectorError
from .lp import coargmax_phase1, hull_lp, pow2_exponent, solve
from .model import SoftmaxModel, UnembeddingSet, as_label_vector

__all__ = [
    "cosine",
    "dot",
    "euclidean",
    "similarity_matrix",
    "nearest_neighbors",
    "coargmax_feasible",
    "coargmax_oracle_2d",
    "tie_graph",
    "tie_partners",
    "decision_regions",
    "region_adjacency",
    "inflated_bounds",
    "SimilarityMatrix",
    "FeasibilityReport",
    "RegionGrid",
    "DEFAULT_EPS",
]

DEFAULT_EPS = 1e-7
METRICS = ("cosine", "dot", "euclidean")


def _pair(a, b):
    av = as_label_vector(a, "a")
    bv = as_label_vector(b, "b")
    if av.shape[0] != bv.shape[0]:
        raise DimensionMismatchError(f"d={av.shape[0]} vs d={bv.shape[0]}")
    return av, bv


def cosine(a, b) -> float:
    """Cosine similarity, clamped to [-1, 1]; both vectors must be nonzero."""
    av, bv = _pair(a, b)
    na2 = float(np.dot(av, av))
    nb2 = float(np.dot(bv, bv))
    if na2 == 0.0 or nb2 == 0.0:
        raise ZeroVectorError("cosine is undefined for zero vectors")
    value = float(np.dot(av, bv)) / math.sqrt(na2 * nb2)
    return min(1.0, max(-1.0, value))


def dot(a, b) -> float:
    av, bv = _pair(a, b)
    return float(np.dot(av, bv))


def euclidean(a, b) -> float:
    av, bv = _pair(a, b)
    return float(np.linalg.norm(av - bv))


@dataclass(frozen=True)
class SimilarityMatrix:
    """All pairwise values of one metric; values[i, j] is metric(g_i, g_j)."""

    metric: str
    labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        k = len(self.labels)
        if values.shape != (k, k):
            raise DimensionMismatchError(
                f"matrix shape {values.shape} for {k} labels"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))


def _mirror_upper(m: np.ndarray) -> np.ndarray:
    # exact symmetry: compute once, copy the upper triangle down
    upper = np.triu(m)
    return upper + np.triu(m, 1).T


def similarity_matrix(unembeddings: UnembeddingSet, metric: str) -> SimilarityMatrix:
    """Pairwise similarity (or distance) matrix over all labels."""
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    vectors = unembeddings.vectors
    if metric == "euclidean":
        diffs = vectors[:, None, :] - vectors[None, :, :]
        values = np.sqrt((diffs * diffs).sum(axis=2))
        np.fill_diagonal(values, 0.0)
    else:
        gram = vectors @ vectors.T
        if metric == "cosine":
            norms2 = np.diag(gram).copy()
            if np.any(norms2 == 0.0):
                bad = unembeddings.labels[int(np.flatnonzero(norms2 == 0.0)[0])]
                raise ZeroVectorError(
                    f"cosine is undefined for zero-norm unembedding {bad!r}"
                )
            values = np.clip(gram / np.sqrt(np.outer(norms2, norms2)), -1.0, 1.0)
            np.fill_diagonal(values, 1.0)
        else:
            values = gram
    return SimilarityMatrix(metric, unembeddings.labels, _mirror_upper(values))


def nearest_neighbors(
    unembeddings: UnembeddingSet, i: int, metric: str = "cosine", m: int = 1
) -> list[int]:
    """Indices of the m labels most similar to label i (closest, for the
    euclidean metric).  Ties break toward the lower index."""
    k = unembeddings.k
    if not 0 <= i < k:
        raise IndexError(f"label index {i} out of range for k={k}")
    if not 1 <= m <= k - 1:
        raise ValueError(f"m must be in [1, {k - 1}], got {m}")
    sim = similarity_matrix(unembeddings, metric)
    row = sim.values[i]
    others = [j for j in range(k) if j != i]
    if metric == "euclidean":
        ordered = sorted(others, key=lambda j: (row[j], j))
    else:
        ordered = sorted(others, key=lambda j: (-row[j], j))
    return ordered[:m]


@dataclass(frozen=True)
class FeasibilityReport:
    """Proven verdict on whether labels i and j can tie for the highest score.

    verdict is one of:
      feasible      proven tie whose witness has unit-box margin > eps
      degenerate    proven tie whose witness has unit-box margin <= eps
      infeasible    proven: a convex combination of the other labels lies on
                    the line through g_i and g_j, so the pair cannot tie

    margin is the witness's unit-box margin on the model divided by
    2**pow2_exponent(g) (0.0 when infeasible, inf when there is no third
    label).  lp_status is the float phase 1's status; proof names the step
    that proved the certificate: "float", "fraction" or "exact".
    """

    i: int
    j: int
    verdict: str
    margin: float
    eps: float
    witness: np.ndarray | None = None
    lp_status: str = "optimal"
    proof: str = ""

    @property
    def feasible(self) -> bool:
        return self.verdict == "feasible"


# --- certificates ----------------------------------------------------------
#
# Every bound below follows Higham, "Accuracy and Stability of Numerical
# Algorithms" (2002), section 3.1: a float dot product of length n is off
# by at most gamma(n) |x|.|y|.  Each filter demands that the quantity it
# guards beat twice its error budget (and multiplies that quantity by
# 1 - 4u), which covers the handful of roundings made while computing the
# budget itself; _TINY covers underflow in any product.

_U = 2.0 ** -53
_TINY = 2.0 ** -1000
_CCW_ERRBOUND = (3.0 + 16.0 * _U) * _U  # Shewchuk (1997), ccwerrboundA


def _gamma(n: int) -> float:
    return n * _U / (1.0 - n * _U)


def _fractions(values) -> list:
    return [Fraction(float(v)) for v in values]


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _others(k: int, i: int, j: int) -> np.ndarray:
    keep = np.ones(k, dtype=bool)
    keep[[i, j]] = False
    return np.flatnonzero(keep)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, scaled first so no square underflows."""
    top = np.abs(v).max(axis=-1, keepdims=True)
    safe = np.where(top > 0.0, top, 1.0)
    return top[..., 0] * np.sqrt(((v / safe) ** 2).sum(axis=-1))


def _tie_filter(g, i, j, f) -> bool:
    """True only if the exact projection f* of f onto (g_j - g_i)-perp has
    f*.(g_i - g_k) > 0 for every other label k.

    With s = g f in floats and e_k = gamma(d) (|g| |f|)_k, the exact margin
    f*.(g_i - g_k) = f.(g_i - g_k) - (f.u)(u.(g_i - g_k))/(u.u), u = g_j - g_i,
    is at least (s_i - s_k) - e_i - e_k - (|s_j - s_i| + e_i + e_j) rho_k
    with rho_k = |g_i - g_k| / |u| (Cauchy-Schwarz)."""
    rest = _others(g.shape[0], i, j)
    scores = g @ f
    err = _gamma(g.shape[1]) * (np.abs(g) @ np.abs(f)) + _TINY
    budget = err[i] + err[rest]
    norm_u = float(_row_norms(g[j] - g[i]))
    if norm_u > 0.0:
        off_line = abs(scores[j] - scores[i]) + err[i] + err[j]
        budget = budget + off_line * (_row_norms(g[i] - g[rest]) / norm_u)
    gap = (scores[i] - scores[rest]) * (1.0 - 4.0 * _U)
    return bool(np.all(gap > 2.0 * budget))


def _tie_fraction(g, i, j, f) -> bool:
    """The same claim as _tie_filter, decided in exact rationals."""
    rows = [_fractions(row) for row in g]
    fr = _fractions(f)
    u = [a - b for a, b in zip(rows[j], rows[i])]
    uu = _dot(u, u)
    if uu:  # uu * (projection of f): a positive multiple, no division
        fu = _dot(fr, u)
        fr = [uu * a - fu * b for a, b in zip(fr, u)]
    top = _dot(fr, rows[i])
    return all(_dot(fr, rows[m]) < top for m in _others(len(rows), i, j))


def _support(g, i, j, x):
    """The labels whose weight mu is positive in the float phase-1
    solution x, whether s is nonzero, and their values (s last)."""
    mu, s = x[:-1], x[-1]
    keep = np.flatnonzero(mu > 0.0)
    values = mu[keep] if s == 0.0 else np.append(mu[keep], s)
    return _others(g.shape[0], i, j)[keep], s != 0.0, values


def _no_tie_filter(g, i, j, x) -> bool:
    """True only if the square system on the support of x has an exact
    solution whose weights are all positive (a verified solve: with
    R ~ A^-1 and |I - R A| summing to beta < 1 by rows, the exact solution
    is within |R| |b - A x| / (1 - beta) of x)."""
    labels, with_s, z = _support(g, i, j, x)
    n = g.shape[1] + 1
    if z.size != n:
        return False
    a = np.vstack([g[labels].T, np.ones(labels.size)])
    err_a = np.zeros_like(a)
    if with_s:  # the column g_i - g_j is rounded once
        a = np.column_stack([a, np.append(g[i] - g[j], 0.0)])
        err_a = np.column_stack([err_a, _U * np.abs(a[:, -1])])
    b = np.append(g[i], 1.0)
    with np.errstate(all="ignore"):
        try:
            r = np.linalg.inv(a)
        except np.linalg.LinAlgError:
            return False
        abs_r, abs_a = np.abs(r), np.abs(a)
        g_n = _gamma(n + 1)
        c = (np.abs(np.eye(n) - r @ a) + g_n * (abs_r @ abs_a)
             + abs_r @ err_a + _TINY)
        beta = 2.0 * float(c.sum(axis=1).max())
        if not beta < 1.0:
            return False
        resid = (np.abs(b - a @ z) + g_n * (np.abs(b) + abs_a @ np.abs(z))
                 + err_a @ np.abs(z) + _TINY)
        delta = 2.0 * float((abs_r @ resid).max()) / (1.0 - beta)
        weights = z[: labels.size]
        return bool(np.all(weights * (1.0 - 4.0 * _U) > delta))


def _no_tie_fraction(g, i, j, x) -> bool:
    """The same claim as _no_tie_filter, decided by an exact phase 1 over
    the support of x alone; it also covers rank-deficient systems."""
    return _exact_phase1(g, i, j, _support(g, i, j, x)[0]) is None


def _exact_phase1(g, i, j, labels=None):
    """Phase 1 of the coargmax_lp system in exact rationals with Bland's
    rule (which terminates), with weights on `labels` (default: every
    other label).  Returns a tie witness f (list of Fractions) when the
    system is infeasible, else None: the pair cannot tie."""
    rows = [_fractions(row) for row in g]
    d = len(rows[0])
    u = [a - b for a, b in zip(rows[j], rows[i])]
    if labels is None:
        labels = _others(len(rows), i, j)
    cols = [rows[m] + [Fraction(1)] for m in labels]
    cols += [[-v for v in u] + [Fraction(0)], u + [Fraction(0)]]  # s = s+ - s-
    rhs = rows[i] + [Fraction(1)]
    m, n = d + 1, len(cols)
    sign = [-1 if v < 0 else 1 for v in rhs]
    tab = [[sign[r] * col[r] for col in cols]
           + [Fraction(int(a == r)) for a in range(m)] + [sign[r] * rhs[r]]
           for r in range(m)]
    basis = list(range(n, n + m))
    cost = [-sum(tab[r][c] for r in range(m)) for c in range(n)]
    cost += [Fraction(0)] * m + [-sum(tab[r][-1] for r in range(m))]
    while True:
        col = next((c for c in range(n + m) if cost[c] < 0), None)
        if col is None:
            break
        row = min((r for r in range(m) if tab[r][col] > 0),
                  key=lambda r: (tab[r][-1] / tab[r][col], basis[r]))
        pivot = tab[row][col]
        tab[row] = [v / pivot for v in tab[row]]
        for r, line in enumerate(tab + [cost]):
            if r != row and line[col] != 0:
                factor = line[col]
                line[:] = [a - factor * b for a, b in zip(line, tab[row])]
        basis[row] = col
    if cost[-1] == 0:  # zero infeasibility: weights on the line exist
        return None
    # y = 1 - (reduced cost of each artificial), signs restored
    return [sign[r] * (1 - cost[n + r]) for r in range(d)]


def _witness(g, i, j, f):
    """The float witness reported for a proven tie: f projected onto
    (g_j - g_i)-perp and scaled into the unit box, with its margin."""
    f = np.asarray(f, dtype=np.float64)
    u = g[j] - g[i]
    top = float(np.abs(u).max())
    if top > 0.0:
        u = u / top
        f = f - (float(f @ u) / float(u @ u)) * u
    top = float(np.abs(f).max())
    if top > 0.0:
        f = f / top
    scores = g @ f
    rest = scores[_others(g.shape[0], i, j)]
    margin = min(scores[i], scores[j]) - rest.max() if rest.size else math.inf
    return f, float(margin)


def _rescaled(g):
    """g divided by 2**pow2_exponent(g), and whether that division was
    exact.  An exact positive multiple of g has the same certificates; when
    underflow rounded an entry, only the exact checks on g apply."""
    e = pow2_exponent(g)
    scaled = np.ldexp(g, -e)
    return scaled, np.array_equal(np.ldexp(scaled, e), g)


def _prove(g, i, j, sol, filters: bool):
    """(float tie direction or None, proof path) for pair i < j of model g,
    from the float phase-1 solution `sol` of coargmax_lp.  The float
    filters run only when `filters` says g is the exactly rescaled model
    they assume."""
    if sol.status == "infeasible":
        f = sol.duals[: g.shape[1]]
        top = float(np.abs(f).max())
        f = f / top if top > 0.0 else f
        if filters and _tie_filter(g, i, j, f):
            return f, "float"
        if _tie_fraction(g, i, j, f):
            return f, "fraction"
    elif sol.status == "optimal":
        if filters and _no_tie_filter(g, i, j, sol.x):
            return None, "float"
        if _no_tie_fraction(g, i, j, sol.x):
            return None, "fraction"
    f = _exact_phase1(g, i, j)
    if f is None:
        return None, "exact"
    top = max(abs(v) for v in f)
    return [float(v / top) for v in f], "exact"


def _check_eps(eps: float) -> None:
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"eps must be finite and >= 0, got {eps!r}")


def _report(unembeddings, scaled, exact_scale: bool, i: int, j: int,
            eps: float, sol) -> FeasibilityReport:
    """The proven report of pair (i, j) from `sol`, the float phase 1 of
    coargmax_lp for the pair in index order."""
    lo, hi = min(i, j), max(i, j)
    g = scaled if exact_scale else unembeddings.vectors
    f, proof = _prove(g, lo, hi, sol, exact_scale)
    if f is None:
        return FeasibilityReport(
            i, j, "infeasible", 0.0, eps, None, sol.status, proof
        )
    witness, margin = _witness(scaled, lo, hi, f)
    verdict = "feasible" if margin > eps else "degenerate"
    return FeasibilityReport(
        i, j, verdict, margin, eps, witness, sol.status, proof
    )


def coargmax_feasible(
    unembeddings: UnembeddingSet,
    i: int,
    j: int,
    eps: float = DEFAULT_EPS,
) -> FeasibilityReport:
    """Decide tie feasibility for labels i and j, with a checked proof.

    One float phase 1 of coargmax_lp (for the pair in index order, so both
    orders get the same report) yields a certificate either way: duals
    whose direction is a tie witness, or weights on at most d + 1 labels
    whose mix lies on the line through g_i and g_j.  It is proven by an
    error-bounded float filter, else in Fractions, else an exact rational
    phase 1 decides the pair from scratch.  Finite input always gets a
    proven verdict.  eps must be finite and >= 0.
    """
    if i == j:
        raise ValueError("need two distinct label indices")
    _check_eps(eps)
    (sol,) = coargmax_phase1(unembeddings, [(min(i, j), max(i, j))])
    scaled, exact_scale = _rescaled(unembeddings.vectors)
    return _report(unembeddings, scaled, exact_scale, i, j, eps, sol)


def _orient2d_signs(a, b, c) -> np.ndarray:
    """Exact sign of (a - c) x (b_m - c) for every row b_m of b: a float
    evaluation with Shewchuk's static error bound, and Fractions for the
    rows the bound cannot decide."""
    with np.errstate(all="ignore"):  # overflow leaves a row unsure
        ac, bc = a - c, b - c
        left = ac[0] * bc[:, 1]
        right = ac[1] * bc[:, 0]
        det = left - right
        # _TINY covers a product that underflowed (a subnormal difference
        # is exact)
        bound = _CCW_ERRBOUND * (np.abs(left) + np.abs(right)) + _TINY
        unsure = np.flatnonzero(~(np.abs(det) > bound))
    signs = np.sign(det)
    if unsure.size:
        fa, fc = _fractions(a), _fractions(c)
    for m in unsure:
        fb = _fractions(b[m])
        exact = (fa[0] - fc[0]) * (fb[1] - fc[1]) - (fa[1] - fc[1]) * (fb[0] - fc[0])
        signs[m] = (exact > 0) - (exact < 0)
    return signs


def _in_open_half_plane(p, c) -> bool:
    """Exactly: are the vectors p_m - c, rows p_m of p, all nonzero and in
    one open half-plane?  They are iff, from some p_a - c, every other one
    turns counterclockwise by an angle in [0, pi): a positive orientation,
    or orientation zero and the same coordinate signs (a float difference
    has the exact sign)."""
    signs = np.sign(p - c)
    if np.any(np.all(signs == 0, axis=1)):
        return False
    return any(
        np.all((turn > 0) | ((turn == 0) & np.all(signs == signs[a], axis=1)))
        for a, turn in enumerate(_orient2d_signs(q, p, c) for q in p)
    )


def coargmax_oracle_2d(unembeddings: UnembeddingSet, i: int, j: int) -> bool:
    """Exact 2D decider: any candidate f lies on the line orthogonal to
    g_i - g_j, so check both directions of that line for strict wins.  The
    sign of (g_i - g_k) . w for w = rot90(g_i - g_j) is an orientation
    predicate, decided exactly.  When g_i = g_j, any f may do: the pair
    ties iff every g_k - g_i is nonzero and in one open half-plane."""
    if unembeddings.d != 2:
        raise DimensionMismatchError("the exact oracle applies to d=2 only")
    if i == j:
        raise ValueError("need two distinct label indices")
    g = unembeddings.vectors
    rest = _others(g.shape[0], i, j)
    if not rest.size:
        return True
    if np.array_equal(g[i], g[j]):
        return _in_open_half_plane(g[rest], g[i])
    signs = _orient2d_signs(g[j], g[rest], g[i])
    return bool(np.all(signs > 0) or np.all(signs < 0))


def _clear_vertices(g) -> np.ndarray:
    """Labels that look like hull vertices in floats: g_i beats every other
    label in the direction g_i - mean.  A heuristic, not a proof; a wrong
    answer only costs pair LPs."""
    scores = (g - g.mean(axis=0)) @ g.T
    own = np.diag(scores).copy()
    np.fill_diagonal(scores, -np.inf)
    return own > scores.max(axis=1)


def _inside_proof(unembeddings: UnembeddingSet, i: int, scaled,
                  exact_scale: bool) -> str:
    """The proof path ("float" or "fraction") of weights on the other labels
    whose mix is g_i, found by hull_lp and proven like coargmax_feasible's
    "cannot tie" certificates (with u = 0 and s = 0); "" when there are
    none or they cannot be proven."""
    sol = solve(hull_lp(unembeddings, i))
    if sol.status != "optimal":
        return ""
    x = np.append(sol.x, 0.0)  # the s of the pair system (i, i)
    if exact_scale and _no_tie_filter(scaled, i, i, x):
        return "float"
    g = scaled if exact_scale else unembeddings.vectors
    return "fraction" if _no_tie_fraction(g, i, i, x) else ""


def tie_graph(
    unembeddings: UnembeddingSet,
    eps: float = DEFAULT_EPS,
    rows=None,
) -> dict[tuple[int, int], FeasibilityReport]:
    """Tie verdicts of every unordered pair that involves a label in `rows`
    (default: all labels), each decided once.  Keys are (i, j) with i < j,
    in lexicographic order.

    A label inside the convex hull of the others can win nowhere.  Once
    that is proven for label i (one hull_lp and its certificate), every
    pair (i, j) with g_j != g_i is infeasible by Motzkin: if the weights
    skip j, their mix g_i is on the line through g_i and g_j; if they give
    j weight lam < 1, (g_i - lam g_j) / (1 - lam) is a mix of the rest on
    that line.  Such a pair is reported with the proof path of label i's
    certificate.  Every other pair is decided like coargmax_feasible
    decides it, from one coargmax_phase1 call for all of them."""
    _check_eps(eps)
    k = unembeddings.k
    wanted = set(range(k) if rows is None else rows)
    for i in wanted:
        if not 0 <= i < k:
            raise IndexError(f"label index {i} out of range for k={k}")
    g = unembeddings.vectors
    scaled, exact_scale = _rescaled(g)
    clear = _clear_vertices(scaled)
    inside: dict[int, str] = {}

    def inside_proof(m: int) -> str:
        if m not in inside:
            inside[m] = "" if clear[m] else _inside_proof(
                unembeddings, m, scaled, exact_scale)
        return inside[m]

    graph = {}
    todo = []
    for i in range(k):
        for j in range(i + 1, k):
            if i not in wanted and j not in wanted:
                continue
            # a label of `rows` first: its proof settles all of its pairs
            first, second = (i, j) if i in wanted else (j, i)
            proof = inside_proof(first) or inside_proof(second)
            if proof and not np.array_equal(g[i], g[j]):
                graph[i, j] = FeasibilityReport(
                    i, j, "infeasible", 0.0, eps, None, "optimal", proof
                )
            else:
                graph[i, j] = None  # keeps the key order
                todo.append((i, j))
    for (i, j), sol in zip(todo, coargmax_phase1(unembeddings, todo)):
        graph[i, j] = _report(unembeddings, scaled, exact_scale, i, j, eps, sol)
    return graph


def tie_partners(
    unembeddings: UnembeddingSet, i: int, eps: float = DEFAULT_EPS
) -> set[int]:
    """All labels j that can tie with label i for the highest score."""
    graph = tie_graph(unembeddings, eps, [i])
    return {a if b == i else b for (a, b), rep in graph.items() if rep.feasible}


def inflated_bounds(
    unembeddings: UnembeddingSet, inflate: float = 0.5
) -> tuple[tuple[float, float], ...]:
    """Bounding box of the unembeddings, one (lo, hi) pair per axis, with
    each half-width grown by `inflate` (50% by default).  Degenerate axes
    get a unit pad."""
    vectors = unembeddings.vectors
    lo = vectors.min(axis=0)
    hi = vectors.max(axis=0)
    mid = (lo + hi) / 2.0
    half = (hi - lo) / 2.0 * (1.0 + inflate)
    half = np.where(half == 0.0, 1.0, half)
    return tuple(
        (float(m - h), float(m + h)) for m, h in zip(mid, half)
    )


@dataclass(frozen=True)
class RegionGrid:
    """Rasterized argmax regions: labels[iy, ix] is the winning label index
    at the center of cell (ix, iy)."""

    bounds: tuple[tuple[float, float], tuple[float, float]]
    resolution: tuple[int, int]
    labels: np.ndarray

    def __post_init__(self):
        (x0, x1), (y0, y1) = self.bounds
        nx, ny = self.resolution
        if not (x0 < x1 and y0 < y1):
            raise ValueError("bounds must satisfy min < max on both axes")
        if nx < 1 or ny < 1:
            raise ValueError("resolution must be at least 1 per axis")
        labels = np.array(self.labels, dtype=np.int64)
        if labels.shape != (ny, nx):
            raise DimensionMismatchError(
                f"label grid shape {labels.shape}, expected {(ny, nx)}"
            )
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(
            self, "bounds", ((float(x0), float(x1)), (float(y0), float(y1)))
        )
        object.__setattr__(self, "resolution", (int(nx), int(ny)))

    @property
    def x_centers(self) -> np.ndarray:
        (x0, x1), _ = self.bounds
        nx = self.resolution[0]
        return x0 + (np.arange(nx) + 0.5) * ((x1 - x0) / nx)

    @property
    def y_centers(self) -> np.ndarray:
        _, (y0, y1) = self.bounds
        ny = self.resolution[1]
        return y0 + (np.arange(ny) + 0.5) * ((y1 - y0) / ny)


def decision_regions(
    model: SoftmaxModel,
    bounds: tuple[tuple[float, float], tuple[float, float]] | None = None,
    resolution: int | tuple[int, int] = 200,
) -> RegionGrid:
    """Rasterize the argmax label over a 2D box (cell centers; ties to the
    lowest label index).  Default bounds: inflated_bounds(unembeddings)."""
    if model.d != 2:
        raise DimensionMismatchError("decision regions are defined for d=2")
    if bounds is None:
        bounds = inflated_bounds(model.unembeddings)
    if isinstance(resolution, int):
        resolution = (resolution, resolution)
    nx, ny = int(resolution[0]), int(resolution[1])
    if nx < 2 or ny < 2:
        raise ValueError("resolution must be at least 2 per axis")
    (x0, x1), (y0, y1) = bounds
    xs = x0 + (np.arange(nx) + 0.5) * ((x1 - x0) / nx)
    ys = y0 + (np.arange(ny) + 0.5) * ((y1 - y0) / ny)
    xx, yy = np.meshgrid(xs, ys)
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    scores = pts @ model.unembeddings.vectors.T
    winners = np.argmax(scores, axis=1).reshape(ny, nx)
    return RegionGrid(bounds, (nx, ny), winners)


def region_adjacency(
    grid: RegionGrid, apex_exclusion_cells: float = 3.0
) -> set[tuple[int, int]]:
    """Unordered label pairs that share a 4-neighbor cell edge.

    Bias-free argmax regions are cones that all meet at the origin, so cells
    adjacent across the origin would report every pair of angularly adjacent
    cones as touching.  Pairs whose cells both lie within
    `apex_exclusion_cells` pitches of the origin are skipped; what remains
    reflects shared boundary rays of positive length.
    """
    labels = grid.labels
    xs = grid.x_centers
    ys = grid.y_centers
    (x0, x1), (y0, y1) = grid.bounds
    nx, ny = grid.resolution
    pitch = max((x1 - x0) / nx, (y1 - y0) / ny)
    radius2 = (apex_exclusion_cells * pitch) ** 2
    xx, yy = np.meshgrid(xs, ys)
    near_apex = xx * xx + yy * yy <= radius2

    pairs: set[tuple[int, int]] = set()

    def _collect(a, b, near_a, near_b):
        differ = a != b
        keep = differ & ~(near_a & near_b)
        if not np.any(keep):
            return
        lo = np.minimum(a[keep], b[keep])
        hi = np.maximum(a[keep], b[keep])
        pairs.update(zip(lo.tolist(), hi.tolist()))

    _collect(labels[:, :-1], labels[:, 1:], near_apex[:, :-1], near_apex[:, 1:])
    _collect(labels[:-1, :], labels[1:, :], near_apex[:-1, :], near_apex[1:, :])
    return pairs
