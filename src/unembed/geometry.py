"""Similarity metrics, tie feasibility, and decision-region rasterization.

Tie feasibility asks: can labels i and j be tied for the highest score at
some embedding point?  Formally, is there an f with

    f . g_i = f . g_j > f . g_k   for every other label k.

Two independent deciders are provided.  `coargmax_feasible` answers in any
dimension through the (d+1)-row phase-1 LP of `coargmax_lp`, and proves
the certificate that phase 1 ends with in floats with an error bound, in
Fractions, or by an exact rational phase 1: a tie witness (the Farkas
duals), or the final basis, whose labels mix onto the line through g_i and
g_j (a verified solve of the square system on its columns).  `tie_graph`
decides every unordered pair once, settles all pairs of a label proven to
lie inside the convex hull of the others from that one proof, runs the
float phase 1 of all the other pairs as stacks (`lp._coargmax_phase1`,
arrays in and out), and checks their certificates with float filters that
take whole arrays of pairs.
`coargmax_oracle_2d_pairs` answers exactly in two dimensions: there f is
confined to the line orthogonal to g_i - g_j, so it suffices to test the
two directions of that line, each sign by an exact orientation predicate;
the predicates of many pairs are evaluated as one table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatchError, ZeroVectorError
from .lp import (
    _INFEASIBLE, _OPTIMAL, _STATUSES, LinearProgram, _check_pairs,
    _coargmax_phase1, _others, _pair_systems, pow2_exponent, solve,
)
from .model import SoftmaxModel, UnembeddingSet, as_label_vector

__all__ = [
    "cosine",
    "dot",
    "euclidean",
    "similarity_matrix",
    "nearest_neighbors",
    "coargmax_feasible",
    "coargmax_oracle_2d",
    "coargmax_oracle_2d_pairs",
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
    return [Fraction(v) for v in values]  # floats and Fractions alike


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


# Bytes of the largest per-pair temporary (about k x (d + 1) floats) that
# a batch of certificate checks holds at once; batches are cut into chunks
# of this size, so memory does not grow with the number of pairs.
_CHUNK_BYTES = 256 * 1024


def _chunks(n: int, k: int, d: int) -> list[slice]:
    step = max(1, _CHUNK_BYTES // (8 * k * (d + 1)))
    return [slice(start, start + step) for start in range(0, n, step)]


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, scaled first so no square underflows."""
    top = np.abs(v).max(axis=-1, keepdims=True)
    safe = np.where(top > 0.0, top, 1.0)
    return top[..., 0] * np.sqrt(((v / safe) ** 2).sum(axis=-1))


def _matvec(a, x) -> np.ndarray:
    """a_p @ x_p for every row x_p of x, with a one matrix or a stack of
    them, one row per pair.  The stacked matmul rounds each product as the
    single a_p @ x_p does."""
    return np.matmul(a, x[:, :, None])[:, :, 0]


def _tie_filter(g, i, j, f) -> np.ndarray:
    """For each pair (i_p, j_p) with direction f_p (rows of f): True only
    if the exact projection f* of f_p onto (g_j - g_i)-perp has
    f*.(g_i - g_k) > 0 for every other label k.

    With s = g f in floats and e_k = gamma(d) (|g| |f|)_k, the exact margin
    f*.(g_i - g_k) = f.(g_i - g_k) - (f.u)(u.(g_i - g_k))/(u.u), u = g_j - g_i,
    is at least (s_i - s_k) - e_i - e_k - (|s_j - s_i| + e_i + e_j) rho_k
    with rho_k = |g_i - g_k| / |u| (Cauchy-Schwarz)."""
    rows = np.arange(len(i))
    scores = _matvec(g, f)
    err = _gamma(g.shape[1]) * _matvec(np.abs(g), np.abs(f)) + _TINY
    s_i, e_i = scores[rows, i, None], err[rows, i, None]
    norms = _row_norms(g[i][:, None, :] - g)  # |g_i - g_k|, and |u| at k = j
    norm_u = norms[rows, j, None]
    off_line = np.abs(scores[rows, j, None] - s_i) + e_i + err[rows, j, None]
    # where u = 0 the line is undefined and f is not projected
    rho = norms / np.where(norm_u > 0.0, norm_u, 1.0)
    budget = e_i + err + np.where(norm_u > 0.0, off_line, 0.0) * rho
    wins = (s_i - scores) * (1.0 - 4.0 * _U) > 2.0 * budget
    wins[rows, i] = wins[rows, j] = True  # no rivals of the pair itself
    return wins.all(axis=1)


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


def _support(g, i, j, basis):
    """The labels on the columns of the final phase-1 basis of the pair
    system (i, j), in index order: s and artificials (-1) dropped."""
    others = _others(g.shape[0], i, j)
    return others[np.sort(basis[(basis >= 0) & (basis < others.size)])]


def _inverses(a) -> np.ndarray:
    """np.linalg.inv of each matrix of the stack a, NaN for a singular one
    (which fails every check it enters)."""
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:  # raised for the whole stack
        out = np.full_like(a, np.nan)
        for m, one in enumerate(a):
            try:
                out[m] = np.linalg.inv(one)
            except np.linalg.LinAlgError:
                pass
        return out


def _no_tie_filter(g, i, j, basis) -> np.ndarray:
    """For each pair (i_p, j_p) with final phase-1 basis basis_p (rows of
    basis; see lp._coargmax_phase1): True only if the square system on the
    basic columns has an exact solution whose weights are all positive.  A
    basis that holds an artificial (-1) or both halves of s is unproven.

    The proof is a verified solve (Rump, Acta Numerica 2010): with
    R ~ A^-1 and |I - R A| summing to beta < 1 by rows, the exact solution
    is within |R| |b - A z| / (1 - beta) of z = R b."""
    n = g.shape[1] + 1
    s = g.shape[0] - 1 - (i != j)[:, None]  # the column of s
    square = (basis >= 0).all(axis=1) & ((basis == s).sum(axis=1) <= 1)
    proven = np.zeros(len(i), dtype=bool)
    basis = basis[square]
    # each pair's system on its basic columns.  Its s column holds
    # g_i - g_j, rounded once; that error, at most u |A|, is covered by
    # adding u to the gamma of each |A| term below.
    a_eq, b = _pair_systems(g, i[square], j[square])
    a = np.take_along_axis(a_eq, basis[:, None, :], axis=2)
    g_n = _gamma(n + 1)
    with np.errstate(all="ignore"):
        r = _inverses(a)
        z = _matvec(r, b)
        abs_r, abs_a = np.abs(r), np.abs(a)
        c = np.abs(np.eye(n) - r @ a) + (g_n + _U) * (abs_r @ abs_a) + _TINY
        beta = 2.0 * c.sum(axis=2).max(axis=1)
        resid = (np.abs(b - _matvec(a, z)) + g_n * np.abs(b)
                 + (g_n + _U) * _matvec(abs_a, np.abs(z)) + _TINY)
        delta = 2.0 * _matvec(abs_r, resid).max(axis=1) / (1.0 - beta)
        positive = z * (1.0 - 4.0 * _U) > delta[:, None]
    positive |= basis == s[square]  # s is free: no sign to prove
    proven[square] = (beta < 1.0) & positive.all(axis=1)
    return proven


def _no_tie_fraction(g, i, j, basis) -> bool:
    """The same claim as _no_tie_filter, decided by an exact phase 1 over
    the labels of the basis alone; it also covers rank-deficient systems
    and bases that hold an artificial."""
    return _exact_phase1(g, i, j, _support(g, i, j, basis)) is None


def _exact_system(g, i, j, labels=None):
    """The columns and right-hand side of lp._pair_systems' pair system
    (i, j) in exact rationals, with weights on `labels` (default: every
    other label, in index order): columns (g_l, 1), then the free s split
    as s+ - s-, so (g_i - g_j, 0) and its negation; rhs (g_i, 1).  Unlike
    the float system, g_i - g_j is not rounded."""
    rows = [_fractions(row) for row in g]
    if labels is None:
        labels = _others(len(rows), i, j)
    s = [a - b for a, b in zip(rows[i], rows[j])] + [Fraction(0)]
    cols = [rows[m] + [Fraction(1)] for m in labels] + [s, [-v for v in s]]
    return cols, rows[i] + [Fraction(1)]


def _exact_phase1(g, i, j, labels=None):
    """Phase 1 of the coargmax_lp system in exact rationals with Bland's
    rule (which terminates), with weights on `labels` (default: every
    other label).  Returns a tie witness f (list of Fractions) when the
    system is infeasible, else None: the pair cannot tie."""
    cols, rhs = _exact_system(g, i, j, labels)
    m, n = len(rhs), len(cols)
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
    return [sign[r] * (1 - cost[n + r]) for r in range(m - 1)]


def _unit_box(v) -> np.ndarray:
    """Each row of v divided by its largest magnitude (a zero row stays
    zero: it is divided by the smallest subnormal)."""
    return v / np.maximum(np.abs(v).max(axis=1, keepdims=True), 5e-324)


def _witness(g, i, j, f):
    """The float witnesses reported for proven ties, one per pair
    (i_p, j_p) with tie direction f_p (rows of f): f_p projected onto
    (g_j - g_i)-perp and scaled into the unit box, and its margin (inf
    when there is no third label).  Each stacked dot product rounds as
    the single one does."""
    rows = np.arange(len(i))
    u = _unit_box(g[j] - g[i])
    # u.u >= 1 once u is scaled, and u = 0 where g_i = g_j: then f stays
    along = (np.matmul(f[:, None, :], u[:, :, None])[:, 0]
             / np.maximum(np.matmul(u[:, None, :], u[:, :, None])[:, 0], 1.0))
    f = _unit_box(f - along * u)
    scores = _matvec(g, f)
    tied = np.minimum(scores[rows, i], scores[rows, j])
    scores[rows, i] = scores[rows, j] = -np.inf
    return f, tied - scores.max(axis=1)


def _rescaled(g):
    """g divided by 2**pow2_exponent(g), and whether that division was
    exact.  An exact positive multiple of g has the same certificates; when
    underflow rounded an entry, only the exact checks apply, on the model
    of _checked_model."""
    e = pow2_exponent(g)
    scaled = np.ldexp(g, -e)
    return scaled, bool((np.ldexp(scaled, e) == g).all())


def _checked_model(g, scaled, exact_scale: bool):
    """The model whose certificates the exact checks prove: scaled where it
    is g / 2**pow2_exponent(g) exactly, else that quotient in Fractions (an
    object array).  So every power-of-two multiple of g that floats hold
    exactly gets the same checks, and the same exact witness."""
    if exact_scale:
        return scaled
    step = Fraction(2) ** -pow2_exponent(g)
    return np.array([[Fraction(v) * step for v in row] for row in g.tolist()],
                    dtype=object)


def _check_eps(eps: float) -> None:
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"eps must be finite and >= 0, got {eps!r}")


def _no_tie_proofs(g, exact_scale: bool, i, j, basis) -> list[str]:
    """The proof path of each "cannot tie" certificate: the final phase-1
    basis basis_p (rows of basis) of the pair system (i_p, j_p), for
    i_p = j_p the weights of a hull system in the same form.  "float"
    where the float filter proves it (run in chunks, and only when
    exact_scale says g is the exactly rescaled model it assumes), else
    "fraction" where the exact check does, else ""."""
    passed = np.zeros(len(i), dtype=bool)
    if exact_scale:
        for part in _chunks(len(i), *g.shape):
            passed[part] = _no_tie_filter(g, i[part], j[part], basis[part])
    return ["float" if ok else "fraction" if _no_tie_fraction(g, a, b, row)
            else "" for a, b, row, ok in zip(i, j, basis, passed)]


def _reports(unembeddings, scaled, exact_scale: bool, pairs, eps: float,
             status, duals, basis) -> list[FeasibilityReport]:
    """The proven report of each pair (i, j) of `pairs` from the float
    phase 1 of coargmax_lp for each pair in index order, as arrays of
    _coargmax_phase1: status codes, Farkas duals and final bases.

    The float filters check the certificates of the whole batch at once;
    they run only when exact_scale says `scaled` is the exactly rescaled
    model they assume.  A certificate they reject is checked in Fractions,
    and a pair whose certificate fails that too is decided by an exact
    rational phase 1."""
    g = _checked_model(unembeddings.vectors, scaled, exact_scale)
    d = g.shape[1]
    lo, hi = np.sort(np.array(pairs, dtype=np.intp), axis=1).T
    proof = [""] * len(pairs)
    direction = {}  # pair index -> proven tie direction
    # phase 1 infeasible: its duals are a tie direction
    codes = status.tolist()
    tie = [p for p, code in enumerate(codes) if code == _INFEASIBLE]
    if tie:
        f = _unit_box(duals[tie, :d])
        passed = (_tie_filter(g, lo[tie], hi[tie], f) if exact_scale
                  else [False] * len(tie))
        for p, fp, ok in zip(tie, f, passed):
            if ok or _tie_fraction(g, lo[p], hi[p], fp):
                proof[p], direction[p] = "float" if ok else "fraction", fp
    # phase 1 feasible: its basic labels mix onto the line
    no_tie = [p for p, code in enumerate(codes) if code == _OPTIMAL]
    if no_tie:
        for p, path in zip(no_tie, _no_tie_proofs(
                g, exact_scale, lo[no_tie], hi[no_tie], basis[no_tie])):
            proof[p] = path
    for p in range(len(pairs)):
        if not proof[p]:
            exact = _exact_phase1(g, lo[p], hi[p])
            proof[p] = "exact"
            if exact is not None:
                top = max(abs(v) for v in exact)
                direction[p] = np.array([float(v / top) for v in exact])
    found = {}
    if direction:
        ties = sorted(direction)
        witnesses, margins = _witness(scaled, lo[ties], hi[ties],
                                      np.array([direction[p] for p in ties]))
        found = dict(zip(ties, zip(witnesses, margins.tolist())))
    reports = []
    for p, ((i, j), code) in enumerate(zip(pairs, codes)):
        witness, margin = found.get(p, (None, 0.0))
        verdict = ("infeasible" if witness is None
                   else "feasible" if margin > eps else "degenerate")
        reports.append(FeasibilityReport(
            i, j, verdict, margin, eps, witness, _STATUSES[code], proof[p]))
    return reports


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
    scaled, exact_scale = _rescaled(unembeddings.vectors)
    status, _, duals, basis = _coargmax_phase1(scaled, [(min(i, j), max(i, j))])
    return _reports(unembeddings, scaled, exact_scale, [(i, j)], eps,
                    status, duals, basis)[0]


def _orient2d_signs(a, b, c) -> np.ndarray:
    """Exact sign of (a - c) x (b_m - c) for every row b_m of b, with a and
    c of shape (..., 2) and b of shape (..., m, 2): a float evaluation with
    Shewchuk's static error bound, and Fractions for the entries the bound
    cannot decide."""
    with np.errstate(all="ignore"):  # overflow leaves an entry unsure
        ac, bc = a - c, b - c[..., None, :]
        left = ac[..., None, 0] * bc[..., 1]
        right = ac[..., None, 1] * bc[..., 0]
        det = left - right
        # _TINY covers a product that underflowed (a subnormal difference
        # is exact)
        bound = _CCW_ERRBOUND * (np.abs(left) + np.abs(right)) + _TINY
        unsure = ~(np.abs(det) > bound)  # NaN after overflow: unsure
    signs = np.sign(det)
    for at in zip(*unsure.nonzero()):
        fa, fb, fc = (_fractions(v) for v in (a[at[:-1]], b[at], c[at[:-1]]))
        exact = (fa[0] - fc[0]) * (fb[1] - fc[1]) - (fa[1] - fc[1]) * (fb[0] - fc[0])
        signs[at] = (exact > 0) - (exact < 0)
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


def coargmax_oracle_2d_pairs(unembeddings: UnembeddingSet, pairs) -> np.ndarray:
    """Exact 2D decider for every pair (i, j) of `pairs`, as a bool array.

    Any candidate f lies on the line orthogonal to g_i - g_j, so check
    both directions of that line for strict wins.  The sign of
    (g_i - g_k) . w for w = rot90(g_i - g_j) is an orientation predicate;
    the predicates of all pairs and labels form one (pairs x k) table,
    decided exactly.  When g_i = g_j, any f may do: the pair ties iff
    every g_k - g_i is nonzero and in one open half-plane."""
    if unembeddings.d != 2:
        raise DimensionMismatchError("the exact oracle applies to d=2 only")
    g = unembeddings.vectors
    k = g.shape[0]
    _check_pairs(k, pairs)
    ties = np.ones(len(pairs), dtype=bool)
    if k == 2 or not ties.size:
        return ties
    i, j = np.array(pairs, dtype=np.intp).T
    g_i, g_j = g[i], g[j]
    equal = (g_i == g_j).all(axis=1)
    if equal.any():  # every orientation of such a pair is zero
        for p in np.flatnonzero(equal):
            ties[p] = _in_open_half_plane(g[_others(k, i[p], j[p])], g_i[p])
        apart = ~equal
        ties[apart] = coargmax_oracle_2d_pairs(unembeddings,
                                               np.column_stack([i, j])[apart])
        return ties
    for part in _chunks(len(ties), k, 2):
        signs = _orient2d_signs(g_j[part], g[_others(k, i[part], j[part])],
                                g_i[part])
        # each sign is -1, 0 or 1: all of one strict sign iff |sum| = k - 2
        ties[part] = np.abs(signs.sum(axis=1)) == k - 2
    return ties


def coargmax_oracle_2d(unembeddings: UnembeddingSet, i: int, j: int) -> bool:
    """coargmax_oracle_2d_pairs for the one pair (i, j)."""
    return bool(coargmax_oracle_2d_pairs(unembeddings, [(i, j)])[0])


def _clear_vertices(g) -> np.ndarray:
    """Labels that look like hull vertices in floats: g_i beats every other
    label in the direction g_i - mean.  A heuristic, not a proof; a wrong
    answer only costs pair LPs."""
    scores = (g - g.mean(axis=0)) @ g.T
    own = np.diag(scores).copy()
    np.fill_diagonal(scores, -np.inf)
    return own > scores.max(axis=1)


def _inside_proofs(unembeddings: UnembeddingSet, labels, scaled,
                   exact_scale: bool) -> dict[int, str]:
    """For each label m of `labels`, the proof path ("float" or "fraction")
    of weights on the other labels whose mix is g_m, found by phase 1 of
    the hull system (the pair system (m, m) without s, through lp.solve)
    and proven like coargmax_feasible's "cannot tie" certificates: the
    columns of its positive weights, padded with -1, stand for the basis;
    "" when there are none or they cannot be proven."""
    labels = np.array(labels, dtype=np.intp)
    found = []
    bases = np.full((len(labels), scaled.shape[1] + 1), -1, dtype=np.intp)
    for part in _chunks(len(labels), *scaled.shape):
        a_eq, b_eq = _pair_systems(scaled, labels[part], labels[part])
        no_s = np.zeros(a_eq.shape[-1] - 1, dtype=bool)
        for m, a, b in zip(labels[part].tolist(), a_eq, b_eq):
            sol = solve(LinearProgram(a[:, :-1], b, no_s))
            if sol.status == "optimal":
                support = np.flatnonzero(sol.x > 0.0)  # at most d + 1: a vertex
                bases[len(found), :support.size] = support
                found.append(m)
    at = np.array(found, dtype=np.intp)
    proofs = dict.fromkeys(labels.tolist(), "")
    proofs.update(zip(found, _no_tie_proofs(
        _checked_model(unembeddings.vectors, scaled, exact_scale), exact_scale,
        at, at, bases[:len(found)])))
    return proofs


def tie_graph(
    unembeddings: UnembeddingSet,
    eps: float = DEFAULT_EPS,
    rows=None,
) -> dict[tuple[int, int], FeasibilityReport]:
    """Tie verdicts of every unordered pair that involves a label in `rows`
    (default: all labels), each decided once.  Keys are (i, j) with i < j,
    in lexicographic order.

    A label inside the convex hull of the others can win nowhere.  Once
    that is proven for label i (one hull LP and its certificate), every
    pair (i, j) with g_j != g_i is infeasible by Motzkin: if the weights
    skip j, their mix g_i is on the line through g_i and g_j; if they give
    j weight lam < 1, (g_i - lam g_j) / (1 - lam) is a mix of the rest on
    that line.  Such a pair is reported with the proof path of label i's
    certificate.  Every other pair is decided like coargmax_feasible
    decides it, from one stacked phase 1 (lp._coargmax_phase1) for all of
    them, with the certificates proven in batches."""
    _check_eps(eps)
    k = unembeddings.k
    wanted = set(range(k) if rows is None else rows)
    for i in wanted:
        if not 0 <= i < k:
            raise IndexError(f"label index {i} out of range for k={k}")
    g = unembeddings.vectors
    scaled, exact_scale = _rescaled(g)
    clear = _clear_vertices(scaled)
    inside = dict.fromkeys(range(k), "")
    # a label of `rows` first: its proof settles all of its pairs; the
    # others matter only for the pairs of a label of `rows` left unproven
    for group in (wanted, set(range(k)) - wanted):
        inside.update(_inside_proofs(
            unembeddings, [m for m in sorted(group) if not clear[m]],
            scaled, exact_scale))
        if all(inside[m] for m in wanted):
            break

    graph = {}
    todo = []
    vectors = g.tolist()  # compared as floats: -0.0 == 0.0
    for i in range(k):
        for j in range(i + 1, k):
            if i not in wanted and j not in wanted:
                continue
            first, second = (i, j) if i in wanted else (j, i)
            proof = inside[first] or inside[second]
            if proof and vectors[i] != vectors[j]:
                graph[i, j] = FeasibilityReport(
                    i, j, "infeasible", 0.0, eps, None, "optimal", proof
                )
            else:
                graph[i, j] = None  # keeps the key order
                todo.append((i, j))
    status, _, duals, basis = _coargmax_phase1(scaled, todo)
    for part in _chunks(len(todo), *g.shape):
        reports = _reports(unembeddings, scaled, exact_scale, todo[part], eps,
                           status[part], duals[part], basis[part])
        graph.update(zip(todo[part], reports))
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
