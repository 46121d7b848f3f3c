"""Two-phase simplex solver: golden problems, random cross-checks, edge cases."""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from unembed import LinearProgram, UnembeddingSet, coargmax_lp
from unembed import lp as lp_module
from unembed.lp import PIVOT_TOL, _standard_form, coargmax_phase1, hull_lp, solve


def _scipy_solve(lp: LinearProgram):
    """Independent answer from scipy's HiGHS backend (minimize form)."""
    constraints = []
    if lp.a_ge.shape[0]:
        constraints.append(
            scipy.optimize.LinearConstraint(lp.a_ge, lb=lp.b_ge, ub=np.inf)
        )
    if lp.a_eq.shape[0]:
        constraints.append(
            scipy.optimize.LinearConstraint(lp.a_eq, lb=lp.b_eq, ub=lp.b_eq)
        )
    res = scipy.optimize.milp(
        c=-lp.objective,
        constraints=constraints,
        bounds=scipy.optimize.Bounds(lb=lp.lower, ub=lp.upper),
        integrality=np.zeros(lp.n),
    )
    return res


class TestGoldenProblems:
    def test_simple_box_maximum(self):
        # max x subject to x <= 5
        lp = LinearProgram([1.0], lower=[0.0], upper=[5.0])
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(5.0, abs=1e-9)

    def test_free_variable_with_upper_bound(self):
        # max t subject to t <= -1, t free below
        lp = LinearProgram([1.0], lower=[-np.inf], upper=[-1.0])
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-1.0, abs=1e-9)

    def test_two_variable_classic(self):
        # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (optimum 36)
        lp = LinearProgram(
            [3.0, 5.0],
            a_ge=[[-1.0, 0.0], [0.0, -2.0], [-3.0, -2.0]],
            b_ge=[-4.0, -12.0, -18.0],
            lower=[0.0, 0.0],
        )
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(36.0, abs=1e-9)
        np.testing.assert_allclose(sol.x, [2.0, 6.0], atol=1e-9)

    def test_infeasible_detected(self):
        # x >= 2 and x <= 1 cannot hold together
        lp = LinearProgram([1.0], a_ge=[[1.0]], b_ge=[2.0],
                           lower=[0.0], upper=[1.0])
        assert solve(lp).status == "infeasible"

    def test_unbounded_detected(self):
        lp = LinearProgram([1.0], lower=[0.0])
        assert solve(lp).status == "unbounded"

    def test_equality_constraints(self):
        # max x + y s.t. x + y = 3, x - y = 1 -> unique point (2, 1)
        lp = LinearProgram(
            [1.0, 1.0],
            a_eq=[[1.0, 1.0], [1.0, -1.0]],
            b_eq=[3.0, 1.0],
            lower=[0.0, 0.0],
        )
        sol = solve(lp)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, [2.0, 1.0], atol=1e-9)

    def test_degenerate_cycling_guard(self):
        # Beale's classic cycling example; Dantzig's rule alone cycles on
        # it, the anti-cycling switch must terminate at optimum 0.05
        lp = LinearProgram(
            [0.75, -150.0, 0.02, -6.0],
            a_ge=[
                [-0.25, 60.0, 0.04, -9.0],
                [-0.5, 90.0, 0.02, -3.0],
                [0.0, 0.0, -1.0, 0.0],
            ],
            b_ge=[0.0, 0.0, -1.0],
            lower=[0.0, 0.0, 0.0, 0.0],
        )
        # constraint rows above are the >=-form of 0.25x1 - 60x2 - 0.04x3
        # + 9x4 <= 0 etc.
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.05, abs=1e-9)

    def test_negative_lower_bounds(self):
        # max x + y over the box [-3, -1] x [-2, 5]
        lp = LinearProgram([1.0, 1.0], lower=[-3.0, -2.0], upper=[-1.0, 5.0])
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(4.0, abs=1e-9)


class TestValidation:
    def test_matrix_without_rhs(self):
        with pytest.raises(ValueError):
            LinearProgram([1.0], a_ge=[[1.0]])

    def test_rhs_without_matrix(self):
        with pytest.raises(ValueError):
            LinearProgram([1.0], b_ge=[1.0])

    def test_crossed_bounds(self):
        with pytest.raises(ValueError):
            LinearProgram([1.0], lower=[2.0], upper=[1.0])

    def test_nan_objective(self):
        with pytest.raises(ValueError):
            LinearProgram([np.nan])

    def test_wrong_width(self):
        with pytest.raises(ValueError):
            LinearProgram([1.0, 2.0], a_ge=[[1.0]], b_ge=[0.0])


class TestAgainstScipy:
    def _random_feasible_lp(self, rng, n, m):
        """Random constraints arranged to keep a known point feasible, so
        the instance is never infeasible by construction."""
        x0 = rng.uniform(-2.0, 2.0, size=n)
        a = rng.uniform(-3.0, 3.0, size=(m, n))
        slack = rng.uniform(0.1, 2.0, size=m)
        b = a @ x0 - slack  # a x0 >= b holds strictly
        lower = x0 - rng.uniform(0.5, 3.0, size=n)
        upper = x0 + rng.uniform(0.5, 3.0, size=n)
        c = rng.uniform(-1.0, 1.0, size=n)
        return LinearProgram(c, a_ge=a, b_ge=b, lower=lower, upper=upper)

    def test_random_instances_match_scipy(self, rng):
        for trial in range(60):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 8))
            lp = self._random_feasible_lp(rng, n, m)
            sol = solve(lp)
            ref = _scipy_solve(lp)
            assert sol.status == "optimal", f"trial {trial}: {sol.status}"
            assert ref.status == 0
            assert sol.objective == pytest.approx(-ref.fun, abs=1e-7)

    def test_solution_satisfies_constraints(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 8))
            lp = self._random_feasible_lp(rng, n, m)
            sol = solve(lp)
            assert sol.status == "optimal"
            x = sol.x
            assert np.all(lp.a_ge @ x >= lp.b_ge - 1e-8)
            assert np.all(x >= lp.lower - 1e-9)
            assert np.all(x <= lp.upper + 1e-9)


def _standard_form_loop(lp: LinearProgram):
    """Reference: the per-variable loop that _standard_form vectorizes."""
    n, me, mi = lp.n, lp.a_eq.shape[0], lp.a_ge.shape[0]
    offset = np.zeros(n)
    var_cols, bound_rows, ncols = [], [], 0
    for j in range(n):
        lo, hi = lp.lower[j], lp.upper[j]
        if np.isfinite(lo):
            offset[j] = lo
            var_cols.append([(ncols, 1.0)])
            ncols += 1
            if np.isfinite(hi):
                bound_rows.append((j, hi - lo))
        else:
            var_cols.append([(ncols, 1.0), (ncols + 1, -1.0)])
            ncols += 2
            if np.isfinite(hi):
                bound_rows.append((j, hi))
    nb = len(bound_rows)
    mat = np.zeros((me + mi + nb, ncols + mi + nb))
    rhs = np.zeros(me + mi + nb)
    for j in range(n):
        for col, sign in var_cols[j]:
            if me:
                mat[:me, col] += sign * lp.a_eq[:, j]
            if mi:
                mat[me : me + mi, col] += sign * lp.a_ge[:, j]
    if me:
        rhs[:me] = lp.b_eq - lp.a_eq @ offset
    if mi:
        rhs[me : me + mi] = lp.b_ge - lp.a_ge @ offset
        for i in range(mi):
            mat[me + i, ncols + i] = -1.0
    for t, (j, ub_rhs) in enumerate(bound_rows):
        for col, sign in var_cols[j]:
            mat[me + mi + t, col] = sign
        mat[me + mi + t, ncols + mi + t] = 1.0
        rhs[me + mi + t] = ub_rhs
    return mat, rhs, offset, var_cols


class TestStandardForm:
    def test_matches_loop_reference_bit_for_bit(self, rng):
        for _ in range(300):
            n, me, mi = (int(v) for v in rng.integers((1, 0, 0), (7, 3, 5)))
            lower = np.where(rng.random(n) < 0.4, -np.inf, rng.uniform(-3, 1, n))
            upper = np.where(rng.random(n) < 0.4, np.inf, rng.uniform(1, 4, n))
            lp = LinearProgram(
                rng.uniform(-1, 1, n),
                rng.uniform(-3, 3, (me, n)) if me else None,
                rng.uniform(-3, 3, me) if me else None,
                rng.uniform(-3, 3, (mi, n)) if mi else None,
                rng.uniform(-3, 3, mi) if mi else None,
                lower, upper,
            )
            mat, rhs, offset, first, free = _standard_form(lp)
            ref_mat, ref_rhs, ref_offset, var_cols = _standard_form_loop(lp)
            for got, want in ((mat, ref_mat), (rhs, ref_rhs), (offset, ref_offset)):
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert var_cols == [
                [(int(c), 1.0)] + ([(int(c) + 1, -1.0)] if f else [])
                for c, f in zip(first, free)
            ]


class TestDeterminism:
    def test_bitwise_repeatable(self, centered):
        u = centered.model.unembeddings
        first = solve(coargmax_lp(u, 2, 4))
        second = solve(coargmax_lp(u, 2, 4))
        assert first.status == second.status
        assert first.iterations == second.iterations
        np.testing.assert_array_equal(first.x, second.x)
        assert first.objective == second.objective

    def test_iteration_cap_yields_indeterminate(self, centered):
        u = centered.model.unembeddings
        sol = solve(coargmax_lp(u, 2, 1), max_iterations=1)
        assert sol.status == "indeterminate"


class TestCoargmaxLp:
    def test_program_shape(self, centered):
        u = centered.model.unembeddings
        lp = coargmax_lp(u, 2, 4)
        assert lp.n == u.k - 1  # weights on the other labels plus s
        assert lp.a_eq.shape == (u.d + 1, u.k - 1)
        assert lp.a_ge.shape == (0, u.k - 1)
        assert np.all(lp.objective == 0.0)  # phase 1 decides everything
        assert np.all(lp.lower[:-1] == 0.0) and lp.lower[-1] == -np.inf
        assert np.all(lp.upper == np.inf)
        # the model is divided by the power of two 2**1 (max |g| = 1.4)
        np.testing.assert_array_equal(lp.b_eq, np.append(u.vector(2) / 2, 1.0))
        np.testing.assert_array_equal(lp.a_eq[:2, -1], (u.vector(2) - u.vector(4)) / 2)

    def test_statuses_on_centered_fixture(self, centered):
        # phase 1 is feasible exactly when the pair cannot tie
        u = centered.model.unembeddings
        expected = {(2, 4): "optimal", (2, 3): "infeasible",
                    (2, 1): "infeasible", (2, 0): "optimal",
                    (0, 1): "infeasible", (1, 3): "optimal"}
        for (i, j), status in expected.items():
            assert solve(coargmax_lp(u, i, j)).status == status

    def test_two_label_model_can_tie(self):
        # with k = 2 there are no weights, so sum mu = 1 cannot hold
        u = UnembeddingSet(("a", "b"), [[1.0, 0.0], [0.0, 1.0]])
        sol = solve(coargmax_lp(u, 0, 1))
        assert sol.status == "infeasible"

    def test_infeasible_duals_are_a_farkas_certificate(self, centered, unrestricted):
        for ex in (centered, unrestricted):
            u = ex.model.unembeddings
            for i in range(u.k):
                for j in range(i + 1, u.k):
                    lp = coargmax_lp(u, i, j)
                    sol = solve(lp)
                    if sol.status != "infeasible":
                        assert sol.duals is None
                        continue
                    y = sol.duals
                    assert y @ lp.b_eq > 0.0
                    assert np.all(y @ lp.a_eq[:, :-1] <= PIVOT_TOL)  # mu >= 0
                    assert abs(y @ lp.a_eq[:, -1]) <= PIVOT_TOL  # s free

    def test_statuses_match_scipy(self, centered, unrestricted):
        for ex in (centered, unrestricted):
            u = ex.model.unembeddings
            for i in range(u.k):
                for j in range(i + 1, u.k):
                    lp = coargmax_lp(u, i, j)
                    sol = solve(lp)
                    ref = _scipy_solve(lp)
                    assert ref.status in (0, 2)  # optimal or infeasible
                    assert sol.status == ("optimal" if ref.status == 0
                                          else "infeasible")


class TestHullLp:
    def test_program_shape(self, centered):
        u = centered.model.unembeddings
        lp = hull_lp(u, 2)
        assert lp.n == u.k - 1  # weights on every other label, no s
        assert lp.a_eq.shape == (u.d + 1, u.k - 1)
        assert np.all(lp.objective == 0.0) and np.all(lp.lower == 0.0)
        # the same power-of-two rescale as coargmax_lp (max |g| = 1.4)
        np.testing.assert_array_equal(lp.b_eq, np.append(u.vector(2) / 2, 1.0))
        np.testing.assert_array_equal(lp.a_eq[:2, 2], u.vector(3) / 2)

    def test_index_validated(self, centered):
        with pytest.raises(IndexError):
            hull_lp(centered.model.unembeddings, 5)

    def test_statuses_match_scipy(self, rng):
        # feasible exactly when the label lies in the hull of the others
        for _ in range(20):
            k, d = int(rng.integers(3, 12)), int(rng.integers(2, 4))
            g = rng.standard_normal((k, d))
            u = UnembeddingSet(tuple(f"l{m}" for m in range(k)), g)
            for i in range(k):
                lp = hull_lp(u, i)
                ref = _scipy_solve(lp)
                assert ref.status in (0, 2)
                assert solve(lp).status == ("optimal" if ref.status == 0
                                            else "infeasible")


def _labelled(g):
    g = np.asarray(g, dtype=np.float64)
    return UnembeddingSet(tuple(f"l{m}" for m in range(g.shape[0])), g)


def _bits(v):
    """Exact bytes of an array or float (sign of zero included), or None."""
    return None if v is None else np.asarray(v, dtype=np.float64).tobytes()


def _fingerprint(sol):
    return (sol.status, sol.iterations, _bits(sol.x), _bits(sol.objective),
            _bits(sol.duals))


def _ordered_pairs(k):
    return [(i, j) for i in range(k) for j in range(k) if i != j]


def _assert_matches_solve(g, pairs=None):
    """Every stacked solution equals solve(coargmax_lp(u, i, j)) bit for
    bit: status, iterations, x, objective and duals."""
    u = _labelled(g)
    pairs = _ordered_pairs(u.k) if pairs is None else pairs
    stacked = coargmax_phase1(u, pairs)
    assert len(stacked) == len(pairs)
    for (i, j), sol in zip(pairs, stacked):
        assert _fingerprint(sol) == _fingerprint(solve(coargmax_lp(u, i, j))), (i, j)
    return stacked


def _rotated_subspace_model():
    # twelve labels in a rotated 3-dimensional subspace of R^8
    rng = np.random.default_rng(8)
    basis, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    return rng.standard_normal((12, 3)) @ basis[:3]


class TestCoargmaxPhase1:
    """The stacked phase 1 must reproduce solve on every pair system."""

    @pytest.mark.parametrize("d, k", [(2, 14), (3, 13), (8, 12), (16, 10)])
    def test_gaussian_models(self, d, k):
        g = np.random.default_rng([d, k]).standard_normal((k, d))
        stacked = _assert_matches_solve(g)
        assert {sol.status for sol in stacked} <= {"optimal", "infeasible"}

    # (seed, model index, (d, k)): the models of perfbench/README.md's
    # reproducer table
    REPRODUCERS = [(1355062222, 9, (16, 22)), (1207187955, 1, (8, 24)),
                   (1069673014, 0, (2, 32)), (1097127993, 10, (3, 30))]

    @pytest.mark.parametrize("case", REPRODUCERS, ids=lambda c: str(c[0]))
    def test_perfbench_reproducers(self, case):
        seed, n, (d, k) = case
        g = np.random.default_rng([seed, n]).standard_normal((k, d))
        _assert_matches_solve(g, [(i, j) for i in range(k) for j in range(i + 1, k)])

    @pytest.mark.parametrize("g", [
        [[0.0, 0.0], [5.0, 5.0], [4.0097, 4.0097]],  # exactly collinear
        [[1.0, 0.0], [0.0, 1.0]],  # k = 2
        [[1.0, 2.0], [1.0, 2.0]],
        [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]],  # k = 3
        [[1.0, 2.0], [1.0, 2.0], [0.0, -1.0]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    ], ids=["collinear", "k2", "k2-equal", "k3-line", "k3-equal", "k3-3d"])
    def test_small_and_collinear_models(self, g):
        _assert_matches_solve(g)

    def test_rotated_subspace(self):
        _assert_matches_solve(_rotated_subspace_model())

    def test_duplicate_rows(self):
        g = np.random.default_rng(3).standard_normal((8, 3))
        g[5], g[7] = g[2], g[1]
        _assert_matches_solve(g)
        g2 = np.random.default_rng(4).standard_normal((9, 2))
        g2[[3, 6]] = g2[0]
        _assert_matches_solve(g2)

    def test_signed_zeros(self):
        # labels in a coordinate subspace, some zeros negative
        g = np.zeros((9, 4))
        g[:, :2] = np.random.default_rng(9).standard_normal((9, 2))
        g[::2, 2:] = -0.0
        _assert_matches_solve(g)

    @pytest.mark.parametrize("c", [1e-300, 1e300])
    def test_extreme_magnitudes(self, c):
        g = np.random.default_rng(10).standard_normal((9, 3)) * c
        _assert_matches_solve(g)

    @pytest.mark.parametrize("per_stack", [1, 2, 3])
    def test_stack_size_changes_nothing(self, per_stack, monkeypatch):
        g = np.random.default_rng(11).standard_normal((9, 3))
        u, pairs = _labelled(g), _ordered_pairs(9)
        expected = [_fingerprint(sol) for sol in coargmax_phase1(u, pairs)]
        tableau_bytes = 8 * (3 + 2) * (9 + 3 + 2)
        monkeypatch.setattr(lp_module, "_STACK_BYTES", per_stack * tableau_bytes)
        sizes = []
        stack = lp_module._phase1_stack

        def counted(g, pairs, scratch):
            sizes.append(len(pairs))
            return stack(g, pairs, scratch)

        monkeypatch.setattr(lp_module, "_phase1_stack", counted)
        assert [_fingerprint(sol) for sol in coargmax_phase1(u, pairs)] == expected
        assert sizes == [per_stack] * (len(pairs) // per_stack) + (
            [len(pairs) % per_stack] if len(pairs) % per_stack else [])

    def test_bland_rule_matches(self, monkeypatch):
        # Bland's rule from the first degenerate pivot on: the stack must
        # switch per tableau exactly when solve does
        g = np.random.default_rng(12).standard_normal((10, 3))
        g[[4, 7]] = g[1]
        g[9] = 0.0
        u, pairs = _labelled(g), _ordered_pairs(10)
        dantzig = [sol.iterations for sol in coargmax_phase1(u, pairs)]
        monkeypatch.setattr(lp_module, "_bland_after", lambda rows, cols: 0)
        bland = _assert_matches_solve(g)
        assert [sol.iterations for sol in bland] != dantzig

    def test_iteration_cap_matches(self, monkeypatch):
        monkeypatch.setattr(lp_module, "_iteration_cap", lambda rows, cols: 3)
        g = np.random.default_rng(13).standard_normal((12, 3))
        stacked = _assert_matches_solve(g)
        assert "indeterminate" in {sol.status for sol in stacked}

    def test_pairs_validated(self, centered):
        u = centered.model.unembeddings
        assert coargmax_phase1(u, []) == []
        with pytest.raises(ValueError):
            coargmax_phase1(u, [(0, 1), (2, 2)])
        with pytest.raises(IndexError):
            coargmax_phase1(u, [(0, 5)])

    @given(arrays(np.float64, st.tuples(st.integers(2, 8), st.integers(1, 4)),
                  elements=st.floats(-10.0, 10.0, allow_nan=False,
                                     allow_infinity=False)))
    @settings(max_examples=40, deadline=None)
    def test_random_models_property(self, g):
        _assert_matches_solve(g)
