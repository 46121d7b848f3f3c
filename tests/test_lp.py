"""Phase-1 simplex solver: golden systems, HiGHS cross-checks, the stacked
phase 1."""

from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from unembed import LinearProgram, UnembeddingSet, coargmax_lp
from unembed import lp as lp_module
from unembed.lp import (
    PIVOT_TOL, _coargmax_phase1, _pair_systems, pow2_exponent, solve,
)
from oracle_utils import (
    coargmax_system_reference, hull_system_reference, no_tie_columns_reference,
    phase1_solutions,
)


def _scipy_solve(lp: LinearProgram):
    """Independent answer from scipy's HiGHS backend: status 0 when the
    system is feasible, 2 when it is not."""
    n = lp.free.size
    return scipy.optimize.milp(
        c=np.zeros(n),
        constraints=[scipy.optimize.LinearConstraint(lp.a_eq, lb=lp.b_eq, ub=lp.b_eq)],
        bounds=scipy.optimize.Bounds(lb=np.where(lp.free, -np.inf, 0.0), ub=np.inf),
        integrality=np.zeros(n),
    )


def _highs_status(lp: LinearProgram) -> str:
    ref = _scipy_solve(lp)
    assert ref.status in (0, 2)  # feasible or infeasible
    return "optimal" if ref.status == 0 else "infeasible"


def _assert_solves(lp: LinearProgram, sol):
    """x solves the system, or the duals are a Farkas certificate."""
    if sol.status == "optimal":
        scale = 1.0 + max(np.abs(lp.b_eq).max(), np.abs(sol.x).max())
        assert np.abs(lp.a_eq @ sol.x - lp.b_eq).max() <= 1e-9 * scale
        assert np.all(sol.x[~lp.free] >= -1e-9 * scale)
        assert sol.duals is None
    else:
        assert sol.status == "infeasible" and sol.x is None
        y = sol.duals
        assert y @ lp.b_eq > 0.0
        cols = y @ lp.a_eq
        assert np.all(cols[~lp.free] <= PIVOT_TOL)  # x >= 0
        assert np.all(np.abs(cols[lp.free]) <= PIVOT_TOL)  # x free


class TestGoldenProblems:
    def test_equality_constraints(self):
        # x + y = 3, x - y = 1 -> the unique point (2, 1)
        lp = LinearProgram([[1.0, 1.0], [1.0, -1.0]], [3.0, 1.0], [False, False])
        sol = solve(lp)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, [2.0, 1.0], atol=1e-9)

    def test_free_variable_with_upper_bound(self):
        # t + r = -1 with t free and the slack r >= 0, i.e. t <= -1: the
        # row is negated and t split into a nonnegative pair
        lp = LinearProgram([[1.0, 1.0]], [-1.0], [True, False])
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.x[0] <= -1.0
        _assert_solves(lp, sol)

    def test_infeasible_detected(self):
        # x - s = 2 and x + r = 1 with x, s, r >= 0: x >= 2 and x <= 1
        lp = LinearProgram([[1.0, -1.0, 0.0], [1.0, 0.0, 1.0]], [2.0, 1.0],
                           [False, False, False])
        sol = solve(lp)
        assert sol.status == "infeasible"
        _assert_solves(lp, sol)

    def test_redundant_row(self):
        # the second row repeats the first: its artificial stays basic
        lp = LinearProgram([[1.0, 2.0], [1.0, 2.0]], [2.0, 2.0], [False, False])
        sol = solve(lp)
        assert sol.status == "optimal"
        _assert_solves(lp, sol)

    def test_negative_zero_reads_zero(self):
        # a -0.0 in the rhs must not come back as a -0.0 in x
        sol = solve(LinearProgram([[1.0, 1.0], [0.0, 1.0]], [1.0, -0.0],
                                  [False, False]))
        assert sol.status == "optimal"
        assert sol.x.tobytes() == np.array([1.0, 0.0]).tobytes()

    def test_degenerate_cycling_guard(self, monkeypatch):
        # Bland's rule from the first degenerate pivot on, on every pair
        # and hull system of a model with duplicate rows and a zero row:
        # each solve must end below the cap with HiGHS's status
        u = _labelled(_degenerate_model())
        systems = ([coargmax_lp(u, i, j) for i, j in _ordered_pairs(u.k)]
                   + [_hull_lp(u, i) for i in range(u.k)])
        dantzig = [solve(lp).iterations for lp in systems]
        monkeypatch.setattr(lp_module, "_bland_after", lambda rows, cols: 0)
        bland = []
        for lp in systems:
            sol = solve(lp)
            m, n = lp.a_eq.shape
            assert sol.iterations < lp_module._iteration_cap(
                m, n + int(lp.free.sum()) + m)
            assert sol.status == _highs_status(lp)
            _assert_solves(lp, sol)
            bland.append(sol.iterations)
        assert bland != dantzig  # the rule changed the pivot path


class TestValidation:
    def test_matrix_without_rhs(self):
        with pytest.raises(ValueError):
            LinearProgram([[1.0, 2.0]], [], [False, False])

    def test_rhs_without_matrix(self):
        with pytest.raises(ValueError):
            LinearProgram(np.zeros((0, 2)), [1.0], [False, False])

    def test_wrong_width(self):
        with pytest.raises(ValueError):
            LinearProgram([[1.0, 2.0]], [1.0], [False])

    def test_not_a_matrix(self):
        with pytest.raises(ValueError):
            LinearProgram([1.0, 2.0], [1.0], [False, False])

    def test_non_finite_entries(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                LinearProgram([[bad]], [1.0], [False])
            with pytest.raises(ValueError):
                LinearProgram([[1.0]], [bad], [False])

    def test_arrays_are_read_only_copies(self):
        a, b, free = np.ones((1, 2)), np.ones(1), np.array([False, True])
        lp = LinearProgram(a, b, free)
        a[0, 0] = b[0] = 5.0
        free[0] = True
        assert lp.a_eq.tolist() == [[1.0, 1.0]] and lp.b_eq.tolist() == [1.0]
        assert lp.free.tolist() == [False, True]
        for arr in (lp.a_eq, lp.b_eq, lp.free):
            assert not arr.flags.writeable


class TestAgainstScipy:
    @staticmethod
    def _random_systems(rng, count):
        """Random systems; half of them feasible by construction, the rest
        with a random rhs."""
        for _ in range(count):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 8))
            a = rng.uniform(-3.0, 3.0, (m, n))
            free = rng.random(n) < 0.3
            if rng.random() < 0.5:
                b = a @ (rng.uniform(0.0, 2.0, n) - 2.0 * free)
            else:
                b = rng.uniform(-3.0, 3.0, m)
            yield LinearProgram(a, b, free)

    def test_random_instances_match_scipy(self, rng):
        for trial, lp in enumerate(self._random_systems(rng, 100)):
            assert solve(lp).status == _highs_status(lp), f"trial {trial}"

    def test_solution_satisfies_constraints(self, rng):
        statuses = set()
        for lp in self._random_systems(rng, 100):
            sol = solve(lp)
            _assert_solves(lp, sol)
            statuses.add(sol.status)
        assert statuses == {"optimal", "infeasible"}


class TestDeterminism:
    def test_bitwise_repeatable(self, centered):
        u = centered.model.unembeddings
        first = solve(coargmax_lp(u, 2, 4))
        second = solve(coargmax_lp(u, 2, 4))
        assert first.status == second.status
        assert first.iterations == second.iterations
        np.testing.assert_array_equal(first.x, second.x)

    def test_iteration_cap_yields_indeterminate(self, centered, monkeypatch):
        monkeypatch.setattr(lp_module, "_iteration_cap", lambda rows, cols: 1)
        sol = solve(coargmax_lp(centered.model.unembeddings, 2, 1))
        assert (sol.status, sol.iterations) == ("indeterminate", 1)


class TestCoargmaxLp:
    def test_program_shape(self, centered):
        u = centered.model.unembeddings
        lp = coargmax_lp(u, 2, 4)
        # weights >= 0 on the other labels, then the free s
        assert lp.a_eq.shape == (u.d + 1, u.k - 1)
        assert lp.free.tolist() == [False] * (u.k - 2) + [True]
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
                    _assert_solves(lp, solve(lp))

    def test_statuses_match_scipy(self, centered, unrestricted):
        for ex in (centered, unrestricted):
            u = ex.model.unembeddings
            for i in range(u.k):
                for j in range(i + 1, u.k):
                    lp = coargmax_lp(u, i, j)
                    assert solve(lp).status == _highs_status(lp)


def _hull_lp(u, i) -> LinearProgram:
    """Label i's hull system as tie_graph solves it: the pair system (i, i)
    of the rescaled model without s."""
    g = u.vectors
    a_eq, b_eq = _pair_systems(np.ldexp(g, -pow2_exponent(g)), i, i)
    return LinearProgram(a_eq[:, :-1], b_eq, np.zeros(u.k - 1, dtype=bool))


class TestHullLp:
    def test_program_shape(self, centered):
        u = centered.model.unembeddings
        lp = _hull_lp(u, 2)
        # weights >= 0 on every other label, no s
        assert lp.a_eq.shape == (u.d + 1, u.k - 1)
        assert not lp.free.any()
        # the same power-of-two rescale as coargmax_lp (max |g| = 1.4)
        np.testing.assert_array_equal(lp.b_eq, np.append(u.vector(2) / 2, 1.0))
        np.testing.assert_array_equal(lp.a_eq[:2, 2], u.vector(3) / 2)

    def test_index_validated(self, centered):
        # the gather clips its indices, so a bad label must fail before it
        with pytest.raises(IndexError):
            _pair_systems(centered.model.unembeddings.vectors, 5, 5)

    def test_statuses_match_scipy(self, rng):
        # feasible exactly when the label lies in the hull of the others
        for _ in range(20):
            k, d = int(rng.integers(3, 12)), int(rng.integers(2, 4))
            g = rng.standard_normal((k, d))
            u = UnembeddingSet(tuple(f"l{m}" for m in range(k)), g)
            for i in range(k):
                lp = _hull_lp(u, i)
                assert solve(lp).status == _highs_status(lp)


def _same_bits(a, b) -> bool:
    """Equal shapes and values, signs of zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@st.composite
def _pair_system_models(draw):
    """Models of k = 3-11 labels in d = 1-5 with signed zeros, duplicate
    rows, zero columns and a power-of-two scale."""
    k, d = draw(st.integers(3, 11)), draw(st.integers(1, 5))
    g = draw(arrays(np.float64, (k, d), elements=st.one_of(
        st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0]))))
    for a, b in draw(st.lists(st.tuples(st.integers(0, k - 1),
                                        st.integers(0, k - 1)), max_size=3)):
        g[a] = g[b]
    g[:, draw(st.lists(st.integers(0, d - 1), max_size=2))] = 0.0
    return np.ldexp(g, draw(st.integers(-30, 30)))


class TestPairSystems:
    """_pair_systems is the one build of the pair and hull systems: it must
    match the hand-written builds of tests/oracle_utils.py bit for bit."""

    @given(_pair_system_models())
    @settings(max_examples=60, deadline=None)
    def test_matches_hand_built_references(self, g):
        u = _labelled(g)
        k = len(g)
        scaled = np.ldexp(g, -pow2_exponent(g))
        pairs = _ordered_pairs(k)
        i, j = np.array(pairs).T
        a_eq, b_eq = _pair_systems(scaled, i, j)
        for p, (a, b) in enumerate(pairs):
            ref = coargmax_system_reference(scaled, a, b)
            assert _same_bits(a_eq[p], ref[0]) and _same_bits(b_eq[p], ref[1])
            one = _pair_systems(scaled, a, b)  # a pair of ints: one system
            assert _same_bits(one[0], ref[0]) and _same_bits(one[1], ref[1])
            lp = coargmax_lp(u, a, b)
            assert all(_same_bits(x, y) for x, y in zip(
                (lp.a_eq, lp.b_eq, lp.free), ref))
        assert _same_bits(a_eq.transpose(0, 2, 1),
                          no_tie_columns_reference(scaled, i, j))
        labels = np.arange(k)
        a_eq, b_eq = _pair_systems(scaled, labels, labels)
        for m in range(k):  # the hull system plus a zero s column
            ref = hull_system_reference(scaled, m)
            assert _same_bits(a_eq[m, :, :-1], ref[0]) and _same_bits(b_eq[m], ref[1])
            assert _same_bits(a_eq[m, :, -1], np.zeros(g.shape[1] + 1))
        assert _same_bits(a_eq.transpose(0, 2, 1),
                          no_tie_columns_reference(scaled, labels, labels))

    def test_zero_pairs(self):
        g = np.random.default_rng(5).standard_normal((6, 3))
        none = np.zeros(0, dtype=np.intp)
        a_eq, b_eq = _pair_systems(g, none, none)
        assert a_eq.shape == (0, 4, 5) and b_eq.shape == (0, 4)
        status, iterations, duals, basis = _coargmax_phase1(g, [])
        assert status.shape == iterations.shape == (0,)
        assert duals.shape == basis.shape == (0, 4)


def _degenerate_model():
    g = np.random.default_rng(12).standard_normal((10, 3))
    g[[4, 7]] = g[1]
    g[9] = 0.0
    return g


def _labelled(g):
    g = np.asarray(g, dtype=np.float64)
    return UnembeddingSet(tuple(f"l{m}" for m in range(g.shape[0])), g)


def _bits(v):
    """Exact bytes of an array or float (sign of zero included), or None."""
    return None if v is None else np.asarray(v, dtype=np.float64).tobytes()


def _fingerprint(sol):
    """What the stacked phase 1 shares with solve."""
    return (sol.status, sol.iterations, _bits(sol.duals))


def _stacked_fingerprint(sol):
    """A stacked result, its final basis included."""
    return _fingerprint(sol) + (None if sol.basis is None else sol.basis.tolist(),)


def _ordered_pairs(k):
    return [(i, j) for i in range(k) for j in range(k) if i != j]


def _solve_and_check(lp):
    """solve(lp), and whether its residual check on x rejected the vertex
    at which its phase 1 ended feasible (solve then says indeterminate)."""
    finish, rejected = lp_module._finish, []

    def checked(*args):
        x = finish(*args)
        rejected.append(x is None)
        return x

    with mock.patch.object(lp_module, "_finish", checked):
        return solve(lp), any(rejected)


def _assert_matches_solve(g, pairs=None):
    """Every stacked result equals solve(coargmax_lp(u, i, j)) bit for bit
    in status, iterations and duals, except that the stack reads no x:
    where solve's residual check on x rejected a feasible phase 1, the
    stack keeps "optimal".  Where phase 1 ended feasible with no
    artificial left in the basis, solve reads x off that basis, so x is
    nonzero only on its columns."""
    u = _labelled(g)
    pairs = _ordered_pairs(u.k) if pairs is None else pairs
    stacked = phase1_solutions(u, pairs)
    assert len(stacked) == len(pairs)
    for (i, j), sol in zip(pairs, stacked):
        ref, rejected = _solve_and_check(coargmax_lp(u, i, j))
        expected = _fingerprint(ref)
        if rejected:
            expected = ("optimal",) + expected[1:]
        assert _fingerprint(sol) == expected, (i, j)
        if sol.status == "optimal":
            assert sol.basis.shape == (u.d + 1,)
            if not rejected and (sol.basis >= 0).all():
                assert set(np.flatnonzero(ref.x).tolist()) <= set(sol.basis.tolist())
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

    def test_basic_artificial(self):
        # duplicate rows and a zero row leave an artificial basic at the
        # end of some feasible phase 1s; their bases hold -1
        stacked = _assert_matches_solve(_degenerate_model())
        assert any((sol.basis < 0).any() for sol in stacked if sol.status == "optimal")

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
        expected = [_stacked_fingerprint(sol) for sol in phase1_solutions(u, pairs)]
        tableau_bytes = 8 * (3 + 2) * (9 + 3 + 2)
        monkeypatch.setattr(lp_module, "_STACK_BYTES", per_stack * tableau_bytes)
        sizes = []
        stack = lp_module._phase1_stack

        def counted(g, pairs, part, out):
            sizes.append(len(part))
            return stack(g, pairs, part, out)

        monkeypatch.setattr(lp_module, "_phase1_stack", counted)
        assert [_stacked_fingerprint(sol) for sol in phase1_solutions(u, pairs)] == expected
        assert sizes == [per_stack] * (len(pairs) // per_stack) + (
            [len(pairs) % per_stack] if len(pairs) % per_stack else [])

    @given(arrays(np.float64, st.tuples(st.integers(2, 9), st.integers(1, 4)),
                  elements=st.floats(-10.0, 10.0, allow_nan=False,
                                     allow_infinity=False)),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_stack_budget_and_pair_order_change_nothing(self, g, data):
        # tableaus that end at different steps of one stack retire
        # together and the live ones move; neither the budget nor the order
        # may change a result, also when Bland's rule starts early and so
        # depends on each tableau's own count of degenerate pivots
        u, pairs = _labelled(g), _ordered_pairs(len(g))
        k, d = g.shape
        per_stack = data.draw(st.integers(1, len(pairs)))
        order = data.draw(st.permutations(pairs))
        bland_after = data.draw(st.sampled_from([None, 0, 1, 2]))
        with mock.patch.object(lp_module, "_bland_after", (
                lp_module._bland_after if bland_after is None
                else lambda rows, cols: bland_after)):
            expected = dict(zip(pairs, map(_stacked_fingerprint,
                                           phase1_solutions(u, pairs))))
            budget = per_stack * 8 * (d + 2) * (k + d + 2)
            with mock.patch.object(lp_module, "_STACK_BYTES", budget):
                got = phase1_solutions(u, order)
        assert [_stacked_fingerprint(sol) for sol in got] == [expected[p] for p in order]

    def test_bland_rule_matches(self, monkeypatch):
        # Bland's rule from the first degenerate pivot on: the stack must
        # switch per tableau exactly when solve does
        g = _degenerate_model()
        u, pairs = _labelled(g), _ordered_pairs(10)
        dantzig = [sol.iterations for sol in phase1_solutions(u, pairs)]
        monkeypatch.setattr(lp_module, "_bland_after", lambda rows, cols: 0)
        bland = _assert_matches_solve(g)
        assert [sol.iterations for sol in bland] != dantzig

    def test_bland_counts_move_with_their_tableaus(self, monkeypatch):
        # tableaus that retire early free slots that live ones move into;
        # each must keep its own count of degenerate pivots
        monkeypatch.setattr(lp_module, "_bland_after", lambda rows, cols: 0)
        g = np.random.default_rng(3).standard_normal((8, 3))
        g[5], g[7] = g[2], g[1]
        _assert_matches_solve(g)
        monkeypatch.setattr(lp_module, "_bland_after", lambda rows, cols: 1)
        _assert_matches_solve(_degenerate_model())

    def test_residual_check_is_solves_own(self):
        # phase 1 of (1, 2) ends with a sum of artificials within
        # PHASE1_TOL; solve's residual check on x rejects that vertex, the
        # stack reads no x and keeps "optimal" after the same pivots
        g = np.array([[0.0, 2.0**-23], [2.0**-23, 1.0], [2.0**-23, 2.0**-23]])
        u = _labelled(g)
        ref, rejected = _solve_and_check(coargmax_lp(u, 1, 2))
        assert rejected and ref.status == "indeterminate"
        (sol,) = phase1_solutions(u, [(1, 2)])
        assert (sol.status, sol.iterations) == ("optimal", ref.iterations)
        _assert_matches_solve(g)

    def test_iteration_cap_matches(self, monkeypatch):
        monkeypatch.setattr(lp_module, "_iteration_cap", lambda rows, cols: 3)
        g = np.random.default_rng(13).standard_normal((12, 3))
        stacked = _assert_matches_solve(g)
        assert "indeterminate" in {sol.status for sol in stacked}

    def test_pairs_validated(self, centered):
        u = centered.model.unembeddings
        assert phase1_solutions(u, []) == []
        with pytest.raises(ValueError):
            phase1_solutions(u, [(0, 1), (2, 2)])
        with pytest.raises(IndexError):
            phase1_solutions(u, [(0, 5)])

    @given(arrays(np.float64, st.tuples(st.integers(2, 8), st.integers(1, 4)),
                  elements=st.floats(-10.0, 10.0, allow_nan=False,
                                     allow_infinity=False)))
    @settings(max_examples=40, deadline=None)
    def test_random_models_property(self, g):
        _assert_matches_solve(g)
