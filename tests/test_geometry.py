"""Similarity metrics, tie feasibility (LP and exact oracle), region grids."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from unembed import (
    DimensionMismatchError,
    SoftmaxModel,
    UnembeddingSet,
    ZeroVectorError,
    coargmax_feasible,
    coargmax_oracle_2d,
    coargmax_oracle_2d_pairs,
    cosine,
    decision_regions,
    dot,
    euclidean,
    inflated_bounds,
    nearest_neighbors,
    region_adjacency,
    scale_pair,
    similarity_matrix,
    tie_graph,
    tie_partners,
    translate,
)
from unembed import geometry
from unembed.geometry import (
    _exact_phase1,
    _exact_system,
    _fractions,
    _no_tie_filter,
    _no_tie_fraction,
    _orient2d_signs,
    _tie_filter,
    _tie_fraction,
)
from unembed.lp import LinearProgram, _others, _pair_systems, solve
from oracle_utils import (
    coargmax_bruteforce, cosine_reference, hull_system_reference, phase1_solutions,
)

coord = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


class TestCosine:
    def test_fixture_pair_exact(self, unrestricted):
        u = unrestricted.model.unembeddings
        # dot = 1.0, squared norms = 1.25 each: every step is exact in
        # binary floating point, so demand equality, not closeness
        assert cosine(u.vector(0), u.vector(1)) == 0.8

    def test_matches_high_precision_reference(self, rng):
        for _ in range(50):
            a = rng.uniform(-5, 5, size=4)
            b = rng.uniform(-5, 5, size=4)
            assert cosine(a, b) == pytest.approx(
                cosine_reference(a, b), abs=1e-14
            )

    def test_range_clamped(self):
        a = np.array([1.0, 1e-9])
        assert -1.0 <= cosine(a, 3.0 * a) <= 1.0
        assert -1.0 <= cosine(a, -2.0 * a) <= 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            cosine([0.0, 0.0], [1.0, 0.0])

    def test_antiparallel(self):
        assert cosine([2.0, 0.0], [-3.0, 0.0]) == -1.0

    def test_symmetric(self, unrestricted):
        u = unrestricted.model.unembeddings
        for i in range(u.k):
            for j in range(u.k):
                if i != j:
                    assert cosine(u.vector(i), u.vector(j)) == cosine(
                        u.vector(j), u.vector(i)
                    )

    def test_invariant_under_positive_scaling(self, unrestricted, rng):
        u = unrestricted.model.unembeddings
        for _ in range(25):
            c = float(rng.uniform(0.01, 100.0))
            i, j = rng.choice(u.k, size=2, replace=False)
            a, b = u.vector(int(i)), u.vector(int(j))
            base = cosine(a, b)
            assert abs(cosine(c * a, b) - base) < 1e-12
            assert abs(cosine(a, c * b) - base) < 1e-12


class TestDotAndEuclidean:
    def test_dot_basic(self):
        assert dot([1.0, 2.0], [3.0, -1.0]) == 1.0

    def test_euclidean_self_is_zero(self, unrestricted):
        u = unrestricted.model.unembeddings
        for i in range(u.k):
            assert euclidean(u.vector(i), u.vector(i)) == 0.0

    def test_euclidean_known_value(self):
        assert euclidean([0.0, 0.0], [3.0, 4.0]) == 5.0


class TestSimilarityMatrix:
    @pytest.mark.parametrize("metric", ["cosine", "dot", "euclidean"])
    def test_symmetric_bitwise(self, centered, metric):
        sim = similarity_matrix(centered.model.unembeddings, metric)
        np.testing.assert_array_equal(sim.values, sim.values.T)

    def test_cosine_diagonal_is_one(self, centered):
        sim = similarity_matrix(centered.model.unembeddings, "cosine")
        np.testing.assert_array_equal(np.diag(sim.values), 1.0)

    def test_euclidean_diagonal_is_zero(self, centered):
        sim = similarity_matrix(centered.model.unembeddings, "euclidean")
        np.testing.assert_array_equal(np.diag(sim.values), 0.0)
        assert np.all(sim.values >= 0.0)

    def test_entries_match_pairwise_functions(self, unrestricted):
        u = unrestricted.model.unembeddings
        cos = similarity_matrix(u, "cosine")
        dst = similarity_matrix(u, "euclidean")
        dots = similarity_matrix(u, "dot")
        for i in range(u.k):
            for j in range(u.k):
                if i != j:
                    assert cos.values[i, j] == pytest.approx(
                        cosine(u.vector(i), u.vector(j)), abs=1e-15
                    )
                assert dst.values[i, j] == pytest.approx(
                    euclidean(u.vector(i), u.vector(j)), abs=1e-12
                )
                assert dots.values[i, j] == pytest.approx(
                    dot(u.vector(i), u.vector(j)), abs=1e-15
                )

    def test_unknown_metric_rejected(self, centered):
        with pytest.raises(ValueError):
            similarity_matrix(centered.model.unembeddings, "manhattan")

    def test_mixed_sign_dot_products(self, centered):
        # the off-diagonal dot products of this fixture carry both signs,
        # which is what makes dot similarity uninformative here
        sim = similarity_matrix(centered.model.unembeddings, "dot")
        off = sim.values[~np.eye(5, dtype=bool)]
        assert (off > 0).any() and (off < 0).any()


class TestNearestNeighbors:
    def test_centered_fixture_golden(self, centered):
        # cosine neighbors of label 2 are 3 then 4; its tie partners are
        # {1, 3}, so neighbor rank does not predict tie feasibility
        assert nearest_neighbors(centered.model.unembeddings, 2, "cosine", 2) == [3, 4]

    def test_centered_unit_golden(self, centered_unit):
        assert nearest_neighbors(centered_unit.model.unembeddings, 1, "cosine", 1) == [2]

    def test_euclidean_ordering(self):
        u = UnembeddingSet(
            ("a", "b", "c"), [[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]
        )
        assert nearest_neighbors(u, 0, "euclidean", 2) == [1, 2]

    def test_m_validated(self, centered):
        u = centered.model.unembeddings
        with pytest.raises(ValueError):
            nearest_neighbors(u, 0, "cosine", 0)
        with pytest.raises(ValueError):
            nearest_neighbors(u, 0, "cosine", u.k)

    def test_index_validated(self, centered):
        with pytest.raises(IndexError):
            nearest_neighbors(centered.model.unembeddings, 99)

    def test_cosine_ranking_invariant_under_normalization(
        self, centered, unrestricted
    ):
        from unembed import normalize_rows

        for ex in (centered, unrestricted):
            u = ex.model.unembeddings
            normalized = normalize_rows(u)
            for i in range(u.k):
                assert nearest_neighbors(u, i, "cosine", u.k - 1) == (
                    nearest_neighbors(normalized, i, "cosine", u.k - 1)
                )


class TestCoargmaxFeasible:
    def test_centered_fixture_verdicts(self, centered):
        u = centered.model.unembeddings
        assert coargmax_feasible(u, 2, 1).verdict == "feasible"
        assert coargmax_feasible(u, 2, 3).verdict == "feasible"
        assert coargmax_feasible(u, 2, 4).verdict == "infeasible"
        assert coargmax_feasible(u, 2, 0).verdict == "infeasible"

    def test_symmetric_in_pair_order(self, centered):
        u = centered.model.unembeddings
        for i, j in [(2, 4), (2, 3), (0, 1)]:
            assert coargmax_feasible(u, i, j).verdict == coargmax_feasible(u, j, i).verdict

    def test_witness_scores(self, centered):
        u = centered.model.unembeddings
        rep = coargmax_feasible(u, 2, 3)
        assert rep.witness is not None
        scores = u.vectors @ rep.witness
        assert abs(scores[2] - scores[3]) <= 1e-9 * (1.0 + abs(scores[2]))
        others = np.delete(scores, [2, 3])
        assert scores[2] - others.max() > rep.eps / 2

    def test_margin_reported(self, centered):
        # the witness's unit-box margin on the model divided by 2**1
        # (max |g| = 1.4): above eps, at most the box optimum 0.2 / 2
        rep = coargmax_feasible(centered.model.unembeddings, 2, 3)
        assert rep.eps < rep.margin <= 0.1 + 1e-12

    # (workload, seed, model index, (d, k), pair): the perfbench README's
    # "known failure" reproducers, where the old margin LP failed in one
    # order
    REPRODUCERS = [
        ("ties-dense", 1355062222, 9, (16, 22), (6, 1), "feasible"),
        ("ties-dense", 1207187955, 1, (8, 24), (13, 18), "feasible"),
        ("ties-hull", 1069673014, 0, (2, 32), (0, 9), "infeasible"),
        ("ties-hull", 1097127993, 10, (3, 30), (25, 12), "infeasible"),
    ]

    @pytest.mark.parametrize("case", REPRODUCERS, ids=lambda c: f"{c[0]}-{c[1]}")
    def test_perfbench_reproducers_both_orders(self, case):
        _, seed, n, (d, k), (i, j), verdict = case
        g = np.random.default_rng([seed, n]).standard_normal((k, d))
        u = UnembeddingSet(tuple(f"l{m}" for m in range(k)), g)
        forward, backward = coargmax_feasible(u, i, j), coargmax_feasible(u, j, i)
        assert forward.verdict == backward.verdict == verdict
        assert (_exact_phase1(g, min(i, j), max(i, j)) is None) == (
            verdict == "infeasible")

    @pytest.mark.parametrize("c", [2.0 ** -1000, 1e-300, 1e-8, 1e300])
    def test_centered_partners_under_scale_pair(self, centered, c):
        scaled = scale_pair(centered.model, c).unembeddings
        assert tie_partners(scaled, 2) == {1, 3}

    @given(arrays(np.float64, st.tuples(st.integers(2, 7), st.integers(1, 4)),
                  elements=coord),
           st.integers(-1000, 1000))
    @example(np.array([[2.0, 0.0, 0.0], [0.0, 2.22507386e-309, 0.0],
                       [0.0, 0.0, 0.0]]), 1)  # the rescale rounds a subnormal
    @settings(max_examples=60, deadline=None)
    def test_tie_graph_under_power_of_two_scale_pair(self, g, p):
        # scale_pair by 2**p is exact while np.ldexp round-trips the
        # vectors, and the LP's power-of-two rescale then sees the same
        # system: every report must be identical, bit for bit
        assume(np.array_equal(np.ldexp(np.ldexp(g, p), -p), g))
        model = SoftmaxModel(_labelled(g))
        graph = tie_graph(model.unembeddings)
        scaled = tie_graph(scale_pair(model, 2.0 ** p).unembeddings)

        def fields(rep):
            witness = None if rep.witness is None else rep.witness.tobytes()
            return rep.verdict, repr(rep.margin), witness, rep.proof, rep.lp_status

        assert scaled.keys() == graph.keys()
        for pair, rep in graph.items():
            assert fields(scaled[pair]) == fields(rep), pair

    @given(arrays(np.int64, st.tuples(st.integers(2, 7), st.integers(1, 4)),
                  elements=st.integers(-64, 64)),
           st.integers(0, 8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_tie_graph_under_translation(self, counts, p, data):
        # dyadic labels and a dyadic v, so g + v is exact: the translated
        # model ties exactly the same pairs, while its float phase 1, and
        # so each witness and margin, may differ
        g = np.ldexp(counts.astype(np.float64), -4)
        steps = data.draw(arrays(np.int64, g.shape[1], elements=st.integers(-64, 64)))
        v = np.ldexp(steps.astype(np.float64), -p)
        u = _labelled(g)
        moved = translate(u, v)
        assert np.array_equal(moved.vectors - v, g)
        graph, shifted = tie_graph(u), tie_graph(moved)
        assert shifted.keys() == graph.keys()
        for pair, rep in graph.items():
            assert ((shifted[pair].verdict == "infeasible")
                    == (rep.verdict == "infeasible")), pair
            assert rep.proof and shifted[pair].proof, pair

    def test_duplicate_vectors_match_exact_fallback(self):
        # g_5 = g_2 and g_7 = g_1: the pair's line is undefined, so the
        # projection is skipped; each verdict must match exact phase 1
        g = np.random.default_rng(3).standard_normal((8, 3))
        g[5], g[7] = g[2], g[1]
        u = UnembeddingSet(tuple(f"l{m}" for m in range(8)), g)
        graph = tie_graph(u)
        for (i, j), rep in graph.items():
            assert rep.verdict in ("feasible", "degenerate", "infeasible")
            can_tie = _exact_phase1(g, i, j) is not None
            assert (rep.verdict != "infeasible") == can_tie, (i, j)
        assert graph[2, 5].verdict == "feasible"  # a hull vertex, twice
        assert graph[2, 4].verdict == graph[4, 5].verdict

    def test_low_rank_model_proven(self):
        # twelve labels in a 3-dimensional coordinate subspace of R^8:
        # redundant rows are dropped and the certificates still prove
        g = np.zeros((12, 8))
        g[:, :3] = np.random.default_rng(0).standard_normal((12, 3))
        u = UnembeddingSet(tuple(f"l{m}" for m in range(12)), g)
        for (i, j), rep in tie_graph(u).items():
            assert rep.verdict in ("feasible", "infeasible")
            assert (_exact_phase1(g, i, j) is None) == (rep.verdict == "infeasible")

    @given(st.integers(2, 8), st.integers(3, 7), st.data())
    @settings(max_examples=60, deadline=None)
    def test_pair_order_symmetry(self, d, k, data):
        g = data.draw(arrays(np.float64, (k, d), elements=coord))
        i = data.draw(st.integers(0, k - 1))
        j = data.draw(st.integers(0, k - 1))
        assume(i != j)
        u = UnembeddingSet(tuple(f"l{n}" for n in range(k)), g)
        rep = coargmax_feasible(u, i, j)
        assert rep.verdict == coargmax_feasible(u, j, i).verdict
        # swapping the two rows hands the LP the pair in the other order
        swapped = g.copy()
        swapped[[i, j]] = g[[j, i]]
        other = coargmax_feasible(
            UnembeddingSet(u.labels, swapped), i, j
        )
        assert (rep.verdict == "infeasible") == (other.verdict == "infeasible")
        assert rep.verdict in ("feasible", "degenerate", "infeasible")

    def test_same_index_rejected(self, centered):
        with pytest.raises(ValueError):
            coargmax_feasible(centered.model.unembeddings, 1, 1)

    def test_two_label_model(self):
        u = UnembeddingSet(("a", "b"), [[1.0, 0.0], [0.0, 1.0]])
        rep = coargmax_feasible(u, 0, 1)
        assert rep.verdict == "feasible"

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -float("inf"),
                                     -1.0, -1e-300])
    def test_bad_eps_rejected(self, centered, eps):
        u = centered.model.unembeddings
        with pytest.raises(ValueError, match="eps"):
            coargmax_feasible(u, 2, 3, eps=eps)
        with pytest.raises(ValueError, match="eps"):
            tie_graph(u, eps)
        with pytest.raises(ValueError, match="eps"):
            tie_partners(u, 2, eps)

    def test_zero_eps_accepted(self, centered):
        u = centered.model.unembeddings
        assert coargmax_feasible(u, 2, 3, eps=0.0).verdict == "feasible"
        assert tie_partners(u, 2, 0.0) == {1, 3}


class TestCertificateChecks:
    """Each check must reject a certificate that does not hold exactly."""

    def test_reject_false_certificates(self, centered, unrestricted):
        rng = np.random.default_rng(1)
        for ex in (centered, unrestricted):
            u = ex.model.unembeddings
            g, k = u.vectors, u.k
            for (i, j), rep in tie_graph(u).items():
                if rep.verdict == "infeasible":
                    fs = rng.standard_normal((20, 2))
                    assert not _tie_filter(g, np.full(20, i), np.full(20, j), fs).any()
                    for f in fs:
                        assert not _tie_fraction(g, i, j, f)
                else:  # no weights exist, so no basis may pass
                    for basis in itertools.combinations(range(k - 1), u.d + 1):
                        basis = np.array(basis)
                        assert not _no_tie_filter(g, np.array([i]), np.array([j]),
                                                  basis[None])[0]
                        assert not _no_tie_fraction(g, i, j, basis)

    def test_phase1_near_miss_is_rejected(self):
        # phase 1 calls the 1.25e-10 tie of pair (2, 4) infeasible within
        # its tolerance; its basis must fail both exact checks
        u = UnembeddingSet(tuple("abcde"), [[0.0, -1.0], [0.0, -2.0],
                                             [2.0, 0.0], [1.0, 0.0],
                                             [0.0, 1e-9]])
        (sol,) = phase1_solutions(u, [(2, 4)])
        assert sol.status == "optimal"
        g = u.vectors / 4.0  # the LP's power-of-two rescale
        assert not _no_tie_filter(g, np.array([2]), np.array([4]), sol.basis[None])[0]
        assert not _no_tie_fraction(g, 2, 4, sol.basis)
        rep = coargmax_feasible(u, 2, 4)
        assert (rep.verdict, rep.proof) == ("degenerate", "exact")

    def test_wrong_bases_rejected(self, monkeypatch):
        # l2 and l3 mix onto the line through l0 and l1 (the y axis), so
        # the pair cannot tie.  Columns 0-3 are l2-l5, column 4 is s.  A
        # basis that holds an artificial (-1) or both halves of s, or one
        # whose exact weights are negative (3 on l4, -2 on l5), proves
        # nothing, and coargmax_feasible still proves the verdict
        u = _labelled([[0.0, 1.0], [0.0, -1.0], [1.0, 0.0], [-1.0, 0.0],
                       [2.0, 0.0], [3.0, 0.0]])
        g = u.vectors / 4.0  # the LP's power-of-two rescale
        i, j = np.array([0]), np.array([1])
        assert _no_tie_filter(g, i, j, np.array([[0, 1, 4]])).tolist() == [True]
        assert coargmax_feasible(u, 0, 1).proof == "float"
        phase1 = geometry._coargmax_phase1
        for wrong in ([0, -1, 4], [0, 4, 4], [2, 3, 4]):
            basis = np.array([wrong])
            assert not _no_tie_filter(g, i, j, basis)[0], wrong
            assert not _no_tie_fraction(g, 0, 1, basis[0]), wrong
            monkeypatch.setattr(geometry, "_coargmax_phase1",
                                lambda g, pairs, basis=basis: phase1(g, pairs)[:3] + (basis,))
            rep = coargmax_feasible(u, 0, 1)
            assert (rep.verdict, rep.proof) == ("infeasible", "exact"), wrong

    def test_collinear_direction_is_not_a_witness(self):
        g = np.array([[0.0, 0.0], [5.0, 5.0], [4.0097, 4.0097]])
        f = np.array([1.0, -1.0])  # ties all three labels at 0
        assert not _tie_filter(g, np.array([0]), np.array([1]), f[None])[0]
        assert not _tie_fraction(g, 0, 1, f)

    def test_tiny_pair_next_to_unit_labels(self):
        # u = g_3 - g_2 is about 1e-300: u.u underflows unless the norm
        # is scaled, and the pair must not be called a tie
        g = np.array([[1.29432239, -2.1742207], [-1.1311862, -0.498323859],
                      [9.20364087e-301, 1.2284717e-300],
                      [-3.02957756e-301, 2.33874758e-301]])
        u = UnembeddingSet(tuple("abcd"), g)
        assert coargmax_feasible(u, 2, 3).verdict == "infeasible"
        assert coargmax_oracle_2d(u, 2, 3) is False

    def test_absorbed_difference_checked_exactly(self):
        # g_0 - g_2 rounds g_2 (1e-151) away; the exact check must form
        # that difference in Fractions, and the pair can tie
        g = np.array([[1.10667987, 1.86090631], [0.531453546, -1.04510288],
                      [-3.51731766e-151, 3.9515675e-151],
                      [-2.69873719e-301, -2.05096127e-302]])
        u = UnembeddingSet(tuple("abcd"), g)
        assert coargmax_feasible(u, 0, 2).verdict != "infeasible"
        assert coargmax_oracle_2d(u, 0, 2) is True

    def test_mixed_magnitudes_match_exact_phase1(self):
        rng = np.random.default_rng(4)
        for t in range(40):
            d, k = int(rng.integers(2, 4)), int(rng.integers(3, 7))
            scale = 10.0 ** rng.choice([-300, -150, 0, 150, 300], size=(k, 1))
            g = rng.standard_normal((k, d)) * scale
            if t % 3 == 0:
                g[0, 1] = 5e-324  # the power-of-two rescale rounds it away
            u = UnembeddingSet(tuple(f"l{m}" for m in range(k)), g)
            for (i, j), rep in tie_graph(u).items():
                can_tie = _exact_phase1(g, i, j) is not None
                assert (rep.verdict != "infeasible") == can_tie, (t, i, j)
                if d == 2:
                    assert coargmax_oracle_2d(u, i, j) == can_tie, (t, i, j)

    def test_orientation_signs_exact(self):
        # points rounded onto (or next to) the line through a and c
        from fractions import Fraction

        rng = np.random.default_rng(2)
        for _ in range(200):
            a, c = rng.uniform(-5, 5, size=(2, 2))
            t = rng.uniform(-2, 3, size=8)
            b = a + t[:, None] * (c - a)
            b[::2] = np.nextafter(b[::2], np.inf)
            signs = _orient2d_signs(a, b, c)
            fa, fc = [Fraction(v) for v in a], [Fraction(v) for v in c]
            for row, sign in zip(b, signs):
                fb = [Fraction(v) for v in row]
                exact = ((fa[0] - fc[0]) * (fb[1] - fc[1])
                         - (fa[1] - fc[1]) * (fb[0] - fc[0]))
                assert sign == (exact > 0) - (exact < 0)


class TestExactSystem:
    """The exact fallback's system is lp._pair_systems' system in Fractions,
    with s split into s+ = (g_i - g_j, 0) and s- = -s+."""

    @given(st.integers(3, 8), st.integers(1, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_pair_systems(self, k, d, data):
        # dyadic entries, so every float g_i - g_j is exact
        cells = st.integers(-64, 64).map(lambda n: n / 16.0)
        g = data.draw(arrays(np.float64, (k, d), elements=cells))
        subsets = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        for pairs in ([(i, j) for i in range(k) for j in range(k) if i != j],
                      [(i, i) for i in range(k)]):
            a_eq, b_eq = _pair_systems(g, *np.array(pairs).T)
            for a, b, (i, j) in zip(a_eq, b_eq, pairs):
                others = _others(k, i, j)
                keep = np.flatnonzero(subsets.random(len(others)) < 0.5)
                for labels, at in ((None, range(len(others))), (others[keep], keep)):
                    cols, rhs = _exact_system(g, i, j, labels)
                    assert cols[:-1] == [_fractions(a[:, c]) for c in [*at, -1]]
                    assert cols[-1] == [-v for v in cols[-2]]
                    assert rhs == _fractions(b)


class TestCoargmaxOracle2d:
    def test_fixture_goldens(self, centered):
        u = centered.model.unembeddings
        assert coargmax_oracle_2d(u, 2, 1) is True
        assert coargmax_oracle_2d(u, 2, 3) is True
        assert coargmax_oracle_2d(u, 2, 4) is False
        assert coargmax_oracle_2d(u, 2, 0) is False

    # the other labels g_k - g_0, and whether the equal pair (0, 1) ties
    EQUAL_PAIR_CASES = [
        ([[0.0, 1.0]], True),
        ([[1.0, 0.0], [2.0, 0.0]], True),  # one ray
        ([[1.0, 0.0], [-1.0, 0.0]], False),  # opposite rays
        ([[1.0, 0.0], [0.0, 1.0], [-1.0, 1e-300]], True),  # just under pi
        ([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], False),  # exactly pi
        ([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], False),  # around g_0
        ([[1.0, 0.0], [0.0, 0.0]], False),  # a third copy of g_0
    ]

    def test_equal_vectors_decided(self):
        # g_0 = g_1: any f may do, so the pair ties iff every other
        # g_k - g_0 is nonzero and in one open half-plane
        for rest, ties in self.EQUAL_PAIR_CASES:
            g = np.array([[0.0, 0.0], [0.0, 0.0]] + rest)
            assert coargmax_oracle_2d(_labelled(g), 0, 1) is ties, rest
            assert (_exact_phase1(g, 0, 1) is not None) == ties, rest

    def test_equal_vectors_match_exact_phase1(self):
        # small integers make duplicates and collinear rays common
        rng = np.random.default_rng(6)
        for _ in range(150):
            k = int(rng.integers(3, 7))
            g = rng.integers(-2, 3, size=(k, 2)).astype(float)
            g[1] = g[0]
            assert coargmax_oracle_2d(_labelled(g), 0, 1) == (
                _exact_phase1(g, 0, 1) is not None), g

    def test_wrong_dimension_rejected(self):
        u = UnembeddingSet(("a", "b"), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(DimensionMismatchError):
            coargmax_oracle_2d(u, 0, 1)

    def test_two_label_model_true(self):
        u = UnembeddingSet(("a", "b"), [[1.0, 0.0], [0.0, 1.0]])
        assert coargmax_oracle_2d(u, 0, 1) is True

    def test_collinear_labels_exact(self):
        # g_2 lies exactly on the segment g_0 g_1; a plain float dot
        # product puts it 8.9e-16 off the line
        u = UnembeddingSet(("a", "b", "c"),
                           [[0.0, 0.0], [5.0, 5.0], [4.0097, 4.0097]])
        assert coargmax_oracle_2d(u, 0, 1) is False
        assert coargmax_feasible(u, 0, 1).verdict == "infeasible"

    def test_agrees_with_bruteforce_scan(self, centered, unrestricted):
        for ex in (centered, unrestricted):
            u = ex.model.unembeddings
            for i in range(u.k):
                for j in range(i + 1, u.k):
                    found = coargmax_bruteforce(u.vectors, i, j)
                    if found is not None:
                        assert coargmax_oracle_2d(u, i, j) is True

    @given(arrays(np.float64, st.tuples(st.integers(3, 7), st.just(2)),
                  elements=coord),
           st.integers(0, 2**32 - 1))
    @example(np.array([[0.0, 0.0], [5.0, 5.0], [4.0097, 4.0097]]), 0)
    @example(np.array([[1.0, 2.0], [1.0, 2.0], [0.0, -1.0], [3.0, 1.0]]), 1)
    @settings(max_examples=40, deadline=None)
    def test_pairs_match_exact_phase1(self, g, seed):
        # one row is put on the line through two others, or one float
        # step off it, so the orientation table has entries the float
        # bound cannot decide
        rng = np.random.default_rng(seed)
        k = len(g)
        a, b, c = rng.choice(k, 3, replace=False)
        g = g.copy()
        if seed % 3:
            g[c] = g[a] + rng.uniform(-1.0, 2.0) * (g[b] - g[a])
        if seed % 3 == 2:
            g[c] = np.nextafter(g[c], rng.choice([-np.inf, np.inf], 2))
        u = _labelled(g)
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
        ties = coargmax_oracle_2d_pairs(u, pairs)
        assert ties.dtype == bool and ties.shape == (len(pairs),)
        for (i, j), got in zip(pairs, ties.tolist()):
            assert got == (_exact_phase1(g, i, j) is not None), (i, j)
            assert coargmax_oracle_2d(u, j, i) is got

    def test_pairs_validated(self):
        u = _labelled([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert coargmax_oracle_2d_pairs(u, []).shape == (0,)
        with pytest.raises(ValueError):
            coargmax_oracle_2d_pairs(u, [(0, 1), (2, 2)])
        with pytest.raises(IndexError):
            coargmax_oracle_2d_pairs(u, [(0, 3)])
        with pytest.raises(DimensionMismatchError):
            coargmax_oracle_2d_pairs(_labelled(np.eye(3)), [(0, 1)])


class TestLpOracleAgreement:
    SEPARATION = 1e-3

    def _random_instance(self, rng):
        k = int(rng.integers(3, 13))
        while True:
            g = rng.uniform(-5.0, 5.0, size=(k, 2))
            diffs = g[:, None, :] - g[None, :, :]
            dist = np.sqrt((diffs**2).sum(-1))
            if dist[~np.eye(k, dtype=bool)].min() >= self.SEPARATION:
                return UnembeddingSet(tuple(f"l{n}" for n in range(k)), g)

    def test_random_sweep(self, rng):
        degenerate = 0
        pairs = 0
        for _ in range(200):
            u = self._random_instance(rng)
            for i in range(u.k):
                for j in range(i + 1, u.k):
                    pairs += 1
                    rep = coargmax_feasible(u, i, j)
                    assert rep.verdict in ("feasible", "degenerate", "infeasible")
                    if rep.verdict == "degenerate":
                        degenerate += 1
                        continue
                    assert rep.feasible == coargmax_oracle_2d(u, i, j), (
                        f"disagreement at pair ({i}, {j}) of {u.vectors!r}"
                    )
        assert degenerate <= max(1, pairs // 100)

    @staticmethod
    def _true_box_margin(g, i, j):
        """Exact best margin of the tie LP over the [-1, 1]^2 box, from
        the tie-line parametrization (independent of the solver)."""
        diff = g[i] - g[j]
        w = np.array([-diff[1], diff[0]])
        w = w / np.abs(w).max()  # largest box-feasible point on the line
        others = [m for m in range(len(g)) if m not in (i, j)]
        best = -np.inf
        for direction in (w, -w):
            margins = (g[i] - g[others]) @ direction
            best = max(best, margins.min() if others else np.inf)
        return best

    @given(st.lists(st.tuples(coord, coord), min_size=3, max_size=6),
           st.integers(0, 5), st.integers(0, 5))
    @example([(0.0, 0.0), (5.0, 5.0), (4.0097, 4.0097)], 0, 1)
    @settings(max_examples=150, deadline=None)
    def test_agreement_property(self, rows, i, j):
        g = np.array(rows)
        diffs = g[:, None, :] - g[None, :, :]
        dist = np.sqrt((diffs**2).sum(-1))
        k = len(rows)
        assume(dist[~np.eye(k, dtype=bool)].min() >= 1e-2)
        u = UnembeddingSet(tuple(f"l{n}" for n in range(k)), g)
        i, j = i % k, j % k
        assume(i != j)
        # margins inside (0, eps] sit below the solver's noise floor: the
        # pair can tie mathematically but not by a float-certifiable
        # amount, so no fixed-precision LP can be held to the answer
        true_margin = self._true_box_margin(g, i, j)
        assume(true_margin <= 0.0 or true_margin > 1e-7)
        rep = coargmax_feasible(u, i, j)
        assume(rep.verdict in ("feasible", "infeasible"))
        assert rep.feasible == coargmax_oracle_2d(u, i, j)


class TestTiePartners:
    def test_unrestricted_golden(self, unrestricted):
        assert tie_partners(unrestricted.model.unembeddings, 0) == {1, 4}

    def test_centered_golden(self, centered):
        assert tie_partners(centered.model.unembeddings, 2) == {1, 3}

    def test_centered_unit_goldens(self, centered_unit):
        u = centered_unit.model.unembeddings
        assert 1 in tie_partners(u, 0)
        assert 3 not in tie_partners(u, 1)

    def test_index_validated(self, centered):
        with pytest.raises(IndexError):
            tie_partners(centered.model.unembeddings, 99)

    def test_symmetry(self, centered):
        u = centered.model.unembeddings
        for i in range(u.k):
            for j in tie_partners(u, i):
                assert i in tie_partners(u, j)

    def test_tie_graph_decides_each_pair_once(self, centered):
        u = centered.model.unembeddings
        graph = tie_graph(u)
        assert list(graph) == [(i, j) for i in range(5) for j in range(i + 1, 5)]
        assert list(tie_graph(u, rows=[2])) == [(0, 2), (1, 2), (2, 3), (2, 4)]
        with pytest.raises(IndexError):
            tie_graph(u, rows=[5])


def _labelled(g) -> UnembeddingSet:
    g = np.asarray(g, dtype=np.float64)
    return UnembeddingSet(tuple(f"l{m}" for m in range(len(g))), g)


def _same_report(rep, ref) -> bool:
    witness_equal = (rep.witness is None and ref.witness is None) or (
        rep.witness is not None and ref.witness is not None
        and np.array_equal(rep.witness, ref.witness))
    return ((rep.i, rep.j, rep.verdict, rep.margin) == (ref.i, ref.j, ref.verdict, ref.margin)
            and witness_equal)


def _counting_pair_decider(monkeypatch):
    """Route the pair LPs of geometry through a counter; returns the list
    of calls, each the list of pairs it decided (tie_graph makes one)."""
    calls = []
    phase1 = geometry._coargmax_phase1

    def counted(g, pairs):
        calls.append(list(pairs))
        return phase1(g, pairs)

    monkeypatch.setattr(geometry, "_coargmax_phase1", counted)
    return calls


class TestHullPruning:
    """tie_graph settles every pair of a proven interior label from one
    certificate; each report must equal a direct coargmax_feasible."""

    @staticmethod
    def _assert_matches_pairwise(u, rows=None):
        graph = tie_graph(u, rows=rows)
        for (i, j), rep in graph.items():
            assert _same_report(rep, coargmax_feasible(u, i, j)), (i, j)
            assert rep.proof in ("float", "fraction", "exact")
        return graph

    @pytest.mark.parametrize("d, k", [(2, 32), (3, 30)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_gaussian_models(self, d, k, seed, monkeypatch):
        u = _labelled(np.random.default_rng([seed, d]).standard_normal((k, d)))
        calls = _counting_pair_decider(monkeypatch)
        graph = self._assert_matches_pairwise(u)
        assert len(calls[0]) < len(graph) / 2  # most labels are interior

    def test_every_label_a_clear_vertex(self, monkeypatch):
        # a regular pentagon: the float pre-pass finds every vertex, so no
        # hull LP is built or solved
        angles = 2.0 * np.pi * np.arange(5) / 5.0
        u = _labelled(np.column_stack([np.cos(angles), np.sin(angles)]))
        assert geometry._clear_vertices(u.vectors).all()
        solved = []
        monkeypatch.setattr(geometry, "solve",
                            lambda lp: solved.append(lp) or solve(lp))
        graph = self._assert_matches_pairwise(u)
        assert solved == [] and len(graph) == 10

    def test_hull_proofs_settle_every_pair(self, monkeypatch):
        # l4 is strictly inside: its proof settles all of its pairs, so the
        # stacked phase 1 gets no pair at all
        u = _labelled([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [2.0, 0.0], [1.0, 1.0]])
        calls = _counting_pair_decider(monkeypatch)
        graph = self._assert_matches_pairwise(u, rows=[4])
        assert calls[0] == []  # tie_graph's call; the rest are pairwise
        assert [rep.verdict for rep in graph.values()] == ["infeasible"] * 4

    def test_interior_label_on_an_edge(self):
        # l3 is the midpoint of hull edge l0 l1, l4 is strictly inside:
        # l0 and l1 cannot tie, and neither l3 nor l4 ties with anyone
        u = _labelled([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [2.0, 0.0], [1.0, 1.0]])
        graph = self._assert_matches_pairwise(u)
        assert {p for p, rep in graph.items() if rep.verdict != "infeasible"} == {
            (0, 2), (1, 2)}

    def test_barely_outside_label_is_not_pruned(self):
        # l4 = (1, 1e-9) is a hull vertex, but phase 1 of its hull LP ends
        # feasible within tolerance: the weights must fail the proof, so
        # the degenerate ties (0, 4) and (2, 4) survive
        u = _labelled([[0.0, -1.0], [0.0, -2.0], [2.0, 0.0], [1.0, 0.0],
                       [1.0, 1e-9]])
        a_eq, b_eq = hull_system_reference(geometry._rescaled(u.vectors)[0], 4)
        assert solve(LinearProgram(a_eq, b_eq, np.zeros(4, dtype=bool))).status == "optimal"
        graph = self._assert_matches_pairwise(u)
        assert graph[0, 4].verdict == graph[2, 4].verdict == "degenerate"

    def test_duplicates(self):
        # a duplicated vertex (2, 5), a duplicated interior label (1, 7)
        g = np.random.default_rng(3).standard_normal((8, 3))
        g[5], g[7] = g[2], g[1]
        self._assert_matches_pairwise(_labelled(g))
        g2 = np.random.default_rng(4).standard_normal((9, 2))
        g2[[3, 6]] = g2[0]
        self._assert_matches_pairwise(_labelled(g2))

    @pytest.mark.parametrize("g", [
        [[1.0, 0.0], [0.0, 1.0]],
        [[1.0, 2.0], [1.0, 2.0]],
        [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]],
        [[1.0, 2.0], [1.0, 2.0], [0.0, -1.0]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    ])
    def test_two_and_three_labels(self, g):
        self._assert_matches_pairwise(_labelled(g))

    def test_rows_subset(self):
        u = _labelled(np.random.default_rng(7).standard_normal((16, 2)))
        full = tie_graph(u)
        for i in range(u.k):
            graph = self._assert_matches_pairwise(u, rows=[i])
            assert list(graph) == [p for p in full if i in p]

    def test_unproven_inside_certificates_prune_nothing(self, monkeypatch):
        u = _labelled(np.random.default_rng(5).standard_normal((20, 2)))
        expected = tie_graph(u)
        # the inside certificate is the pair system with i = j; fail only it
        # (the filter takes arrays of pairs, the Fraction check one pair)
        for name in ("_no_tie_filter", "_no_tie_fraction"):
            check = getattr(geometry, name)
            monkeypatch.setattr(
                geometry, name,
                lambda g, i, j, x, check=check: (
                    np.not_equal(i, j) & check(g, i, j, x)))
        calls = _counting_pair_decider(monkeypatch)
        graph = tie_graph(u)
        assert calls == [list(expected)]  # every pair LP-decided
        assert all(_same_report(graph[p], rep) for p, rep in expected.items())

    @given(arrays(np.float64, st.tuples(st.integers(2, 7), st.integers(2, 3)),
                  elements=coord),
           st.integers(0, 2**32 - 1))
    @example(np.array([[0.0, 0.0], [1.0, 2.0], [1.0, 2.0], [3.0, 0.0],
                       [1.0, 2.0], [1.0, 0.5]]), 11)  # three equal rows
    @example(np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [2.0, 0.0],
                       [1.0, 1.0]]), 3)  # l3: midpoint of the edge l0 l1
    @settings(max_examples=60, deadline=None)
    def test_label_permutation(self, g, seed):
        # relabelling the model permutes its tie graph: row m of the
        # permuted model is row perm[m] of the original
        k = g.shape[0]
        perm = np.random.default_rng(seed).permutation(k)
        graph = tie_graph(_labelled(g))
        permuted = tie_graph(_labelled(g[perm]))
        for (a, b), rep in permuted.items():
            i, j = sorted((int(perm[a]), int(perm[b])))
            ref = graph[i, j]
            assert (rep.verdict == "infeasible") == (ref.verdict == "infeasible"), (a, b)
            if rep.verdict == "infeasible":
                assert (rep.margin, rep.witness) == (0.0, None)


def _low_rank_model():
    g = np.zeros((12, 8))
    g[:, :3] = np.random.default_rng(0).standard_normal((12, 3))
    return g


def _mixed_magnitudes():
    g = np.random.default_rng(4).standard_normal((6, 2))
    return g * np.array([[1e-300], [1e300], [1.0], [1e-300], [1e300], [1.0]])


def _gauss_d16_with_interior_labels():
    # nearly every pair of a Gaussian model in R^16 can tie; two random
    # mixes of 17 of its labels cannot tie with anyone
    rng = np.random.default_rng([1, 16])
    g = rng.standard_normal((20, 16))
    return np.vstack([g, rng.dirichlet(np.ones(17), size=2) @ g[:17]])


def _duplicates():
    g = np.random.default_rng(3).standard_normal((8, 3))
    g[5], g[7] = g[2], g[1]
    return g


class TestBatchedCertificates:
    """The float filters prove a whole batch of certificates at once; a
    proof must hold exactly, and each row must get what a batch of one
    gets."""

    MODELS = {
        "gauss-d2": lambda: np.random.default_rng([1, 2]).standard_normal((12, 2)),
        "gauss-d3": lambda: np.random.default_rng([1, 3]).standard_normal((10, 3)),
        "gauss-d8": lambda: np.random.default_rng([1, 8]).standard_normal((24, 8)),
        "gauss-d16": _gauss_d16_with_interior_labels,
        "mixed-magnitudes": _mixed_magnitudes,
        "collinear": lambda: np.array([[0.0, 0.0], [5.0, 5.0], [4.0097, 4.0097]]),
        "low-rank": _low_rank_model,
        "duplicates": _duplicates,
        "k2": lambda: np.array([[1.0, 0.0], [0.0, 1.0]]),
        "k3": lambda: np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    }

    @staticmethod
    def _batch(g):
        """The rescaled model and every pair with its float phase 1,
        split into can-tie (duals) and cannot-tie (weights) batches."""
        u = _labelled(g)
        scaled = geometry._rescaled(g)[0]
        pairs = [(i, j) for i in range(len(g)) for j in range(i + 1, len(g))]
        sols = phase1_solutions(u, pairs)
        tie = [(p, s) for p, s in zip(pairs, sols) if s.status == "infeasible"]
        no_tie = [(p, s) for p, s in zip(pairs, sols) if s.status == "optimal"]
        return u, scaled, tie, no_tie

    @pytest.mark.parametrize("name", MODELS)
    def test_filters_agree_with_exact_checks(self, name):
        g = self.MODELS[name]()
        u, scaled, tie, no_tie = self._batch(g)
        small = g.shape[1] <= 3  # the full exact phase 1 is slow beyond
        step = 1 if g.shape[1] <= 8 else 7  # so are Fractions in R^16
        if tie:
            i, j = np.array([p for p, _ in tie]).T
            f = geometry._unit_box(np.array([s.duals[: g.shape[1]] for _, s in tie]))
            proven = _tie_filter(scaled, i, j, f)
            for r, ok in enumerate(proven.tolist()):
                one = _tie_filter(scaled, i[r:r + 1], j[r:r + 1], f[r:r + 1])
                assert one.tolist() == [ok], (name, r)
                if ok and r % step == 0:
                    assert _tie_fraction(scaled, i[r], j[r], f[r]), (name, r)
                    if small:
                        assert _exact_phase1(scaled, i[r], j[r]) is not None
            # the witnesses of a batch are those of a batch of one, bit for bit
            w, margin = geometry._witness(scaled, i, j, f)
            for r in range(len(i)):
                w1, m1 = geometry._witness(scaled, i[r:r + 1], j[r:r + 1], f[r:r + 1])
                assert np.array_equal(w[r], w1[0]) and margin[r] == m1[0]
        if no_tie:
            i, j = np.array([p for p, _ in no_tie]).T
            basis = np.array([s.basis for _, s in no_tie])
            proven = _no_tie_filter(scaled, i, j, basis)
            for r, ok in enumerate(proven.tolist()):
                one = _no_tie_filter(scaled, i[r:r + 1], j[r:r + 1], basis[r:r + 1])
                assert one.tolist() == [ok], (name, r)
                if ok and r % step == 0:
                    assert _no_tie_fraction(scaled, i[r], j[r], basis[r]), (name, r)
                    if small:
                        assert _exact_phase1(scaled, i[r], j[r]) is None
        # one batch of reports of both statuses against batches of one
        pairs = [p for p, _ in tie + no_tie]
        exact_scale = geometry._rescaled(g)[1]
        status, _, duals, basis = geometry._coargmax_phase1(scaled, pairs)
        reports = geometry._reports(u, scaled, exact_scale, pairs, 1e-7,
                                    status, duals, basis)
        for r, (p, rep) in enumerate(zip(pairs, reports)):
            (one,) = geometry._reports(u, scaled, exact_scale, [p], 1e-7, status[r:r + 1],
                                       duals[r:r + 1], basis[r:r + 1])
            assert _same_report(rep, one) and rep.proof == one.proof, (name, p)
            assert _same_report(rep, coargmax_feasible(u, *p)), (name, p)

    @pytest.mark.parametrize("name", ["gauss-d2", "gauss-d3", "gauss-d8", "gauss-d16"])
    def test_gaussian_certificates_proven_in_floats(self, name):
        g = self.MODELS[name]()
        _, scaled, tie, no_tie = self._batch(g)
        assert tie and no_tie
        i, j = np.array([p for p, _ in tie]).T
        f = geometry._unit_box(np.array([s.duals[: g.shape[1]] for _, s in tie]))
        assert _tie_filter(scaled, i, j, f).all()
        i, j = np.array([p for p, _ in no_tie]).T
        assert _no_tie_filter(scaled, i, j, np.array([s.basis for _, s in no_tie])).all()

    def test_tie_filter_threshold_is_twice_the_budget(self):
        # f = (1, 0) ties g_0 and g_1 exactly and beats g_2 = (1 - t, 0)
        # by t; the stated budget for g_2 is gamma(2) (2 + t), so the
        # filter must reject t = 6u and accept t = 12u (u = 2**-53)
        u = 2.0 ** -53
        f = np.array([[1.0, 0.0]])
        for t, proven in ((6 * u, False), (12 * u, True)):
            g = np.array([[1.0, 0.0], [1.0, 1.0], [1.0 - t, 0.0]])
            assert _tie_filter(g, np.array([0]), np.array([1]), f).tolist() == [proven]
            assert _tie_fraction(g, 0, 1, f[0])

    def test_no_tie_filter_threshold(self):
        # g_2 = (1, 1) and g_3 = (-1, -1) mix onto the line through
        # g_0 = (0, y) and g_1 = (1, y), y = 1 - 2**-p, with weight
        # 2**-(p + 1) on g_3 (and s = y).  Every entry is dyadic and the
        # inverse is exact; the stated bound on the weights' error is about
        # 4.2e-15, so the filter proves them up to p = 46 (weight 7.1e-15)
        # and not from p = 47 (3.6e-15); the exact check proves them all
        basis = np.array([[0, 1, 2]])  # g_2, g_3 and s
        for p in range(44, 50):
            y = 1.0 - 2.0 ** -p
            g = np.array([[0.0, y], [1.0, y], [1.0, 1.0], [-1.0, -1.0]])
            proven = _no_tie_filter(g, np.array([0]), np.array([1]), basis)
            assert proven.tolist() == [p <= 46], p
            assert _no_tie_fraction(g, 0, 1, basis[0])

    def test_off_line_direction_rejected(self):
        # f = (1, 0) beats g_2 but does not tie g_0 and g_1; its projection
        # (1, 1) / 2 onto the tie line loses to g_2
        g = np.array([[1.0, 0.0], [0.0, 1.0], [0.9, 0.5]])
        f = np.array([[1.0, 0.0]])
        assert not _tie_filter(g, np.array([0]), np.array([1]), f)[0]
        assert not _tie_fraction(g, 0, 1, f[0])

    def test_singular_system_leaves_the_batch_proven(self):
        # l2 = l3: weights on both (and s) give a singular 3 x 3 system,
        # which fails; the other pair of the batch is still proven
        g = np.array([[0.0, 1.0], [0.0, -1.0], [1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        singular = np.array([0, 1, 3])  # l2, l3 and s (l4 is column 2)
        (sol,) = phase1_solutions(_labelled(g), [(2, 4)])
        assert sol.status == "optimal"
        basis = np.array([singular, sol.basis])
        proven = _no_tie_filter(g, np.array([0, 2]), np.array([1, 4]), basis)
        assert proven.tolist() == [False, True]
        assert not _no_tie_filter(g, np.array([0]), np.array([1]), basis[:1])[0]

    @pytest.mark.parametrize("d", [2, 8])
    def test_chunks_of_one_pair(self, d, monkeypatch):
        # a budget below one pair cuts every batch into chunks of one
        u = _labelled(np.random.default_rng([9, d]).standard_normal((14, d)))
        expected = tie_graph(u)
        pairs = list(expected)
        oracle = coargmax_oracle_2d_pairs(u, pairs) if d == 2 else None
        monkeypatch.setattr(geometry, "_CHUNK_BYTES", 1)
        assert geometry._chunks(3, 14, d) == [slice(0, 1), slice(1, 2), slice(2, 3)]
        graph = tie_graph(u)
        assert list(graph) == pairs
        for p, rep in expected.items():
            assert _same_report(graph[p], rep) and graph[p].proof == rep.proof, p
        if d == 2:
            assert np.array_equal(coargmax_oracle_2d_pairs(u, pairs), oracle)


class TestInflatedBounds:
    def test_each_side_grows_by_half_span_times_factor(self, unrestricted):
        (x0, x1), (y0, y1) = inflated_bounds(unrestricted.model.unembeddings)
        # x spans [-1, 1], y spans [-1.2, 1]
        assert (x0, x1) == (-1.5, 1.5)
        assert y0 == pytest.approx(-1.75)
        assert y1 == pytest.approx(1.55)

    def test_degenerate_axis_padded(self):
        u = UnembeddingSet(("a", "b"), [[1.0, 5.0], [2.0, 5.0]])
        (_, _), (y0, y1) = inflated_bounds(u)
        assert y0 < 5.0 < y1


class TestDecisionRegions:
    def test_shape_and_dtype(self, unrestricted):
        grid = decision_regions(unrestricted.model, resolution=50)
        assert grid.labels.shape == (50, 50)
        assert grid.labels.dtype == np.int64
        assert grid.labels.min() >= 0
        assert grid.labels.max() < unrestricted.model.k

    def test_resolution_two_gives_four_cells(self, unrestricted):
        grid = decision_regions(unrestricted.model, resolution=2)
        assert grid.labels.size == 4

    def test_resolution_below_two_rejected(self, unrestricted):
        with pytest.raises(ValueError):
            decision_regions(unrestricted.model, resolution=1)

    def test_two_label_grid_splits_along_logit_equality_line(self):
        # scores without bias tie where (g0 - g1) . f = 0, a line through
        # the origin; for g0 = (1, 0), g1 = (0, 1) that is the diagonal
        # x = y, so the winner is decided by sign(x - y), ties (the exact
        # diagonal of this symmetric grid) to the lower index
        u = UnembeddingSet(("a", "b"), [[1.0, 0.0], [0.0, 1.0]])
        grid = decision_regions(
            SoftmaxModel(u), ((-1.0, 1.0), (-1.0, 1.0)), 40
        )
        xs, ys = np.meshgrid(grid.x_centers, grid.y_centers)
        expected = np.where(xs >= ys, 0, 1)
        np.testing.assert_array_equal(grid.labels, expected)

    def test_requires_2d(self):
        u = UnembeddingSet(("a", "b"), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ValueError):
            decision_regions(SoftmaxModel(u))

    def test_cell_centers_match_formula(self, unrestricted):
        bounds = ((-2.0, 2.0), (-1.0, 3.0))
        grid = decision_regions(unrestricted.model, bounds, resolution=10)
        np.testing.assert_array_equal(
            grid.x_centers, -2.0 + (np.arange(10) + 0.5) * (4.0 / 10)
        )
        np.testing.assert_array_equal(
            grid.y_centers, -1.0 + (np.arange(10) + 0.5) * (4.0 / 10)
        )

    def test_invariant_under_translation(self, unrestricted):
        # resolution 200 keeps every cell center off the decision
        # boundaries of this fixture (min score gap ~1e-4), so rounding
        # differences cannot flip any argmax; at e.g. resolution 80 one
        # center lands exactly on a boundary line and the comparison
        # becomes an exact-tie coin flip
        model = unrestricted.model
        bounds = inflated_bounds(model.unembeddings)
        moved = model.with_unembeddings(
            translate(model.unembeddings, [0.37, -2.11])
        )
        a = decision_regions(model, bounds, 200)
        b = decision_regions(moved, bounds, 200)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_invariant_under_scaling(self, unrestricted):
        model = unrestricted.model
        bounds = inflated_bounds(model.unembeddings)
        scaled = scale_pair(model, 7.0)
        a = decision_regions(model, bounds, 200)
        b = decision_regions(scaled, bounds, 200)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_deterministic(self, centered):
        a = decision_regions(centered.model, resolution=64)
        b = decision_regions(centered.model, resolution=64)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.x_centers, b.x_centers)


class TestRegionAdjacency:
    def test_centered_fixture_adjacency(self, centered):
        grid = decision_regions(centered.model, resolution=200)
        adj = region_adjacency(grid)
        partners_of_2 = {a for a, b in adj if b == 2} | {b for a, b in adj if a == 2}
        assert partners_of_2 == {1, 3}

    def test_pairs_are_ordered(self, centered):
        grid = decision_regions(centered.model, resolution=100)
        for a, b in region_adjacency(grid):
            assert a < b

    def test_matches_tie_partner_graph(self, centered, unrestricted):
        # away from the shared apex, two argmax cones touch on the grid
        # exactly when their labels can tie
        for ex in (centered, unrestricted):
            grid = decision_regions(ex.model, resolution=200)
            adj = region_adjacency(grid)
            u = ex.model.unembeddings
            expected = set()
            for i in range(u.k):
                for j in tie_partners(u, i):
                    expected.add((min(i, j), max(i, j)))
            assert adj == expected
