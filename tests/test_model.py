"""Core softmax model: construction, validation, probabilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from unembed import (
    DimensionMismatchError,
    EmbeddingBatch,
    ProbabilityDistribution,
    SoftmaxModel,
    UnembeddingSet,
    argmax_label,
    logits,
    predict_proba,
    predict_proba_batch,
    softmax,
)
from oracle_utils import softmax_reference

# Frozen from softmax_reference (mpmath, 50 digits) on the scores
# (1, 0.5, -1, -0.8, 0.9).
SOFTMAX_GOLDEN = [
    0.35561849222634134,
    0.2156935186960548,
    0.04812772936962905,
    0.05878334139605113,
    0.3217769183119237,
]

# Frozen from softmax_reference on the centered example's logits at the
# point (2, 1): scores (1.8, 3.8, -1.5, -2.0, -2.1).
CENTERED_POINT_GOLDEN = [
    0.1180839423253742,
    0.8725288742250814,
    0.004355309812185147,
    0.002641628933637563,
    0.0023902447037216974,
]


class TestUnembeddingSet:
    def test_basic_properties(self):
        u = UnembeddingSet(("a", "b", "c"), [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert u.k == 3
        assert u.d == 2
        assert u.labels == ("a", "b", "c")
        assert u.index_of("b") == 1
        np.testing.assert_array_equal(u.vector(2), [1.0, 1.0])

    def test_vectors_read_only(self):
        u = UnembeddingSet(("a", "b"), [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            u.vectors[0, 0] = 5.0

    def test_rejects_single_label(self):
        with pytest.raises(ValueError, match="at least 2"):
            UnembeddingSet(("a",), [[1.0, 0.0]])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            UnembeddingSet(("a", "a"), [[1.0, 0.0], [0.0, 1.0]])

    def test_duplicate_labels_message(self):
        # each duplicated label once, sorted, however often it repeats
        labels = ("b", "a", "b", "c", "a", "a")
        with pytest.raises(ValueError) as info:
            UnembeddingSet(labels, np.eye(6)[:, :2])
        assert str(info.value) == "duplicate labels: ['a', 'b']"

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(ValueError):
            UnembeddingSet(("a", "b", "c"), [[1.0, 0.0], [0.0, 1.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            UnembeddingSet(("a", "b"), [[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            UnembeddingSet(("a", "b"), [[1.0, np.inf], [0.0, 1.0]])

    def test_rejects_1d_input(self):
        with pytest.raises(ValueError, match="2-D"):
            UnembeddingSet(("a", "b"), [1.0, 2.0])

    def test_index_of_unknown_label(self):
        u = UnembeddingSet(("a", "b"), [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(KeyError):
            u.index_of("z")

    def test_with_vectors_keeps_labels(self):
        u = UnembeddingSet(("a", "b"), [[1.0, 0.0], [0.0, 1.0]])
        w = u.with_vectors([[2.0, 0.0], [0.0, 2.0]])
        assert w.labels == u.labels
        np.testing.assert_array_equal(w.vector(0), [2.0, 0.0])


class TestEmbeddingBatch:
    def test_empty(self):
        batch = EmbeddingBatch.empty(3)
        assert batch.n == 0
        assert batch.d == 3

    def test_names_length_checked(self):
        with pytest.raises(ValueError):
            EmbeddingBatch([[1.0, 2.0]], names=("p0", "p1"))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            EmbeddingBatch([[1.0, np.nan]])


class TestSoftmaxModel:
    def test_dimension_mismatch(self):
        u = UnembeddingSet(("a", "b"), [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DimensionMismatchError):
            SoftmaxModel(u, EmbeddingBatch([[1.0, 2.0, 3.0]]))

    def test_default_embeddings_empty(self):
        u = UnembeddingSet(("a", "b"), [[1.0, 0.0], [0.0, 1.0]])
        model = SoftmaxModel(u)
        assert model.embeddings.n == 0
        assert model.embeddings.d == 2


class TestSoftmax:
    def test_frozen_golden(self):
        probs = softmax([1.0, 0.5, -1.0, -0.8, 0.9])
        np.testing.assert_allclose(probs, SOFTMAX_GOLDEN, rtol=0, atol=1e-12)

    def test_sums_to_one(self):
        probs = softmax([3.0, -2.0, 0.5])
        assert abs(float(probs.sum()) - 1.0) <= 1e-15

    def test_uniform_for_equal_scores(self):
        probs = softmax([7.0, 7.0, 7.0, 7.0])
        np.testing.assert_allclose(probs, 0.25, rtol=0, atol=1e-15)

    def test_stable_for_large_scores(self):
        probs = softmax([1000.0, 999.0, -1000.0])
        assert np.all(np.isfinite(probs))
        assert abs(float(probs.sum()) - 1.0) <= 1e-15

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            softmax([1.0, np.nan])
        with pytest.raises(ValueError):
            softmax([1.0, np.inf])

    @given(
        hnp.arrays(
            np.float64,
            st.integers(2, 8),
            elements=st.floats(-50, 50, allow_nan=False),
        ),
        st.floats(-100, 100, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_shift_invariance(self, scores, shift):
        base = softmax(scores)
        shifted = softmax(scores + shift)
        np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-12)

    @given(
        hnp.arrays(
            np.float64,
            st.integers(2, 8),
            elements=st.floats(-30, 30, allow_nan=False),
        )
    )
    @settings(max_examples=100)
    def test_matches_high_precision_reference(self, scores):
        got = softmax(scores)
        # the reference computes scores as vectors @ point, so a unit
        # point with one-entry rows feeds it the raw scores
        want = softmax_reference([1.0], [[s] for s in scores])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


class TestPredictProba:
    def test_centered_point_golden(self, centered):
        dist = predict_proba(centered.model, [2.0, 1.0])
        np.testing.assert_allclose(
            dist.probs, CENTERED_POINT_GOLDEN, rtol=0, atol=1e-12
        )

    def test_matches_reference(self, unrestricted, rng):
        model = unrestricted.model
        for _ in range(20):
            point = rng.uniform(-3, 3, size=2)
            dist = predict_proba(model, point)
            want = softmax_reference(point, model.unembeddings.vectors)
            np.testing.assert_allclose(
                dist.probs, want, rtol=0, atol=1e-13
            )

    def test_getitem_by_index_and_label(self, centered):
        dist = predict_proba(centered.model, [2.0, 1.0])
        assert dist[1] == dist["l1"]
        assert dist.argmax == 1

    def test_batch_matches_single(self, centered, rng):
        points = rng.uniform(-2, 2, size=(15, 2))
        batch = predict_proba_batch(centered.model, points)
        assert batch.shape == (15, centered.model.k)
        for row, point in zip(batch, points):
            single = predict_proba(centered.model, point)
            np.testing.assert_allclose(
                row, single.probs, rtol=0, atol=1e-15
            )

    def test_dimension_mismatch(self, centered):
        with pytest.raises(DimensionMismatchError):
            predict_proba(centered.model, [1.0, 2.0, 3.0])


class TestLogits:
    def test_matches_manual_dot(self, unrestricted):
        u = unrestricted.model.unembeddings
        point = np.array([0.3, -0.7])
        got = logits(point, u)
        want = u.vectors @ point
        np.testing.assert_array_equal(got, want)


class TestArgmaxLabel:
    def test_ties_break_to_lowest_index(self):
        u = UnembeddingSet(("a", "b", "c"), [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert argmax_label(SoftmaxModel(u), [1.0, 0.0]) == 0

    def test_agrees_with_probability_argmax(self, unrestricted, rng):
        model = unrestricted.model
        for _ in range(50):
            point = rng.uniform(-4, 4, size=2)
            assert argmax_label(model, point) == predict_proba(model, point).argmax


class TestProbabilityDistribution:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            ProbabilityDistribution([0.6, 0.6], ("a", "b"))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ProbabilityDistribution([-0.1, 1.1], ("a", "b"))
