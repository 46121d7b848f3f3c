"""Core softmax-classifier representation.

A classifier over k labels in d dimensions is a set of unembedding vectors
g(y) in R^d, one per label, optionally paired with a batch of embedding
points f(x) in R^d.  The score of label y at point e is the dot product
e . g(y), and probabilities come from the softmax of those scores:

    p(y | e) = exp(e . g(y)) / sum_y' exp(e . g(y'))

All types here are immutable (frozen dataclasses over read-only arrays) and
all functions are pure, so everything is safe to share across threads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

__all__ = [
    "UnembeddingSet",
    "EmbeddingBatch",
    "SoftmaxModel",
    "ProbabilityDistribution",
    "as_label_vector",
    "logits",
    "softmax",
    "predict_proba",
    "predict_proba_batch",
    "argmax_label",
]

PROB_TOL = 1e-12


def as_label_vector(values, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D float64 array and validate finiteness and d >= 1."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a 1-D sequence of at least one number")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    out = arr.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class UnembeddingSet:
    """Labeled unembedding vectors, one row per label, shape (k, d)."""

    labels: tuple[str, ...]
    vectors: np.ndarray

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        vectors = np.array(self.vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError("unembedding vectors must form a 2-D array (k, d)")
        k, d = vectors.shape
        if k < 2:
            raise ValueError(f"need at least 2 labels, got {k}")
        if d < 1:
            raise ValueError("dimension must be at least 1")
        if len(labels) != k:
            raise DimensionMismatchError(
                f"{len(labels)} labels for {k} vectors"
            )
        if len(set(labels)) != k:
            dup = sorted(x for x, n in Counter(labels).items() if n > 1)
            raise ValueError(f"duplicate labels: {dup}")
        if not np.all(np.isfinite(vectors)):
            raise ValueError("unembedding vectors contain non-finite entries")
        vectors.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "vectors", vectors)

    @property
    def k(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown label {label!r}") from None

    def vector(self, i: int) -> np.ndarray:
        return self.vectors[i]

    def with_vectors(self, vectors: np.ndarray) -> "UnembeddingSet":
        """Same labels, new coordinates."""
        return UnembeddingSet(self.labels, vectors)


@dataclass(frozen=True)
class EmbeddingBatch:
    """A batch of embedding points, shape (n, d); n may be zero."""

    points: np.ndarray
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        points = np.array(self.points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError("embedding points must form a 2-D array (n, d)")
        if points.shape[1] < 1:
            raise ValueError("dimension must be at least 1")
        if not np.all(np.isfinite(points)):
            raise ValueError("embedding points contain non-finite entries")
        points.setflags(write=False)
        object.__setattr__(self, "points", points)
        if self.names is not None:
            names = tuple(str(x) for x in self.names)
            if len(names) != points.shape[0]:
                raise DimensionMismatchError(
                    f"{len(names)} point names for {points.shape[0]} points"
                )
            object.__setattr__(self, "names", names)

    @classmethod
    def empty(cls, d: int) -> "EmbeddingBatch":
        return cls(np.zeros((0, d)))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class SoftmaxModel:
    """An unembedding set plus an (optionally empty) embedding batch."""

    unembeddings: UnembeddingSet
    embeddings: EmbeddingBatch | None = None  # None -> empty batch

    def __post_init__(self):
        if self.embeddings is None:
            object.__setattr__(
                self, "embeddings", EmbeddingBatch.empty(self.unembeddings.d)
            )
        if self.embeddings.d != self.unembeddings.d:
            raise DimensionMismatchError(
                f"embeddings have d={self.embeddings.d}, "
                f"unembeddings have d={self.unembeddings.d}"
            )

    @property
    def labels(self) -> tuple[str, ...]:
        return self.unembeddings.labels

    @property
    def k(self) -> int:
        return self.unembeddings.k

    @property
    def d(self) -> int:
        return self.unembeddings.d

    def with_unembeddings(self, unembeddings: UnembeddingSet) -> "SoftmaxModel":
        return SoftmaxModel(unembeddings, self.embeddings)


@dataclass(frozen=True)
class ProbabilityDistribution:
    """Probabilities over labels; entries in [0, 1], summing to 1."""

    probs: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        probs = np.array(self.probs, dtype=np.float64)
        labels = tuple(str(x) for x in self.labels)
        if probs.ndim != 1 or probs.shape[0] != len(labels):
            raise DimensionMismatchError(
                f"{probs.shape} probabilities for {len(labels)} labels"
            )
        if np.any(probs < 0.0) or np.any(probs > 1.0):
            raise ValueError("probabilities outside [0, 1]")
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "labels", labels)

    def __getitem__(self, key) -> float:
        if isinstance(key, str):
            key = self.labels.index(key)
        return float(self.probs[key])

    @property
    def argmax(self) -> int:
        return int(np.argmax(self.probs))


def logits(point, unembeddings: UnembeddingSet) -> np.ndarray:
    """Scores e . g(y) for one embedding point, shape (k,)."""
    e = as_label_vector(point, "embedding point")
    if e.shape[0] != unembeddings.d:
        raise DimensionMismatchError(
            f"point has d={e.shape[0]}, unembeddings have d={unembeddings.d}"
        )
    return unembeddings.vectors @ e


def softmax(scores) -> np.ndarray:
    """Numerically stabilized softmax: the row maximum is subtracted before
    exponentiation, which leaves the exact value unchanged and keeps exp in
    range for large scores."""
    z = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("softmax input contains non-finite entries")
    shifted = z - z.max(axis=-1, keepdims=True)
    ez = np.exp(shifted)
    return ez / ez.sum(axis=-1, keepdims=True)


def predict_proba(model: SoftmaxModel, point) -> ProbabilityDistribution:
    """Label distribution at one embedding point."""
    z = logits(point, model.unembeddings)
    return ProbabilityDistribution(softmax(z), model.labels)


def predict_proba_batch(model: SoftmaxModel, points) -> np.ndarray:
    """Probabilities for many points at once, shape (n, k)."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != model.d:
        raise DimensionMismatchError(
            f"points with shape {pts.shape} for a d={model.d} model"
        )
    if not np.all(np.isfinite(pts)):
        raise ValueError("embedding points contain non-finite entries")
    return softmax(pts @ model.unembeddings.vectors.T)


def argmax_label(model: SoftmaxModel, point) -> int:
    """Index of the most probable label; ties go to the lowest index.

    Computed on logits: exp is strictly monotone, so the ordering matches the
    probabilities while avoiding float collapses introduced by exp.
    """
    z = logits(point, model.unembeddings)
    return int(np.argmax(z))
