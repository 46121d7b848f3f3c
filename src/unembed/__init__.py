"""Geometry of softmax classifiers seen through their unembedding vectors.

A model here is a set of unembedding vectors (one per label) plus optional
embedding points.  Translating every unembedding by a common vector never
changes any predicted probability, yet it can drive the cosine similarity
of a chosen pair to -1 or +1; scaling unembeddings by c > 0 while scaling
embeddings by 1/c preserves probabilities while scaling all pairwise
distances.  Whether two labels can tie for the highest probability is
decided by a small linear program, cross-checked in 2D by an exact oracle.
"""

from .errors import (
    ConsistencyError,
    DimensionMismatchError,
    ModelFormatError,
    ZeroVectorError,
)
from .examples import (
    CheckResult,
    ExpectedValue,
    NamedExample,
    evaluate_example,
    evaluate_expected,
    example,
    example_names,
    synthetic_embeddings,
)
from .geometry import (
    DEFAULT_EPS,
    FeasibilityReport,
    RegionGrid,
    SimilarityMatrix,
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
    similarity_matrix,
    tie_graph,
    tie_partners,
)
from .lp import LinearProgram, LpSolution, coargmax_lp
from .model import (
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
from .model_io import (
    export_grid_csv,
    load_model,
    load_report,
    new_report,
    save_model,
    save_report,
)
from .transforms import (
    EquivalenceReport,
    center,
    cosine_forcing_translation,
    equivalent_model_pair,
    normalize_rows,
    scale_pair,
    translate,
    verify_equivalence,
)

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "ConsistencyError",
    "DEFAULT_EPS",
    "DimensionMismatchError",
    "EmbeddingBatch",
    "EquivalenceReport",
    "ExpectedValue",
    "FeasibilityReport",
    "LinearProgram",
    "LpSolution",
    "ModelFormatError",
    "NamedExample",
    "ProbabilityDistribution",
    "RegionGrid",
    "SimilarityMatrix",
    "SoftmaxModel",
    "UnembeddingSet",
    "ZeroVectorError",
    "argmax_label",
    "center",
    "coargmax_feasible",
    "coargmax_lp",
    "coargmax_oracle_2d",
    "coargmax_oracle_2d_pairs",
    "cosine",
    "cosine_forcing_translation",
    "decision_regions",
    "dot",
    "equivalent_model_pair",
    "euclidean",
    "evaluate_example",
    "evaluate_expected",
    "example",
    "example_names",
    "export_grid_csv",
    "inflated_bounds",
    "load_model",
    "load_report",
    "logits",
    "nearest_neighbors",
    "new_report",
    "normalize_rows",
    "predict_proba",
    "predict_proba_batch",
    "region_adjacency",
    "save_model",
    "save_report",
    "scale_pair",
    "similarity_matrix",
    "softmax",
    "synthetic_embeddings",
    "tie_graph",
    "tie_partners",
    "translate",
    "verify_equivalence",
    "__version__",
]
