"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Operands have incompatible dimensions (d or k disagree)."""


class ZeroVectorError(ValueError):
    """An operation that needs a nonzero vector received a zero vector."""


class ModelFormatError(ValueError):
    """A model file failed to parse or violates the format grammar."""


class LpIndeterminateError(RuntimeError):
    """An LP gave no usable answer.  Tie decisions no longer raise it:
    every pair of a finite model gets a proven verdict."""


class ConsistencyError(RuntimeError):
    """Two independent routes to the same answer disagreed."""
