"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Operands have incompatible dimensions (d or k disagree)."""


class ZeroVectorError(ValueError):
    """An operation that needs a nonzero vector received a zero vector."""


class ModelFormatError(ValueError):
    """A model file failed to parse or violates the format grammar."""


class ConsistencyError(RuntimeError):
    """Two independent routes to the same answer disagreed."""
