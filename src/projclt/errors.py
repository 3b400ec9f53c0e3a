"""Exception types shared across the package."""


class ProjcltError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(ProjcltError, ValueError):
    """An argument violates a documented precondition."""


class LinearDependenceError(InvalidInputError):
    """Direction vectors are numerically linearly dependent."""


class UnsupportedDimensionError(InvalidInputError):
    """Requested construction is not available in this dimension."""


class InvalidMomentsError(InvalidInputError):
    """Moment constants are inconsistent with a standardized variable."""


class MissingMomentsError(InvalidInputError):
    """A law neither declares nor can enumerate a moment constant a bound needs."""


class UnsupportedMethodError(InvalidInputError):
    """Requested evaluation method does not apply to this input."""


class ConfigError(ProjcltError, ValueError):
    """Experiment configuration is malformed or inconsistent."""
