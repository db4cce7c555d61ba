"""Exception hierarchy shared by all frechetfit modules."""

__all__ = [
    "FrechetFitError",
    "DomainError",
    "PoleError",
    "GammaRangeError",
    "UndefinedMomentError",
    "PrecisionLossError",
    "NoConvergenceError",
    "DegenerateFitError",
    "InsufficientDataError",
    "ParseError",
    "EmptyInputError",
]


class FrechetFitError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FrechetFitError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """The Gamma function was evaluated at one of its poles (0, -1, -2, ...)."""


class GammaRangeError(FrechetFitError, OverflowError):
    """Gamma or its logarithm overflowed the 64-bit float range."""


class UndefinedMomentError(FrechetFitError, ValueError):
    """A moment of order k was requested where it diverges (k >= alpha)."""


class PrecisionLossError(FrechetFitError):
    """Cancellation in float64 leaves a computed value without reliable digits."""


class NoConvergenceError(FrechetFitError, RuntimeError):
    """An iterative solver exhausted its iteration budget."""


class DegenerateFitError(FrechetFitError, ValueError):
    """Sample moments are incompatible with any admissible shape parameter."""


class InsufficientDataError(FrechetFitError, ValueError):
    """Too few data points for the requested statistic."""


class ParseError(FrechetFitError, ValueError):
    """A sample file contained a token that is not a number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class EmptyInputError(ParseError):
    """A sample file contained no data values."""
