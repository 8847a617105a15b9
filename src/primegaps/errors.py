"""Exception types shared across the toolkit."""


class PrimeGapsError(Exception):
    """Base class for all toolkit errors."""


class DomainError(PrimeGapsError, ValueError):
    """An argument lies outside the mathematical domain of a function."""


class RangeLimitError(PrimeGapsError, ValueError):
    """A query exceeds the sieved range; rebuild with a larger limit."""


class ResourceLimitError(PrimeGapsError, RuntimeError):
    """A requested computation exceeds the configured memory budget."""


class InsufficientDataError(PrimeGapsError, ValueError):
    """Not enough data points to carry out the requested operation."""


class SingularFitError(PrimeGapsError, ValueError):
    """The least-squares design is degenerate (all abscissae equal)."""
