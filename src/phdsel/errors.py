"""Exception hierarchy shared across the package."""


class PhdselError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(PhdselError, ValueError):
    """Malformed data, vectors, or configuration."""


class InvalidParameter(PhdselError, ValueError):
    """Parameter outside the admissible domain (rate <= 0, h <= 0, ...)."""


class FitFailed(PhdselError, RuntimeError):
    """Optimizer could not locate a finite objective value."""


class BoundaryParameter(PhdselError, ValueError):
    """Limit law requested at a parameter outside its closed box."""


class SingularInformation(PhdselError, RuntimeError):
    """Fisher information below the smallest normal double (numerically zero)."""


class DegenerateGradient(PhdselError, RuntimeError):
    """Distance gradient undefined: model cell probability is zero on an
    occupied cell."""


class DegenerateVariance(PhdselError, RuntimeError):
    """Variance estimate collapsed to zero; the studentized statistic is
    undefined.  ``reason`` names the cause where the raiser knows it, else
    it is empty."""

    def __init__(self, message: str = "", reason: str = ""):
        super().__init__(message)
        self.reason = reason


class NoEquidistance(PhdselError, RuntimeError):
    """No mixing weight equalizes the two model distances."""
