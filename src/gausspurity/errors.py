"""Exception types shared across the library."""


class GaussPurityError(Exception):
    """Base class for all library-specific errors."""


class PhysicalityError(GaussPurityError, ValueError):
    """Covariance matrix violates the uncertainty bound det(sigma) >= 1/4."""


class InsufficientDataError(GaussPurityError, ValueError):
    """Too few samples to form the requested estimate."""


class DegenerateSampleError(GaussPurityError, ValueError):
    """Estimated second moments are incompatible with any physical state.

    Raised when the vacuum-corrected sample covariance is not positive
    definite, or when the three-quadrature bracket is non-positive.
    This is a finite-sample artifact and signals that more data are
    needed for the state at hand; it is deliberately not clamped.
    """


class UnphysicalBathError(GaussPurityError, ValueError):
    """Bath parameters violate positivity of the asymptotic state."""


class UnsupportedConditionError(GaussPurityError, ValueError):
    """Operation invoked outside the regime where it is defined."""
