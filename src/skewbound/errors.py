"""Exception and warning types shared across the package."""


class SkewboundError(Exception):
    """Base class for all errors raised by this package."""


class NotHermitian(SkewboundError):
    """Input matrix fails the Hermiticity check."""


class ConvergenceFailure(SkewboundError):
    """Eigensolver did not converge."""


class DomainError(SkewboundError):
    """Scalar argument outside its admissible range."""


class DimensionMismatch(SkewboundError):
    """Operator/state dimensions are incompatible."""


class StateValidationError(SkewboundError):
    """Density operator fails trace/positivity/reconstruction checks."""


class NegativeRadicand(SkewboundError):
    """Variance radicand below -tol_residual; inputs are inconsistent."""


class ZeroDeviation(SkewboundError):
    """A standard deviation required to be nonzero vanished."""


class ZeroSkew(SkewboundError):
    """A skew information required to be nonzero vanished."""


class DegenerateDenominator(SkewboundError):
    """Equality denominator vanished; the relation is vacuous there."""


class NotOrthonormal(SkewboundError):
    """Vectors fail the orthonormality tolerance."""


class OrthogonalSelection(SkewboundError):
    """Pre- and postselection overlap below tolerance; weak value undefined."""


class IncompleteChannel(SkewboundError):
    """Kraus operators do not sum to the identity."""


class NoFeasibleChiWarning(UserWarning):
    """No reference state satisfied tau1*tau2 < 1 for some state; its bound is reported as 0."""
