"""Exception types shared across the package."""


class EigendynError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(EigendynError):
    """Operands do not have compatible shapes."""


class NonFiniteMatrix(EigendynError, ValueError):
    """A matrix has NaN or infinite entries (also a ValueError)."""


class NonConvergence(EigendynError):
    """The underlying eigensolver failed to converge."""


class PairingFailure(EigendynError):
    """A complex eigenvalue of a real matrix has no conjugate partner
    within tolerance (input not real, or spectrum misresolved)."""


class SingularGap(EigendynError):
    """A pairwise eigenvalue gap is below tolerance; the force sum is
    singular there.  Carries the offending pair of indices."""

    def __init__(self, msg, pair=None):
        super().__init__(msg)
        self.pair = pair


class RealEigenvalue(EigendynError):
    """Im(lambda_j) vanishes: the conjugate force is singular (collision)."""


class NotUnimodular(EigendynError):
    """Transfer matrix determinant differs from 1 beyond tolerance."""


class SpectralSingularity(EigendynError):
    """M22(k) = 0: transmission/reflection coefficients diverge.
    A distinguished physical event, reported rather than masked."""


class EmptyEstimate(EigendynError):
    """A Monte Carlo estimate was requested with zero samples."""


class ConfigInvalid(EigendynError):
    """A scenario configuration failed validation."""


class RecordInvalid(EigendynError):
    """A stored run record does not follow the record schema."""


class UnsupportedFormat(EigendynError):
    """Unknown export format."""
