"""Exception hierarchy for affine-spectra.

Every domain failure has a named class so callers (and the CLI, which emits
machine-readable error JSON) can dispatch on the type.  Validation errors
carry the 1-based branch index where one applies.
"""


class AffineSpectraError(Exception):
    """Base class for all library errors."""


class BranchError(AffineSpectraError):
    """Validation failure attributable to a single branch."""

    def __init__(self, message: str, branch: int | None = None):
        self.branch = branch
        if branch is not None:
            message = f"branch {branch}: {message}"
        super().__init__(message)


# system construction / validation

class NonMonotonePartition(AffineSpectraError):
    """Abscissae are not 0 = x_0 < x_1 < ... < x_r = 1."""


class SumNotOne(AffineSpectraError):
    """Branch widths do not sum to 1: the last one is not 1 - x_{r-1}."""


class ContractionOutOfRange(BranchError):
    """|d_k| >= 1, or |d_k| >= a_k where a criterion needs |d_k| < a_k."""


class OffsetMismatch(BranchError):
    """A given b_k is not x_{k-1}."""


class ShearMismatch(BranchError):
    """A given c_k is not (y_k - y_{k-1}) - d_k (y_r - y_0)."""


class DegenerateSystem(AffineSpectraError):
    """Fewer than two branches carry a nonzero vertical contraction."""


class ShearedSystem(AffineSpectraError):
    """Operation requires all shears c_k = 0."""


# domain / coding

class OutOfDomain(AffineSpectraError):
    """Point outside the domain required by the operation."""


class InvalidCoding(AffineSpectraError):
    """Digit string malformed for the given system."""


class InvalidSchedule(AffineSpectraError):
    """Run-structure schedule violates its growth constraints."""


class CutPointCoding(AffineSpectraError):
    """Coding addresses a two-coding (cut) point; use the cut-point API."""


class Endpoint(AffineSpectraError):
    """0 and 1 are excluded from cut-point exponent claims."""


# evaluation

class NonConvergence(AffineSpectraError):
    """Depth cap hit before the error bound fell below tol."""

    def __init__(self, message: str, achieved_bound: float | None = None,
                 depth: int | None = None):
        self.achieved_bound = achieved_bound
        self.depth = depth
        super().__init__(message)


class DuplicateAbscissa(AffineSpectraError):
    """Divided difference needs pairwise distinct points."""


class NotIncreasing(AffineSpectraError):
    """Oscillation bound needs strictly increasing points."""


# exponents

class InfiniteExponent(AffineSpectraError):
    """A digit with d_k = 0 occurs; the pointwise exponent is infinite."""


class HorizonTooSmall(AffineSpectraError):
    """Finite-horizon statistics need a horizon of at least 16."""


class PolynomialDegenerate(AffineSpectraError):
    """The function is a polynomial; exponent claims do not apply."""


class NotDifferentiable(AffineSpectraError):
    """One-sided derivative requested where the exponent is <= 1."""


class TailBoundUnavailable(AffineSpectraError):
    """No certified geometric tail bound for the derivative series."""


# spectrum / oracle

class OutOfRange(AffineSpectraError):
    """alpha outside the regime's admissible interval."""


class DegenerateWindow(AffineSpectraError):
    """Oscillation window empty or extends outside [0, 1]."""


class ZeroOscillation(AffineSpectraError):
    """phi is constant on the window; exponent estimate is infinite."""
