"""Exception types shared across the package.

Validation problems (bad grids, malformed configs, model/data mismatches)
raise subclasses of :class:`ValidationError`.  Numerical failures that stop
an otherwise well-posed computation raise subclasses of
:class:`NumericalError`.
"""


class SwitchCurveError(Exception):
    """Base class for all package errors."""


class ValidationError(SwitchCurveError):
    """Bad inputs: shapes, ranges, or model/data mismatches."""


class NumericalError(SwitchCurveError):
    """A computation failed or produced an unusable result."""


# -- grid / basis -----------------------------------------------------------

class GridTooSmall(ValidationError):
    """Fewer grid points than a cubic spline basis needs."""


class BadK(ValidationError):
    """Requested basis dimension outside the supported range."""


class NonIncreasingGrid(ValidationError):
    """Grid points are not strictly increasing."""


class OutOfDomain(ValidationError):
    """Evaluation point outside the closed span of the grid."""


# -- data / configuration ---------------------------------------------------

class XInconsistent(ValidationError):
    """Replicates disagree about the shared grid."""


class SpecMismatch(ValidationError):
    """Model specification incompatible with the data or with itself."""


class EnumerationTooLarge(ValidationError):
    """The enumeration route's estimated peak bytes exceed the budget."""


class BadInit(ValidationError):
    """Supplied starting parameters are malformed or inconsistent."""


# -- numerics ---------------------------------------------------------------

class DegenerateLikelihood(NumericalError):
    """All state configurations carry zero likelihood for some replicate,
    or its log-likelihood is NaN or +inf."""


class NotSPD(NumericalError):
    """A matrix required to be symmetric positive definite is not."""


class NonPositiveSigma(NumericalError):
    """A variance update produced a non-positive value."""


class SingularSystem(NumericalError):
    """An indefinite normal matrix (a singular one is solved by min-norm)."""


class MonotonicityViolation(NumericalError):
    """The penalized objective decreased between iterations.

    Carries both objective values and the ECM iteration that saw the drop.
    """

    def __init__(self, previous, current, iteration):
        super().__init__(
            f"ECM iteration {iteration}: objective decreased: "
            f"{previous!r} -> {current!r}")
        self.previous = previous
        self.current = current
        self.iteration = iteration


class BoundaryParameter(NumericalError):
    """An estimate sits on the parameter-space boundary; SEs unreliable."""


class SingularInformation(NumericalError):
    """Observed information matrix is singular or indefinite."""
