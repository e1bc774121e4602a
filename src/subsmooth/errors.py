"""Exception types shared across the package."""


class SubsmoothError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrixError(SubsmoothError):
    """A matrix that must be invertible has determinant zero."""


class NotDivisibleError(SubsmoothError):
    """Exact Laurent division failed; the input violates an algebraic condition.

    The offending remainder is kept on the exception so callers can report
    which coefficient obstructed the factorization.
    """

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class EigenspaceError(SubsmoothError):
    """No valid canonical basis change exists (non-convergent-style input)."""


class EmptyEigenspaceError(EigenspaceError):
    """The common 1-eigenspace of the even/odd coefficient sums is trivial."""


class SpectralConditionError(SubsmoothError):
    """A Hermite operation requires the spectral condition, which fails."""


class NotInTildeError(SubsmoothError):
    """The derived vector scheme does not have eigenspace span{e2}.

    Raised when the vanishing-first-component hypothesis of the Hermite
    smoothing procedure cannot be established algebraically.
    """


class DegenerateAError(SubsmoothError):
    """The Hermite round's shear constant zeta is undefined: zeta_of raises
    it when a22(1) = 2."""


class WorkBudgetError(SubsmoothError):
    """A symbol operation is over its work budget; raised before it runs."""

    def __init__(self, price, budget):
        self.price = price
        self.cost = f"would cost {price} word products, over the budget of {budget}"
        super().__init__(f"a symbol operation {self.cost}")


class ConsistencyError(SubsmoothError):
    """An internal postcondition or cross-check failed; indicates a bug."""


class MaskFileError(SubsmoothError):
    """A mask file could not be parsed; message carries field diagnostics."""
