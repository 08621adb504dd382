"""Exception and warning types shared across the package."""


class CauchySpecError(Exception):
    """Base class for all errors raised by this package."""


class NonConvergence(CauchySpecError):
    """Quadrature (or an iterative solve) failed to meet its tolerance.

    Carries the best available estimate and a bound on its error so callers
    can decide whether the partial result is still usable.
    """

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class DomainError(CauchySpecError):
    """Argument outside the mathematical domain of the function."""


class PoleError(DomainError):
    """Evaluation requested at (or numerically on top of) a pole."""


class NotPositiveDefinite(CauchySpecError):
    """A Cholesky pivot was non-positive; the matrix is not SPD."""


class GridTooCoarse(CauchySpecError):
    """Grid spacing cannot resolve the oscillation of the integrand."""


class BracketInversion(CauchySpecError):
    """A computed lower eigenvalue bound exceeded the matching upper bound."""


class DegeneratePencil(UserWarning):
    """Matrix pencil has (near-)degenerate directions; affected eigenvalues
    are omitted from the result rather than reported as garbage."""
