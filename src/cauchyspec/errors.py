"""Exception and warning types shared across the package, and the one
definition of each rule a caller-supplied value must follow.

Every layer checks its arguments through the rules here (finite, positive
and finite, integer in a range, strictly increasing grid) and returns
through :func:`_scalar_or_array`, so a rule is written once and every
violation raises :class:`DomainError`, which is also a ``ValueError``.
"""

import math
from numbers import Integral

import numpy as np


class CauchySpecError(Exception):
    """Base class for all errors raised by this package."""


class NonConvergence(CauchySpecError):
    """Quadrature (or an iterative solve) failed to meet its tolerance.

    Carries the best available estimate and a bound on its error so callers
    can decide whether the partial result is still usable; a batched
    quadrature also names the ``index`` of the integral that failed.
    """

    def __init__(self, message, estimate=None, error_bound=None, index=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound
        self.index = index


class DomainError(CauchySpecError, ValueError):
    """Argument outside the function's domain, or malformed; a ValueError."""


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


def _finite(name: str, x, low: float = -math.inf) -> np.ndarray:
    """x as a float array; DomainError unless every entry is finite, >= low."""
    x = np.asarray(x, dtype=float)
    if not (np.isfinite(x) & (x >= low)).all():
        raise DomainError(f"{name} requires finite arguments"
                          + (f" >= {low:g}" if low > -math.inf else ""))
    return x


def _positive(names: str, *values) -> None:
    """DomainError unless every entry of every value is positive and finite."""
    for v in values:
        if not np.all(_finite(names, v) > 0.0):
            raise DomainError(f"{names} must be positive and finite")


def _integer(name: str, value, low: int, high: float = math.inf) -> None:
    """DomainError unless value is an integer, not a bool, from low to high."""
    if (isinstance(value, bool) or not isinstance(value, Integral)
            or not low <= value <= high):
        raise DomainError(f"{name} must be an integer in [{low}, {high}]")


def _increasing(name: str, x, size: int) -> np.ndarray:
    """x as a float array; DomainError unless it is a finite, strictly
    increasing 1-D array of at least ``size`` points."""
    x = _finite(name, x)
    if x.ndim != 1 or x.size < size or not np.all(np.diff(x) > 0):
        raise DomainError(f"{name} must be a strictly increasing 1-D array "
                          f"of at least {size} point(s)")
    return x


def _scalar_or_array(kernel, x):
    """kernel(np.atleast_1d(x)), as a float for a scalar x."""
    x = np.asarray(x, dtype=float)
    out = kernel(np.atleast_1d(x))
    return float(out[0]) if x.ndim == 0 else out
