"""Inverse tangent integral, the log-potential of the Cauchy weight, and
friends.

Everything downstream (eigenfunctions, kernels, exit laws) reduces to the
pair

    ti2(t)  = int_0^t arctan(u)/u du = Im Li2(i t)   (inverse tangent integral)
    eta(t)  = log(1+t^2)/4 - (1/pi) int_0^t log|s|/(1+s^2) ds

together with the holomorphic function

    b_complex(z) = (1/pi) int_{-inf}^0 log(z - s)/(1+s^2) ds,

whose boundary values on the real axis are eta(t) + i*arctan(max(-t,0)).
Ti2 is read off scipy's complex dilogarithm, Li2(w) = spence(1 - w)
(Lewin, Polylogarithms and Associated Functions, 1981), and eta is closed
form in it.  All real-argument functions accept scalars or numpy arrays.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import spence

from .errors import DomainError
from .quadrature import QuadratureSpec, integrate

__all__ = ["CATALAN", "ti2", "eta", "b_complex"]

#: Catalan's constant, 30 digits (frozen from the alternating series
#: sum (-1)^k/(2k+1)^2 accelerated to convergence; used in bounds only).
CATALAN = 0.915965594177219015054603514932

_PI = math.pi


def _finite(name: str, x, low: float | None = None) -> np.ndarray:
    """``x`` as a float array, or DomainError unless every entry is finite
    (and at least ``low``, if given)."""
    x = np.asarray(x, dtype=float)
    ok = np.isfinite(x)
    if low is not None:
        ok &= x >= low
    if not ok.all():
        raise DomainError(f"{name} requires finite arguments"
                          + ("" if low is None else f" >= {low:g}"))
    return x


def ti2(t):
    """Inverse tangent integral Ti2(t) = int_0^t arctan(u)/u du for t >= 0,
    evaluated as Im Li2(i t) with the dilogarithm Li2(w) = spence(1 - w)."""
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):                 # False for NaN too
        raise DomainError("ti2 requires t >= 0")
    out = _ti2(t)
    return float(out) if t.ndim == 0 else out


def _ti2(t: np.ndarray) -> np.ndarray:
    """Ti2 on a float array of t >= 0, unchecked."""
    return spence(1.0 - 1j * t).imag


def _eta_pos(a: np.ndarray) -> np.ndarray:
    """eta on a float array of finite a > 0, unchecked."""
    return 0.25 * np.log1p(a * a) - (np.arctan(a) * np.log(a) - _ti2(a)) / _PI


def eta(t):
    """eta(t) = log(1+t^2)/4 - (1/pi) int_0^t log|s|/(1+s^2) ds, any real t.

    For t > 0 the integral has the closed form arctan(t) log t - Ti2(t);
    negative arguments use eta(-t) = -eta(t) + log sqrt(1+t^2).  NaN and
    +-inf raise DomainError.
    """
    t = _finite("eta", t)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    a = np.abs(t)
    res = np.zeros_like(a)
    pos = a > 0
    res[pos] = _eta_pos(a[pos])
    res = np.where(t < 0, -res + 0.5 * np.log1p(a * a), res)
    return float(res[0]) if scalar else res


def b_complex(z: complex) -> complex:
    """The log-potential b(z) = (1/pi) int_{-inf}^0 log(z-s)/(1+s^2) ds.

    Holomorphic off (-inf, 0], continuous up to the cut from the upper
    half-plane.  A real argument t gets the closed form
    eta(t) + i arctan(max(-t, 0)), the boundary value from above on the
    cut.  Elsewhere b is one complex quadrature after s -> -v with the
    principal log, which along the integration path coincides with that
    continued branch whenever Re z >= 0 or Im z >= 0.  In the remaining
    quadrant (Re z < 0, Im z < 0) the path crosses the cut and the branch
    is ambiguous, so that region raises :class:`DomainError`, as do NaN
    and infinite z.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError("b_complex requires a finite argument")
    if z.real < 0.0 and z.imag < 0.0:
        raise DomainError("b_complex is restricted to Re z >= 0 or Im z >= 0")
    if z.imag == 0.0:
        t = z.real
        return complex(eta(t), math.atan(-t) if t < 0.0 else 0.0)
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13)
    return integrate(lambda v: np.log(z + v) / (1.0 + v * v),
                     (0.0, math.inf), spec, points=[abs(z)]) / _PI
