"""Inverse tangent integral, the log-potential of the Cauchy weight, and
friends.

Everything downstream (eigenfunctions, kernels, exit laws) reduces to the
pair

    ti2(t)  = int_0^t arctan(u)/u du            (inverse tangent integral)
    eta(t)  = log(1+t^2)/4 - (1/pi) int_0^t log|s|/(1+s^2) ds

together with the holomorphic function

    b_complex(z) = (1/pi) int_{-inf}^0 log(z - s)/(1+s^2) ds,

whose boundary values on the real axis are eta(t) + i*arctan(max(-t,0)).
All real-argument functions accept scalars or numpy arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .quadrature import QuadratureSpec, integrate

__all__ = ["CATALAN", "ti2", "eta", "exp_eta", "b_complex", "b_real"]

#: Catalan's constant, 30 digits (frozen from the alternating series
#: sum (-1)^k/(2k+1)^2 accelerated to convergence; used in bounds only).
CATALAN = 0.915965594177219015054603514932

_PI = math.pi
_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)
_GL_V = 0.5 * (_GL_X + 1.0)          # nodes on (0, 1)
_GL_WV = 0.5 * _GL_W


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


def _series(t: np.ndarray) -> np.ndarray:
    # sum (-1)^k t^{2k+1}/(2k+1)^2, |t| <= 1/2: 40 terms reach 1e-25
    s = np.zeros_like(t)
    tp = t.copy()
    sign = 1.0
    tt = t * t
    for k in range(40):
        s += sign * tp / (2 * k + 1) ** 2
        sign = -sign
        tp = tp * tt
    return s


def ti2(t):
    """Inverse tangent integral Ti2(t) = int_0^t arctan(u)/u du for t >= 0.

    Series below 1/2, the inversion Ti2(t) = Ti2(1/t) + (pi/2) log t above 2,
    and a 24-point Gauss rule on the (analytic) integrand in between; the
    three regimes agree to ~1e-15 at the seams.
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    if not np.all(t >= 0):                 # False for NaN too
        raise DomainError("ti2 requires t >= 0")
    out = np.zeros_like(t)
    small = t <= 0.5
    big = t >= 2.0
    mid = ~small & ~big
    out[small] = _series(t[small])
    tb = t[big]
    if tb.size:
        out[big] = _series(1.0 / tb) + 0.5 * _PI * np.log(tb)
    tm = t[mid]
    if tm.size:
        tv = np.outer(tm, _GL_V)
        out[mid] = tm * ((np.arctan(tv) / tv) * _GL_WV).sum(axis=1)
    return float(out[0]) if scalar else out


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
    ap = a[pos]
    res[pos] = 0.25 * np.log1p(ap * ap) - (np.arctan(ap) * np.log(ap) - ti2(ap)) / _PI
    res = np.where(t < 0, -res + 0.5 * np.log1p(a * a), res)
    return float(res[0]) if scalar else res


def exp_eta(t):
    """e^{eta(t)}; satisfies (1+t^2)^{1/4} e^{-C/pi} <= exp_eta <= (1+t^2)^{1/4} e^{C/pi}
    with C Catalan's constant, and exp_eta(t)*exp_eta(-t) = sqrt(1+t^2)."""
    return np.exp(eta(t))


def b_complex(z: complex, spec: QuadratureSpec | None = None) -> complex:
    """The log-potential b(z) = (1/pi) int_{-inf}^0 log(z-s)/(1+s^2) ds.

    Holomorphic off (-inf, 0], continuous up to the cut from the upper
    half-plane; evaluated by quadrature after s -> -v with the principal
    log, which along the integration path coincides with that continued
    branch whenever Re z >= 0 or Im z >= 0.  Real negative arguments get the
    boundary-from-above value eta(z) + i arctan(-z).  In the remaining
    quadrant (Re z < 0, Im z < 0) the path crosses the cut and the branch is
    ambiguous, so that region raises :class:`DomainError`.
    """
    z = complex(z)
    if z.real < 0.0 and z.imag < 0.0:
        raise DomainError("b_complex is restricted to Re z >= 0 or Im z >= 0")
    if z == 0:
        return 0.0 + 0.0j
    spec = spec or QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13)

    def f_re(v):
        w = z + v
        return np.log(np.abs(w)) / (1.0 + v * v)

    def f_im(v):
        w = z + v
        return np.arctan2(w.imag, w.real) / (1.0 + v * v)

    # breakpoints: the modulus scale, plus the (integrable) log zero at
    # v = -z for real negative z
    pts = [abs(z)]
    if z.imag == 0.0 and z.real < 0.0:
        pts.append(-z.real)
    re = integrate(f_re, (0.0, math.inf), spec, points=pts) / _PI
    im = integrate(f_im, (0.0, math.inf), spec, points=pts) / _PI
    return complex(re, im)


def b_real(t: float) -> complex:
    """Boundary values of the log-potential on the real axis, in closed form:
    eta(t) + i arctan(max(-t, 0))."""
    t = float(t)
    return complex(eta(t), math.atan(max(-t, 0.0)))
