"""Inverse tangent integral, the log-potential of the Cauchy weight, and
friends.

Everything downstream (eigenfunctions, kernels, exit laws) reduces to the
pair

    ti2(t)  = int_0^t arctan(u)/u du = Im Li2(i t)   (inverse tangent integral)
    eta(t)  = log(1+t^2)/4 - (1/pi) int_0^t log|s|/(1+s^2) ds

together with the holomorphic function

    b_complex(z) = (1/pi) int_{-inf}^0 log(z - s)/(1+s^2) ds,

whose boundary values on the real axis are eta(t) + i*arctan(max(-t,0)).
Ti2 is computed in numpy alone: a fixed Gauss-Legendre rule on
int_0^1 arctan(a u)/u du for a <= 1, and Lewin's reflection
Ti2(t) = Ti2(1/t) + (pi/2) log t beyond (Lewin, Polylogarithms and Associated
Functions, 1981); eta is closed form in it.  All real-argument functions
accept scalars or numpy arrays, checked by the input rules of :mod:`.errors`.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, _finite, _scalar_or_array
from .quadrature import QuadratureSpec, integrate

__all__ = ["CATALAN", "ti2", "eta", "b_complex"]

#: Catalan's constant, 30 digits (frozen from the alternating series
#: sum (-1)^k/(2k+1)^2 accelerated to convergence; used in bounds only).
CATALAN = 0.915965594177219015054603514932

_PI = math.pi


def ti2(t):
    """Inverse tangent integral Ti2(t) = int_0^t arctan(u)/u du = Im Li2(i t)
    for finite t >= 0, within 5e-16 relative.  On t <= 1 it is
    int_0^1 arctan(t u)/u du by a 20-node Gauss-Legendre rule, whose
    integrand is analytic on a Bernstein ellipse of parameter 4.6 about
    [0, 1]; beyond, Ti2(t) = Ti2(1/t) + (pi/2) log t.  Each point is summed
    on its own, node by node, so its bits do not depend on the batch.
    NaN, +inf and t < 0 raise DomainError."""
    return _scalar_or_array(_ti2, _finite("ti2", t, low=0.0))


@lru_cache(maxsize=None)
def _ti2_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 20-node Gauss-Legendre rule on [0, 1] as two columns, the nodes u
    and the weights over u, built on the first call of _ti2."""
    g, w = np.polynomial.legendre.leggauss(20)
    u = 0.5 * (g + 1.0)
    return u[:, None], (0.5 * w / u)[:, None]


#: points per block of _ti2, whose (20, block) array of terms is 640 KiB
_TI2_BLOCK = 4096
#: below this Ti2(a) is a to the last bit (a^3/9 is under its half ulp),
#: and a*u, subnormal far below it, would lose digits
_TI2_LINEAR = 1e-150


def _ti2(t: np.ndarray) -> np.ndarray:
    """Ti2 on a float array of t >= 0, unchecked.  The terms of a block,
    one row per node, are formed by three ufunc calls and summed row by
    row, so each point's sum runs over the nodes in the same order
    whatever its block."""
    shape, t = t.shape, t.ravel()
    big = t > 1.0
    a = t.copy()
    a[big] = 1.0 / t[big]
    u, wu = _ti2_rule()
    acc = np.zeros_like(a)
    terms = np.empty((u.shape[0], min(a.size, _TI2_BLOCK)))
    for i in range(0, a.size, _TI2_BLOCK):
        ab, sb = a[i:i + _TI2_BLOCK], acc[i:i + _TI2_BLOCK]
        tb = terms[:, :ab.size]
        np.arctan(np.multiply(u, ab, out=tb), out=tb)
        tb *= wu
        for row in tb:
            sb += row
    tiny = a < _TI2_LINEAR
    acc[tiny] = a[tiny]
    acc[big] += 0.5 * _PI * np.log(t[big])
    return acc.reshape(shape)


#: beyond this, 1 + a^2 is a^2 to the last bit, and a*a soon overflows
_BIG = 1e150


def _split_big(a: np.ndarray, big_fn, fn) -> np.ndarray:
    """fn(a), with big_fn run instead on the entries above _BIG alone."""
    big = a > _BIG
    if not big.any():
        return fn(a)
    out = np.empty_like(a)
    out[big], out[~big] = big_fn(a[big]), fn(a[~big])
    return out


def _log1p_sq(a: np.ndarray) -> np.ndarray:
    """log(1 + a^2) on a float array of finite a, 2 log a beyond _BIG."""
    return _split_big(a, lambda b: 2.0 * np.log(b), lambda b: np.log1p(b * b))


def _eta_pos(a: np.ndarray) -> np.ndarray:
    """eta on a float array of finite a > 0, unchecked."""
    return 0.25 * _log1p_sq(a) - (np.arctan(a) * np.log(a) - _ti2(a)) / _PI


def eta(t):
    """eta(t) = log(1+t^2)/4 - (1/pi) int_0^t log|s|/(1+s^2) ds, any real t.

    For t > 0 the integral has the closed form arctan(t) log t - Ti2(t);
    negative arguments use eta(-t) = -eta(t) + log sqrt(1+t^2).  Finite
    at every finite t; NaN and +-inf raise DomainError.
    """
    return _scalar_or_array(_eta, _finite("eta", t))


def _eta(t: np.ndarray) -> np.ndarray:
    """eta on a float array of finite t, unchecked."""
    a = np.abs(t)
    res = np.zeros_like(a)
    pos = a > 0
    res[pos] = _eta_pos(a[pos])
    return np.where(t < 0, 0.5 * _log1p_sq(a) - res, res)


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
    _finite("b_complex", (z.real, z.imag))
    if z.real < 0.0 and z.imag < 0.0:
        raise DomainError("b_complex is restricted to Re z >= 0 or Im z >= 0")
    if z.imag == 0.0:
        t = z.real
        return complex(eta(t), math.atan(-t) if t < 0.0 else 0.0)
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13)
    return integrate(lambda v: np.log(z + v) / (1.0 + v * v),
                     (0.0, math.inf), spec, points=[abs(z)]) / _PI
