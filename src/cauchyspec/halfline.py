"""Spectral apparatus of the Cauchy process killed on leaving (0, inf).

The free pieces all derive from the generalized eigenfunctions

    psi(lam, x) = sin(lam*x + pi/8) - r(lam*x),        x > 0,

where the remainder r is the Laplace transform of the positive weight

    w(t) = sqrt(2)/(2 pi) * t/(1+t^2) * exp(-eta(t)),

equivalently  w(t) = sqrt(2)/(2 pi) * t^{1+arctan(t)/pi} (1+t^2)^{-5/4}
e^{-Ti2(t)/pi}.  From psi follow the Laplace transform identity, the exit
kernel f, the killed heat kernel in closed and spectral form, the exit-time
law, and the transform Pi diagonalizing the killed semigroup (an involution
up to the factor pi/2).

Evaluation strategy: Laplace transforms of the w-family are defined by a
fixed composite Gauss rule over logarithmic t-panels (built lazily once)
plus two closed forms, a head c t below the first panel and a t^{-3/2}
tail beyond the last, so the rule holds for every finite x >= 0.  The
head's incomplete gamma function is computed in numpy; the tail, 0.0 from
x = 5e-8 on, takes scipy's erfc below that, so scipy.special is loaded
only there: in a table build, or for r at x <= 1e-12.  Two functions are
read from one kind of table, piecewise-Chebyshev in log x, and evaluated
by one Clenshaw loop; other points go through the formula itself.  The
coefficients ship with the package as .npy files in ``tables/``, loaded on
a table's first read: no process samples a formula or builds the Laplace
rule to read a table, and values read from one do not depend on scipy.
``_LogChebTable.build`` makes them from the defining formula (sampled at
Chebyshev points, transformed by numpy's FFT), and a test checks that each
file holds its build bit for bit.  The remainder r, which sits under psi,
Pi, the spectral heat kernel and the interval eigenfunctions, is read on
1e-12 < x < 1e4 from (1+x)^2 r(x) (32 panels per decade, degree 6), within
a few ulps of the rule.  The exit kernel f, which sits in every heat-kernel
and exit-law integrand, is read on 1e-12 < s < 1e12 from f(s) (1+s)^{3/2}/s
(16 panels per decade, degree 8), within 1e-14 relative of its closed form
through Ti2 and about twice as cheap per point.  Narrow panels keep the
degree, and so a read's Clenshaw steps, low.

Working set: every large evaluation runs in blocks of _TABLE_BLOCK (32768)
points.  A table read runs each block's Clenshaw recurrence in place in
three arrays, the Laplace rule takes 17 points per block of its
exponential matrix, whose entries that underflow it sets to 0.0 rather
than computing them, and :func:`pi_transform` takes its outputs in column
blocks of about _TABLE_BLOCK pairs through two reused buffers, so its
traced peak stays near 2.5 MiB however large the grid.  Table reads and
psi are elementwise, and the rule sums each row of its matrix on its own
(numpy's pairwise sum), so every block leaves every bit as the whole-array
formula gives it: a point's r is the same alone and in any batch.

Everything else runs through the adaptive engine in
:mod:`.quadrature`.  The exit law has one integration path: the masses of
the exit density f(s/x)/s over (0, t_1), (t_1, t_2), ... form one batch of
integrals, which gives survival at one time and the survival column of
:func:`exit_law` alike.  So has the closed-form heat kernel: the correction
integrals of any set of (x, y) pairs form one batch, of one pair for a
scalar :func:`heat_kernel`, of a 1-D y for an array call and of every cell
for :func:`heat_kernel_table`, whose square tables (xs equal to ys) hold
the cells on and above the diagonal alone and mirror them.

Public functions check their arguments by the input rules of :mod:`.errors`
and call unchecked kernels, which the numerics call directly; ``_psi``,
psi(1, .) on an array, is the only place the formula of psi is written.
Results are plain floats and arrays: psi and r at a point come from
:func:`psi` and :func:`remainder`, a heat-kernel table is a (len(xs),
len(ys)) array and the exit law a (density, survival) pair.
"""

from __future__ import annotations

import math
import os
from functools import cached_property, lru_cache

import numpy as np
import scipy       # scipy.special, for erfc alone, loads on its first read

from .errors import (DomainError, GridTooCoarse, PoleError, _finite,
                     _increasing, _positive, _scalar_or_array)
from .quadrature import (GridFunction, QuadratureSpec, integrate,
                         integrate_many)
from .specialfun import _eta_pos, _split_big, b_complex, eta, ti2

__all__ = [
    "remainder", "psi", "laplace_psi", "f_exit", "exit_density", "survival",
    "heat_kernel", "heat_kernel_spectral", "pi_transform", "heat_kernel_table",
    "exit_law",
]

_PI = math.pi
_SQ2_2PI = math.sqrt(2.0) / (2.0 * _PI)
_SIN_PI8 = math.sin(_PI / 8.0)
_TINY = float(np.finfo(float).tiny)     # smallest normal float

#: uniform bound on |psi|, used in spectral truncation (true sup is < 1.14)
PSI_SUP = 1.14


def remainder_weight(t, form: str = "eta"):
    """The Laplace weight of the remainder, in either of its two equivalent
    written forms ("eta" or "ti2"); both vanish for t <= 0."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros_like(t)
    p = t > 0
    tp = t[p]
    if form == "eta":
        out[p] = _SQ2_2PI * tp / (1.0 + tp * tp) * np.exp(-eta(tp))
    elif form == "ti2":
        out[p] = (_SQ2_2PI * tp ** (1.0 + np.arctan(tp) / _PI)
                  * (1.0 + tp * tp) ** -1.25 * np.exp(-ti2(tp) / _PI))
    else:
        raise DomainError(f"unknown weight form {form!r}")
    return out


#: range and Gauss order of the octave panels of the Laplace rule
_RULE_LO, _RULE_HI = 1e-13, 1e10
_RULE_ORDER = 24


@lru_cache(maxsize=None)
def _laplace_rule():
    """Composite Gauss rule on octave panels of (_RULE_LO, _RULE_HI), with
    the remainder weight pre-evaluated.  Returns (nodes, weighted values,
    T, amplitude), T being the end of the last panel, where the amplitude
    w(T) T^{3/2} calibrates the analytic t^{-3/2} tail beyond it."""
    gx, gw = np.polynomial.legendre.leggauss(_RULE_ORDER)
    n_oct = int(math.ceil(math.log2(_RULE_HI / _RULE_LO)))
    edges = _RULE_LO * 2.0 ** np.arange(n_oct + 1)
    a, b = edges[:-1], edges[1:]
    ts = (0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * gx).ravel()
    ws = (0.5 * (b - a)[:, None] * gw).ravel()
    t_end = float(edges[-1])             # octave doubling overshoots _RULE_HI
    amp = float(remainder_weight(t_end)[0]) * t_end**1.5
    return ts, ws * remainder_weight(ts), t_end, amp


#: 1/(k! (k+2)) for k < 18, the Taylor coefficients of P(2, y)/y^2 in -y;
#: the first one left out is under a quarter ulp of the sum for y < 1
_P2_SERIES = tuple(1.0 / (math.factorial(k) * (k + 2)) for k in range(18))


def _gamma_p2(y: np.ndarray) -> np.ndarray:
    """The regularized incomplete gamma function P(2, y) = 1 - e^{-y}(1 + y)
    on a float array of finite y >= 0, within a few ulps: by Horner on its
    Taylor series, y^2 sum (-y)^k/(k! (k+2)), for y < 1, where the closed
    form cancels, and as -expm1(-y) - y e^{-y} from y = 1 on."""
    out = np.empty_like(y)
    low = y < 1.0
    yl = y[low]
    s = np.full_like(yl, _P2_SERIES[-1])
    for c in _P2_SERIES[-2::-1]:
        s *= -yl
        s += c
    out[low] = yl * yl * s
    yh = y[~low]
    out[~low] = -np.expm1(-yh) - yh * np.exp(-yh)
    return out


def _head(x: np.ndarray) -> np.ndarray:
    """int_0^_RULE_LO w(t) e^{-t x} dt in closed form.  There
    w(t) = c t (1 + O(t log t)), c = sqrt(2)/(2 pi), so the head is
    c P(2, _RULE_LO x)/x^2 with P the regularized incomplete gamma function
    (:func:`_gamma_p2`), accurate where _RULE_LO x is tiny.  c/x/x keeps x^2
    from overflowing; below x = 1, where the head is c _RULE_LO^2/2 to 1e-13
    relative, x is read as 1 so that c/x/x stays finite."""
    x = np.maximum(x, 1.0)
    return _SQ2_2PI / x / x * _gamma_p2(_RULE_LO * x)


#: e^{-y} rounds to 0.0 for every y above this (from about 745.14 on)
_EXP_ZERO = 746.0


def _tail(x: np.ndarray, T: float) -> np.ndarray:
    """int_T^inf t^{-3/2} e^{-t x} dt, in closed form via erfc:
    2 e^{-x T}/sqrt(T) - 2 sqrt(pi x) erfc(sqrt(x T)).  Both terms, and so
    the tail, are 0.0 once x T passes _EXP_ZERO; only the points below it
    reach erfc, whose scipy.special is loaded on that first use."""
    out = np.zeros_like(x)
    near = x * T <= _EXP_ZERO
    if near.any():
        xn = x[near]
        rT = math.sqrt(T)
        out[near] = (2.0 * np.exp(-xn * T) / rT - 2.0 * np.sqrt(_PI * xn)
                     * scipy.special.erfc(np.sqrt(xn) * rT))
    return out


#: points per block of a table evaluation, which bounds its temporaries
_TABLE_BLOCK = 1 << 15


def _laplace_of_weight(x: np.ndarray) -> np.ndarray:
    """int_0^inf w(t) e^{-t x} dt for a batch of x > 0.

    The panel rule covers (1e-13, 1e10); the head below it (:func:`_head`)
    and the tail beyond it, with the calibrated t^{-3/2} asymptotics of the
    weight (relative accuracy ~ log(T)/T there), are added in closed form.
    So values hold for every finite x > 0, from x = 0+ with no truncation
    floor out to where r underflows, the head carrying all of r beyond
    x ~ 1e15.  e^{-t x} underflows to 0 on the whole rule once 1e-13 x
    passes about 745, so the rule and the tail read x capped at 1e3/1e-13,
    which keeps t x finite.
    """
    t, wt, T, amp = _laplace_rule()
    xr = np.minimum(x, 1e3 / _RULE_LO)
    out = np.empty_like(x)
    block = _TABLE_BLOCK // t.size       # 17 rows
    e = np.empty((min(block, x.size), t.size))
    for i in range(0, x.size, block):
        xb = xr[i:i + block]
        eb = e[:xb.size]
        # t ascends, so past the first column whose x_min t passes
        # _EXP_ZERO every entry is 0.0, which np.exp reaches slowly
        n = np.searchsorted(xb.min() * t, _EXP_ZERO, side="right")
        live = eb[:, :n]
        np.multiply(xb[:, None], t[:n], out=live)
        np.negative(live, out=live)
        np.exp(live, out=live)
        live *= wt[:n]
        eb[:, n:] = 0.0
        eb.sum(axis=1, out=out[i:i + block])
    return out + amp * _tail(xr, T) + _head(x)


class _LogChebTable:
    """A function fn, read on lo < x < hi from piecewise-Chebyshev
    interpolants of g = scale * fn in u = log x: per_decade panels per
    decade (lo and hi a whole number of decades apart), one interpolant of
    the given degree (at least 2) each.

    The coefficients are kept as one contiguous array per degree, which
    :meth:`read` gathers by panel for Clenshaw.  A table with a ``file``
    loads them, on its first read, from that .npy file in the package's
    ``tables`` directory, written by :meth:`build`; one without builds them
    then."""

    def __init__(self, fn, scale, lo: float, hi: float, per_decade: int,
                 degree: int, file: str | None = None):
        self.fn, self.scale = fn, scale
        self.lo, self.hi, self.per_decade = lo, hi, per_decade
        self.degree = degree
        self.u0 = math.log(lo)
        self.h = math.log(10.0) / per_decade
        self.panels = round(math.log10(hi / lo)) * per_decade
        self.file = None if file is None else os.path.join(
            os.path.dirname(__file__), "tables", file)

    @cached_property
    def cols(self) -> tuple[np.ndarray, ...]:
        return self.build() if self.file is None else tuple(np.load(self.file))

    def build(self) -> tuple[np.ndarray, ...]:
        """The coefficient columns from fn itself, which are what a table's
        file holds: ``np.save(table.file, np.array(table.build()))``
        writes it.  g is sampled at the first-kind Chebyshev points of all
        panels in one call of fn, each sample the one fn gives that point
        alone.  The DCT-II of all panels is one real FFT of their even
        extensions, each coefficient k turned by e^{-i pi k/(2m)} (the basis
        is not formed by recurrence, whose rounding would cost a digit).
        When g is bounded and analytic in u the interpolants converge
        geometrically to the rounding level of fn."""
        m = self.degree + 1
        s = np.cos(_PI * (np.arange(m) + 0.5) / m)
        k = np.arange(self.panels)[:, None]
        x = np.exp(self.u0 + self.h * (k + 0.5 * (s + 1.0))).ravel()
        g = (self.scale(x) * self.fn(x)).reshape(self.panels, m)
        ext = np.fft.rfft(np.concatenate((g, g[:, ::-1]), axis=1))[:, :m]
        coef = (ext * np.exp(-0.5j * _PI * np.arange(m) / m)).real / m
        coef[:, 0] *= 0.5
        return tuple(np.ascontiguousarray(col) for col in coef.T)

    def read(self, x: np.ndarray) -> np.ndarray:
        """fn(x) for lo < x < hi, by Clenshaw on the panel of each point,
        _TABLE_BLOCK points at a time.  The recurrence
        b1 <- c_j + 2s b1 - b2 runs in place in b1, b2 and t (which is free
        once the panel k and 2s are read off it), one gathered c_j being
        the only new array of a step; its first step, where b2 = 0, skips
        the subtraction.  Every bit is as in the plain form."""
        cols = self.cols
        out = np.empty_like(x)
        for i in range(0, x.size, _TABLE_BLOCK):
            xb = x[i:i + _TABLE_BLOCK]
            t = (np.log(xb) - self.u0) / self.h
            # truncation sends a t rounded just below 0 to panel 0; the top
            # of the range, x = hi, has t = panels, one past the last panel
            k = np.minimum(t.astype(np.intp), self.panels - 1)
            s2 = 4.0 * (t - k) - 2.0                 # 2 s, s in [-1, 1]
            b2 = cols[-1][k]
            b1 = s2 * b2
            b1 += cols[-2][k]
            for col in cols[-3:0:-1]:
                np.multiply(s2, b1, t)
                t += col[k]
                b1, b2 = np.subtract(t, b2, b2), b1
            np.multiply(0.5 * s2, b1, t)
            t += cols[0][k]
            t -= b2
            out[i:i + _TABLE_BLOCK] = t / self.scale(xb)
        return out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """fn on a float array: read from the table inside (lo, hi), which
        is loaded or built on first use there, and computed by fn at the
        other points."""
        inside = (x > self.lo) & (x < self.hi)
        n = np.count_nonzero(inside)
        if n == 0:
            return self.fn(x)
        if n == x.size:
            return self.read(x)
        out = np.empty_like(x)
        out[inside] = self.read(x[inside])
        out[~inside] = self.fn(x[~inside])
        return out


def _remainder_by_rule(x: np.ndarray) -> np.ndarray:
    """r on a float array of finite x >= 0 through the Laplace rule, with
    r(0) = sin(pi/8) exactly."""
    out = np.full_like(x, _SIN_PI8)
    p = x > 0.0
    if p.any():
        out[p] = _laplace_of_weight(x[p])
    return out


#: r as (1+x)^2 r(x), which lies between about 0.2 and 0.4, on
#: (1e-12, 1e4), 32 panels per decade of degree 6: within 1.5e-15 of the
#: rule on 40001 geometric points and 1.3e-15 at the panel edges
_R_TABLE = _LogChebTable(_remainder_by_rule, lambda x: (1.0 + x) ** 2,
                         1e-12, 1e4, 32, 6, "remainder.npy")


def remainder(x):
    """The remainder r(x) = int_0^inf w(t) e^{-tx} dt for finite x >= 0
    (scalar or array).  r(0) = sin(pi/8) exactly; r is totally monotone and
    bounded by sqrt(2)/(2 pi x^2).

    On 1e-12 < x < 1e4 the value comes from a piecewise-Chebyshev table of
    (1+x)^2 r(x) in log x, built from the Laplace rule, shipped with the
    package and loaded on first use; it is within 4e-15 relative of the rule
    at a small fraction of the rule's cost per point.  Every other x goes
    through the rule, built on first use there, and its closed-form head and
    tail, which keep it accurate down to x = 0+ and out to where r
    underflows to 0.0, with no overflow on the way.
    NaN and +-inf raise DomainError."""
    return _scalar_or_array(_remainder, _finite("remainder", x, low=0.0))


def _remainder(x: np.ndarray) -> np.ndarray:
    """r on a float array of finite x >= 0, unchecked."""
    return _R_TABLE(x)


def _psi(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """psi(1, x) on a float array of finite x, unchecked: sin(x + pi/8) - r(x)
    on the whole array (r at |x| if some x <= 0), then 0 where x <= 0, which
    is cheaper than gathering the positive points.  The sine and the
    difference are formed in one array: ``out``, of x's shape and apart from
    x, when it is given."""
    out = np.sin(np.add(x, _PI / 8.0, out=out), out=out)
    out -= _remainder(
        np.abs(x).ravel() if (x <= 0.0).any() else x.ravel()).reshape(x.shape)
    out[x <= 0.0] = 0.0
    return out


def psi(lam: float, x):
    """Generalized eigenfunction psi(lam, x) = sin(lam x + pi/8) - r(lam x)
    for x > 0, and 0 for x <= 0.  Scales as psi(lam, x) = psi(1, lam*x).
    lam must be positive and every lam*x finite; a product that overflows
    is rejected by that rule alone, with no numpy warning."""
    _positive("lam", lam)
    with np.errstate(over="ignore"):
        lx = lam * np.asarray(x, float)
    return _scalar_or_array(_psi, _finite("psi", lx))


def laplace_psi(lam: float, z: complex) -> complex:
    """Laplace transform of psi(lam, .):
    (sqrt(2)/2) * lam * e^{b(z/lam)} / (lam^2 + z^2)  for finite z with
    Re z > 0."""
    z = complex(z)
    _positive("lam and Re z", lam, z.real)
    _finite("laplace_psi", z.imag)
    if abs(z - 1j * lam) < 1e-14 * lam or abs(z + 1j * lam) < 1e-14 * lam:
        raise PoleError("z coincides with a pole at +-i lam")
    return complex((math.sqrt(2.0) / 2.0) * lam * np.exp(b_complex(z / lam))
                   / (lam * lam + z * z))


def f_exit(s):
    """Exit kernel f(s) = (1/pi) s/(1+s^2) e^{eta(s)} for s >= 0 (vanishes
    at 0, positive and bounded).  Equals s^{1-arctan(s)/pi} (1+s^2)^{-3/4}
    e^{Ti2(s)/pi} / pi, finite at every finite s.

    On 1e-12 < s < 1e12 the value comes from a piecewise-Chebyshev table of
    f(s) (1+s)^{3/2}/s in log s, built from that closed form, shipped with
    the package and loaded on first use, within 1e-14 relative of it; every
    other s goes through the closed form.  NaN, +inf and s < 0 raise
    DomainError."""
    return _scalar_or_array(_f, _finite("f_exit", s, low=0.0))


def _f_closed(s: np.ndarray) -> np.ndarray:
    """The exit kernel f on a float array of finite s >= 0 in closed form,
    through Ti2; far out, where s*s overflows, s/(pi (1+s^2)) is
    (1/pi)/s."""
    out = np.zeros_like(s)
    p = s > 0
    sp = s[p]
    w = _split_big(sp, lambda b: 1.0 / _PI / b,
                   lambda b: b / (_PI * (1.0 + b * b)))
    out[p] = w * np.exp(_eta_pos(sp))
    return out


#: f as q(s) = f(s) (1+s)^{3/2}/s, bounded and analytic in log s, on
#: (1e-12, 1e12), 16 panels per decade of degree 8, within 7.6e-15 of the
#: closed form on 200001 geometric points: arctan's branch points lie only
#: pi/2 off the real log s axis, and degree 7, or 8 panels per decade, reach
#: 9e-14 and 1e-12
_F_TABLE = _LogChebTable(_f_closed,
                         lambda s: (1.0 + s) * np.sqrt(1.0 + s) / s,
                         1e-12, 1e12, 16, 8, "f_exit.npy")


def _f(s: np.ndarray) -> np.ndarray:
    """The exit kernel f on a float array of finite s >= 0, unchecked."""
    return _F_TABLE(s)


def _f_over_s(s, x: float):
    """f(s/x)/s on a float array of finite s >= 0, extended continuously by
    1/(pi x) at s = 0; unchecked."""
    out = np.full_like(s, 1.0 / (_PI * x))
    p = s > 0
    out[p] = _f(s[p] / x) / s[p]
    return out


def _check_exit(x: float, t) -> None:
    """DomainError unless x and every t are positive and finite and so is
    every t/x, the one argument the exit law depends on (density(x, t) =
    density(1, t/x)/x); an overflowing t/x is rejected by that rule, with
    no numpy warning."""
    _positive("x and t", x, t)
    with np.errstate(over="ignore"):
        _finite("exit law (t/x)", np.asarray(t, float) / x)


def exit_density(x: float, t):
    """Density of the first exit time from (0, inf) started at x:
    f(t/x)/t.  Scales as density(x, t) = density(1, t/x)/x.  x and every t
    must be positive and finite, and every t/x finite."""
    _check_exit(x, t)
    return _scalar_or_array(lambda s: _f_over_s(s, x), t)


def _survival(x: float, ts) -> np.ndarray:
    """Survival at increasing ts, clipped to [0, 1]: 1 minus the running sum
    of the exit-density masses of (0, t_1), (t_1, t_2), ..., one batch of
    integrals to 1e-12.  The decades of x seed the first interval:
    the s^(-3/2) tail of f(s/x)/s sits within a few multiples of x, where
    the nodes of one wide panel [x, t_1] would never look.  For the same
    reason the decades t_i 10^k inside (t_i, t_{i+1}) seed each later
    interval, whose mass sits near t_i; an interval less than a decade wide
    has none."""
    edges = [0.0, *ts]
    seeds = [[x * 10.0**k for k in range(int(math.log10(ts[0] / x)) + 1)]]
    seeds += [[a * 10.0**k for k in range(1, int(math.log10(b / a)) + 1)]
              for a, b in zip(ts[:-1], ts[1:])]
    masses = integrate_many(lambda s, rows: _f_over_s(s, x),
                            list(zip(edges[:-1], edges[1:])), points=seeds)
    return np.clip(1.0 - np.cumsum(masses), 0.0, 1.0)


def survival(x: float, t: float) -> float:
    """P(exit time > t) for the process started at x > 0:
    1 - int_0^t f(s/x)/s ds, integrated to 1e-12.  Decreasing in t, between
    0 and 1, and at least (2/pi) arctan(x/t); x, t and t/x must be positive
    and finite."""
    _check_exit(x, t)
    return float(_survival(x, [t])[0])


#: tolerance of the correction integral of the closed-form heat kernel
_HEAT_SPEC = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12)


def _heat_kernels(t: float, x: np.ndarray, y: np.ndarray,
                  spec: QuadratureSpec) -> np.ndarray:
    """p^D_t(x_i, y_i) for paired 1-D arrays x and y of positive, finite
    points, the correction integrals of all pairs run as one
    :func:`integrate_many` batch, each value bit for bit the one its
    integral gives alone; unchecked.  The integrand f(s/x) f((t-s)/y) /
    (s y + (t-s) x) carries the factor 1/(x y), so the tolerance applies
    to the kernel value itself however close to the boundary x and y are."""
    def integrand(s, rows):
        xr, yr = x[rows, None], y[rows, None]
        fab = _f(np.abs(np.concatenate((s / xr, (t - s) / yr))))
        return fab[:len(s)] * fab[len(s):] / (s * yr + (t - s) * xr)

    corr = integrate_many(integrand, [(0.0, t)] * x.size, spec)
    return _free_kernel(t, x - y) - corr


def _free_kernel(t: float, d: np.ndarray) -> np.ndarray:
    """The free Cauchy kernel p_t(d) = t / (pi (t^2 + d^2)) for t > 0 on a
    float array of finite d, by that formula wherever pi (t^2 + d^2) is a
    finite normal number.  Elsewhere t^2 has underflowed (tiny t near the
    diagonal) or d^2 overflowed (far off it), and the value is
    (t/a) / (pi a) / (1 + (b/a)^2) with a = max(t, |d|) and b = min(t, |d|):
    at most 1/(pi t), which it is at d = 0, and finite wherever 1/(pi t) is
    below the largest float."""
    with np.errstate(over="ignore"):
        den = _PI * (t * t + d * d)
    out = np.empty_like(d)
    ok = (den >= _TINY) & (den < math.inf)
    out[ok] = t / den[ok]
    if not ok.all():
        ad = np.abs(d[~ok])
        a, r = np.maximum(ad, t), np.minimum(ad, t)
        r /= a
        with np.errstate(over="ignore"):
            out[~ok] = t / a / (_PI * a) / (1.0 + r * r)
    return out


def heat_kernel(t: float, x: float, y, spec: QuadratureSpec | None = None):
    """Killed transition density p^D_t(x, y), closed form:

        p_t(x-y) - (1/(xy)) int_0^t f(s/x) f((t-s)/y) / (s/x + (t-s)/y) ds

    with p_t the free Cauchy kernel.  Symmetric in (x, y), between 0 and
    p_t(x-y), with the scaling b*p^D_{bt}(bx, by) = p^D_t(x, y).

    y is a scalar, which gives a float, or a 1-D array, which gives an
    array: its correction integrals run as one batch, each value bit for bit
    the scalar call's.  t, x and every y must be positive and finite; they
    are checked before any integral runs.
    """
    if np.ndim(y) > 1:
        raise DomainError("y must be a scalar or a 1-D array")
    _positive("t, x and y", t, x, y)
    return _scalar_or_array(lambda ys: _heat_kernels(
        float(t), np.full(ys.size, float(x)), ys, spec or _HEAT_SPEC), y)


def heat_kernel_spectral(t: float, x: float, y: float,
                         tol: float = 1e-9) -> float:
    """p^D_t(x, y) through the eigenfunction expansion
    (2/pi) int_0^inf psi(lam,x) psi(lam,y) e^{-lam t} dlam.

    The integral is truncated at L chosen so the tail bound
    (2/pi) PSI_SUP^2 e^{-L t}/t falls below tol/2; agreement with the
    closed form is limited only by the quadrature tolerance.  When that L is
    not positive the whole expansion is below tol/2 and the value is 0.0.
    t and tol must be positive and finite, x and y finite, and L finite.
    """
    _positive("t and tol", t, tol)
    _finite("heat_kernel_spectral", (x, y))
    if x <= 0 or y <= 0:
        return 0.0                      # psi vanishes off the half-line
    lam_max = math.log(2.0 * PSI_SUP**2 / (_PI * t * 0.5 * tol)) / t
    _finite("the truncation point L", lam_max)
    if lam_max <= 0.0:
        return 0.0
    spec = QuadratureSpec(abs_tol=0.5 * tol, rel_tol=0.5 * tol,
                          max_subdivisions=int(200 + 40 * lam_max * (x + y)))

    def integrand(lam):
        return (2.0 / _PI) * _psi(lam * x) * _psi(lam * y) * np.exp(-lam * t)

    pts = [k / t for k in (0.5, 1, 2, 4, 8) if k / t < lam_max]
    return integrate(integrand, (0.0, lam_max), spec, points=pts)


def pi_transform(f: GridFunction, out_nodes: np.ndarray) -> GridFunction:
    """The transform (Pi f)(x) = int f(lam) psi(lam, x) dlam, evaluated with
    the grid's own quadrature weights.

    The kernel oscillates in the input coordinate with frequency given by
    the output coordinate, so the hard resolvability constraint couples the
    two ranges through the smaller one (contributions at the far end of the
    larger range decay and only matter in absolute error): the input spacing
    must not exceed pi / (8 * min(max input node, max output node)), else
    :class:`GridTooCoarse` is raised.  Applying the transform twice returns
    (pi/2) times the original function.  Beyond the hard floor, accuracy is
    grid-dependent and must be measured, not assumed.  A negative input
    node, or output nodes other than a strictly increasing 1-D array of at
    least two finite, positive points, raise :class:`DomainError`.

    The outputs are taken in column blocks of _TABLE_BLOCK pairs, rounded
    down to a multiple of 8 outputs (:func:`_pi_width`): for each, lam_i x_j
    and psi of it are formed in two reused buffers and ``coef @ K`` is one
    BLAS product, which with one BLAS thread and that multiple of 8 matched
    a full-width product bit for bit on every grid tried.  The traced peak
    is 2.5 MiB at 2001 nodes and 916 outputs and 2.6 MiB at 9167.
    """
    _finite("input nodes", f.nodes, low=0.0)
    out = _increasing("output nodes", out_nodes, 2)
    _positive("output nodes", out)
    lam_max = min(float(f.nodes.max()), float(out.max()))
    if f.spacing() > _PI / (8.0 * lam_max) + 1e-15:
        raise GridTooCoarse(
            f"input spacing {f.spacing():.4g} exceeds pi/(8*{lam_max:.4g})")
    lam, coef = f.nodes[:, None], f.weights * f.values
    width = _pi_width(lam.size)
    buf = np.empty((2, lam.size * min(width, out.size)))
    vals = np.empty_like(out)
    for j in range(0, out.size, width):
        xb = out[j:j + width]
        prod, K = buf[:, :lam.size * xb.size].reshape(2, lam.size, xb.size)
        vals[j:j + width] = coef @ _psi(np.multiply(lam, xb, out=prod), out=K)
    return GridFunction.from_samples(out, vals)


def _pi_width(nodes: int) -> int:
    """Outputs per column block of :func:`pi_transform` (8 at least)."""
    return max(8, _TABLE_BLOCK // nodes // 8 * 8)


def heat_kernel_table(t: float, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """p^D_t(x, y) for every x of xs and y of ys, two non-empty 1-D arrays
    of positive, finite points, as a (len(xs), len(ys)) array.

    All cells are one batch of correction integrals, each cell bit for bit
    the scalar :func:`heat_kernel`.  When xs equals ys the batch holds the
    pairs i <= j alone and the lower triangle is their mirror image, since
    p_t(x, y) = p_t(y, x); the table is then exactly symmetric.  t and every
    point are checked before any integral runs."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.ndim != 1 or ys.ndim != 1 or xs.size == 0 or ys.size == 0:
        raise DomainError("xs and ys must be non-empty 1-D arrays")
    _positive("t, xs and ys", t, xs, ys)
    t = float(t)
    if np.array_equal(xs, ys):
        i, j = np.triu_indices(xs.size)
        tab = np.empty((xs.size, xs.size))
        tab[i, j] = tab[j, i] = _heat_kernels(t, xs[i], xs[j], _HEAT_SPEC)
        return tab
    x, y = np.meshgrid(xs, ys, indexing="ij")
    return _heat_kernels(t, x.ravel(), y.ravel(), _HEAT_SPEC).reshape(x.shape)


def exit_law(x: float, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(density, survival) of the exit time started at x on a positive,
    increasing 1-D time grid.  Survival, clipped to [0, 1], is 1 minus the
    running sum of the exit-density masses between consecutive times, each
    integrated to 1e-12 as in :func:`survival`, so the two columns are
    consistent by construction and the survival column matches
    :func:`survival` to quadrature accuracy."""
    ts = _increasing("ts", ts, 1)
    dens = exit_density(x, ts)        # checks x, ts and ts/x
    return dens, _survival(x, ts.tolist())
