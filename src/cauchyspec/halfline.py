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
fixed composite Gauss rule over logarithmic t-panels plus a closed-form
t^{-3/2} tail (built lazily once).  The remainder r, which sits under psi,
Pi, the spectral heat kernel and the interval eigenfunctions, is read on
1e-12 < x < 1e4 from a piecewise-Chebyshev table of (1+x)^2 r(x) in log x
(2 panels per decade, degree 16), sampled from that rule on first use and
within a few ulps of it; points outside that range, and the derivatives of
r, go through the rule itself.  Everything else runs through the adaptive
engine in :mod:`.quadrature`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, GridTooCoarse, PoleError
from .quadrature import GridFunction, QuadratureSpec, integrate
from .specialfun import _finite, b_complex, eta

__all__ = [
    "EigenfunctionEval", "KernelTable", "ExitLaw",
    "remainder", "remainder_deriv", "psi", "psi_point", "laplace_psi",
    "f_exit", "exit_density", "survival", "heat_kernel",
    "heat_kernel_spectral", "pi_transform", "heat_kernel_table", "exit_law",
]

_PI = math.pi
_SQ2_2PI = math.sqrt(2.0) / (2.0 * _PI)
_SIN_PI8 = math.sin(_PI / 8.0)

#: uniform bound on |psi|, used in spectral truncation (true sup is < 1.14)
PSI_SUP = 1.14


@dataclass(frozen=True)
class EigenfunctionEval:
    """One evaluation of the generalized eigenfunction, split into its
    oscillatory part and the totally monotone remainder."""
    lam: float
    x: float
    psi: float
    remainder: float


@dataclass
class KernelTable:
    """Killed transition density p^D_t(x, y) tabulated on a grid pair."""
    t: float
    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray


@dataclass
class ExitLaw:
    """First-exit-time density and survival probability on a time grid,
    for the process started at x."""
    x: float
    ts: np.ndarray
    density: np.ndarray
    survival: np.ndarray


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
        from .specialfun import ti2
        out[p] = (_SQ2_2PI * tp ** (1.0 + np.arctan(tp) / _PI)
                  * (1.0 + tp * tp) ** -1.25 * np.exp(-ti2(tp) / _PI))
    else:
        raise ValueError(f"unknown weight form {form!r}")
    return out


@lru_cache(maxsize=None)
def _laplace_rule(t_lo: float = 1e-13, t_hi: float = 1e10, order: int = 24):
    """Composite Gauss rule on octave panels of (t_lo, t_hi), with the
    remainder weight pre-evaluated.  Returns (nodes, weighted values, t_hi,
    amplitude) where the amplitude w(t_hi) t_hi^{3/2} calibrates the
    analytic t^{-3/2} tail beyond the last panel."""
    gx, gw = np.polynomial.legendre.leggauss(order)
    n_oct = int(math.ceil(math.log2(t_hi / t_lo)))
    edges = t_lo * 2.0 ** np.arange(n_oct + 1)
    a, b = edges[:-1], edges[1:]
    ts = (0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * gx).ravel()
    ws = (0.5 * (b - a)[:, None] * gw).ravel()
    t_end = float(edges[-1])             # octave doubling overshoots t_hi
    amp = float(remainder_weight(t_end)[0]) * t_end**1.5
    return ts, ws * remainder_weight(ts), t_end, amp


def _tail_moment(x: np.ndarray, T: float, moment: int) -> np.ndarray:
    """int_T^inf t^{moment - 3/2} e^{-t x} dt, closed forms via erfc."""
    from scipy.special import erfc
    rT = math.sqrt(T)
    u = np.sqrt(x) * rT
    damp = np.exp(-x * T)
    if moment == 0:
        return 2.0 * damp / rT - 2.0 * np.sqrt(_PI * x) * erfc(u)
    if moment == 1:
        return np.sqrt(_PI / x) * erfc(u)
    # moment == 2
    return (0.5 * math.sqrt(_PI) * erfc(u) + u * damp) / x**1.5


def _laplace_of_weight(x: np.ndarray, moment: int = 0) -> np.ndarray:
    """int_0^inf t^moment w(t) e^{-t x} dt for a batch of x > 0.

    The panel rule covers (1e-13, 1e10); the remaining tail is added in
    closed form with the calibrated t^{-3/2} asymptotics of the weight
    (relative accuracy ~ log(T)/T there), so values stay accurate down to
    x = 0+ instead of hitting a truncation floor.
    """
    t, wt, T, amp = _laplace_rule()
    if moment:
        wt = wt * t**moment
    out = np.empty_like(x)
    block = 2048
    for i in range(0, x.size, block):
        out[i:i + block] = np.exp(-np.outer(x[i:i + block], t)) @ wt
    return out + amp * _tail_moment(x, T, moment)


#: range, panels per decade and degree of the remainder table
_TABLE_LO, _TABLE_HI = 1e-12, 1e4
_TABLE_PER_DECADE = 2
_TABLE_DEGREE = 16
_TABLE_U0 = math.log(_TABLE_LO)
_TABLE_H = math.log(10.0) / _TABLE_PER_DECADE
_TABLE_PANELS = round(math.log10(_TABLE_HI / _TABLE_LO)) * _TABLE_PER_DECADE
#: points per block of a table evaluation, which bounds its temporaries
_TABLE_BLOCK = 1 << 15


@lru_cache(maxsize=None)
def _remainder_table() -> tuple[np.ndarray, ...]:
    """Chebyshev coefficients of g(x) = (1+x)^2 r(x) in u = log x, one
    degree-16 interpolant per half-decade panel of (1e-12, 1e4), sampled
    from the Laplace rule at first-kind Chebyshev points one panel at a time
    and transformed by a DCT-II (the basis is not formed by recurrence,
    whose rounding would cost a digit).  g is analytic and between about 0.2
    and 0.4 there, so the interpolants converge geometrically to the
    rounding level of the rule.  Returned as one contiguous array per
    degree."""
    from scipy.fft import dct
    m = _TABLE_DEGREE + 1
    s = np.cos(_PI * (np.arange(m) + 0.5) / m)
    coef = np.empty((_TABLE_PANELS, m))
    for k in range(_TABLE_PANELS):
        x = np.exp(_TABLE_U0 + _TABLE_H * (k + 0.5 * (s + 1.0)))
        coef[k] = dct((1.0 + x) ** 2 * _laplace_of_weight(x), type=2) / m
    coef[:, 0] *= 0.5
    return tuple(np.ascontiguousarray(col) for col in coef.T)


def _remainder_from_table(x: np.ndarray) -> np.ndarray:
    """r(x) for 1e-12 < x < 1e4, by Clenshaw on the panel of each point."""
    cols = _remainder_table()
    out = np.empty_like(x)
    for i in range(0, x.size, _TABLE_BLOCK):
        xb = x[i:i + _TABLE_BLOCK]
        t = (np.log(xb) - _TABLE_U0) / _TABLE_H
        # truncation sends a t rounded just below 0 to panel 0; the top of
        # the range, x = 1e4, has t = _TABLE_PANELS, one past the last panel
        k = np.minimum(t.astype(np.intp), _TABLE_PANELS - 1)
        s2 = 4.0 * (t - k) - 2.0                 # 2 s, s in [-1, 1]
        b1 = cols[-1][k]
        b2 = np.zeros_like(xb)
        for col in cols[-2:0:-1]:
            b1, b2 = col[k] + s2 * b1 - b2, b1
        g = cols[0][k] + 0.5 * s2 * b1 - b2
        out[i:i + _TABLE_BLOCK] = g / (1.0 + xb) ** 2
    return out


def _check_positive(names: str, *values: float) -> None:
    """DomainError unless every value is positive and finite (NaN is not)."""
    if not all(0.0 < v < math.inf for v in values):
        raise DomainError(f"{names} must be positive and finite")


def remainder(x):
    """The remainder r(x) = int_0^inf w(t) e^{-tx} dt for finite x >= 0
    (scalar or array).  r(0) = sin(pi/8) exactly; r is totally monotone and
    bounded by sqrt(2)/(2 pi x^2).

    On 1e-12 < x < 1e4 the value comes from a piecewise-Chebyshev table of
    (1+x)^2 r(x) in log x, built on first use from the Laplace rule and
    within 4e-15 relative of it, at a small fraction of the rule's cost per
    point; every other x goes through the rule and its closed-form tail.
    NaN and +-inf raise DomainError."""
    x = _finite("remainder", x, low=0.0)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    table = (x > _TABLE_LO) & (x < _TABLE_HI)
    if table.all():
        out = _remainder_from_table(x)
    else:
        out = np.empty_like(x)
        out[table] = _remainder_from_table(x[table])
        zero = x == 0.0
        out[zero] = _SIN_PI8
        rule = ~(table | zero)
        if rule.any():
            out[rule] = _laplace_of_weight(x[rule])
    return float(out[0]) if scalar else out


def remainder_deriv(x, order: int = 1):
    """Derivative of the remainder of the given order (1 or 2), by
    differentiating under the Laplace integral.  Diverges at x = 0."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    x = _finite("remainder_deriv", x)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if np.any(x <= 0):
        raise DomainError("remainder_deriv requires x > 0 (moment integral "
                          "diverges at 0)")
    out = (-1.0) ** order * _laplace_of_weight(x, moment=order)
    return float(out[0]) if scalar else out


def psi(lam: float, x):
    """Generalized eigenfunction psi(lam, x) = sin(lam x + pi/8) - r(lam x)
    for x > 0, and 0 for x <= 0.  Scales as psi(lam, x) = psi(1, lam*x).
    lam must be positive and every x finite."""
    _check_positive("lam", lam)
    x = _finite("psi", x)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.zeros_like(x)
    pos = x > 0
    lx = lam * x[pos]
    out[pos] = np.sin(lx + _PI / 8.0) - remainder(lx)
    return float(out[0]) if scalar else out


def psi_point(lam: float, x: float) -> EigenfunctionEval:
    """Single-point evaluation with the remainder reported separately."""
    _check_positive("lam", lam)
    x = float(_finite("psi_point", x))
    if x <= 0:
        return EigenfunctionEval(lam, x, 0.0, 0.0)
    rr = float(remainder(lam * x))
    return EigenfunctionEval(lam, x, math.sin(lam * x + _PI / 8.0) - rr, rr)


def laplace_psi(lam: float, z: complex) -> complex:
    """Laplace transform of psi(lam, .):
    (sqrt(2)/2) * lam * e^{b(z/lam)} / (lam^2 + z^2)  for finite z with
    Re z > 0."""
    _check_positive("lam", lam)
    z = complex(z)
    if not (0.0 < z.real < math.inf and math.isfinite(z.imag)):
        raise DomainError("laplace_psi requires finite z with Re z > 0")
    if abs(z - 1j * lam) < 1e-14 * lam or abs(z + 1j * lam) < 1e-14 * lam:
        raise PoleError("z coincides with a pole at +-i lam")
    w = z / lam
    if w.imag == 0.0:
        bw = complex(eta(w.real), 0.0)       # closed form on the real axis
    else:
        bw = b_complex(w)
    return complex((math.sqrt(2.0) / 2.0) * lam * np.exp(bw)
                   / (lam * lam + z * z))


def f_exit(s):
    """Exit kernel f(s) = (1/pi) s/(1+s^2) e^{eta(s)} for s >= 0 (vanishes
    at 0, positive and bounded).  Equals s^{1-arctan(s)/pi} (1+s^2)^{-3/4}
    e^{Ti2(s)/pi} / pi.  NaN and +-inf raise DomainError."""
    s = _finite("f_exit", s, low=0.0)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    out = np.zeros_like(s)
    p = s > 0
    sp = s[p]
    out[p] = sp / (_PI * (1.0 + sp * sp)) * np.exp(eta(sp))
    return float(out[0]) if scalar else out


def _f_over_s(s, x: float):
    """f(s/x)/s extended continuously by 1/(pi x) at s = 0."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.full_like(s, 1.0 / (_PI * x))
    p = s > 0
    out[p] = f_exit(s[p] / x) / s[p]
    return out


def exit_density(x: float, t):
    """Density of the first exit time from (0, inf) started at x:
    f(t/x)/t.  Scales as density(x, t) = density(1, t/x)/x."""
    _check_positive("x", x)
    t = _finite("exit_density", t)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    if np.any(t <= 0):
        raise DomainError("t must be positive")
    out = f_exit(t / x) / t
    return float(out[0]) if scalar else out


def survival(x: float, t: float, spec: QuadratureSpec | None = None) -> float:
    """P(exit time > t) for the process started at x > 0:
    1 - int_0^t f(s/x)/s ds.  Decreasing in t, between 0 and 1, and at least
    (2/pi) arctan(x/t)."""
    _check_positive("x, t", x, t)
    spec = spec or QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
    mass = integrate(lambda s: _f_over_s(s, x), (0.0, t), spec, points=(x,))
    return 1.0 - mass


def exit_mass(x: float, horizon: float | None = None,
              tol: float = 1e-8) -> tuple[float, float]:
    """Total exit-density mass up to a certified horizon.

    Returns (mass up to T, analytic bound on the tail beyond T); the tail
    uses f(s)/s <= e^{C/pi}/(pi) (1+s^2)^{-3/4} <= e^{C/pi}/pi s^{-3/2},
    so  tail(T) <= 2 e^{C/pi} / (pi sqrt(T)).
    """
    _check_positive("x", x)
    from .specialfun import CATALAN
    c_tail = 2.0 * math.exp(CATALAN / _PI) / _PI
    if horizon is None:
        horizon = (c_tail / (0.1 * tol)) ** 2
    spec = QuadratureSpec(abs_tol=0.1 * tol, rel_tol=0.1 * tol,
                          max_subdivisions=20000)
    pts = [x * 10.0**k for k in range(0, int(math.log10(horizon / x)) + 1)]
    mass = integrate(lambda s: _f_over_s(s, x), (0.0, horizon), spec, points=pts)
    return mass, c_tail / math.sqrt(horizon)


def heat_kernel(t: float, x: float, y: float,
                spec: QuadratureSpec | None = None) -> float:
    """Killed transition density p^D_t(x, y), closed form:

        p_t(x-y) - (1/(xy)) int_0^t f(s/x) f((t-s)/y) / (s/x + (t-s)/y) ds

    with p_t the free Cauchy kernel.  Symmetric in (x, y), between 0 and
    p_t(x-y), with the scaling b*p^D_{bt}(bx, by) = p^D_t(x, y).
    """
    _check_positive("t, x, y", t, x, y)
    spec = spec or QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12)
    cauchy = t / (_PI * (t * t + (x - y) ** 2))

    def integrand(s):
        a = s / x
        b = (t - s) / y
        return f_exit(np.abs(a)) * f_exit(np.abs(b)) / (a + b)

    corr = integrate(integrand, (0.0, t), spec)
    return cauchy - corr / (x * y)


def heat_kernel_spectral(t: float, x: float, y: float,
                         tol: float = 1e-9) -> float:
    """p^D_t(x, y) through the eigenfunction expansion
    (2/pi) int_0^inf psi(lam,x) psi(lam,y) e^{-lam t} dlam.

    The integral is truncated at L chosen so the tail bound
    (2/pi) PSI_SUP^2 e^{-L t}/t falls below tol; agreement with the closed
    form is limited only by the quadrature tolerance.
    """
    _check_positive("t", t)
    _finite("heat_kernel_spectral", (x, y))
    if x <= 0 or y <= 0:
        return 0.0                      # psi vanishes off the half-line
    lam_max = math.log(2.0 * PSI_SUP**2 / (_PI * t * 0.5 * tol)) / t
    spec = QuadratureSpec(abs_tol=0.5 * tol, rel_tol=0.5 * tol,
                          max_subdivisions=int(200 + 40 * lam_max * (x + y)))

    def integrand(lam):
        return ((2.0 / _PI) * psi(1.0, lam * x) * psi(1.0, lam * y)
                * np.exp(-lam * t))

    pts = [k / t for k in (0.5, 1, 2, 4, 8) if k / t < lam_max]
    return integrate(integrand, (0.0, lam_max), spec, points=pts)


def pi_transform(f: GridFunction, out_nodes: np.ndarray | None = None) -> GridFunction:
    """The transform (Pi f)(x) = int f(lam) psi(lam, x) dlam, evaluated with
    the grid's own quadrature weights.

    The kernel oscillates in the input coordinate with frequency given by
    the output coordinate, so the hard resolvability constraint couples the
    two ranges through the smaller one (contributions at the far end of the
    larger range decay and only matter in absolute error): the input spacing
    must not exceed pi / (8 * min(max input node, max output node)), else
    :class:`GridTooCoarse` is raised.  Applying the transform twice returns
    (pi/2) times the original function.  Beyond the hard floor, accuracy is
    grid-dependent and must be measured, not assumed.
    """
    out = np.asarray(f.nodes if out_nodes is None else out_nodes, dtype=float)
    if np.any(out <= 0):
        raise DomainError("output nodes must be positive")
    lam_max = min(float(f.nodes.max()), float(out.max()))
    if f.spacing() > _PI / (8.0 * lam_max) + 1e-15:
        raise GridTooCoarse(
            f"input spacing {f.spacing():.4g} exceeds pi/(8*{lam_max:.4g})")
    coef = f.weights * f.values
    vals = np.empty_like(out)
    block = max(1, int(4e6 / max(f.nodes.size, 1)))
    for i in range(0, out.size, block):
        args = np.outer(f.nodes, out[i:i + block])
        kernel = np.sin(args + _PI / 8.0) - remainder(args.ravel()).reshape(args.shape)
        vals[i:i + block] = coef @ kernel
    return GridFunction.from_samples(out, vals)


def heat_kernel_table(t: float, xs: np.ndarray, ys: np.ndarray,
                      spec: QuadratureSpec | None = None) -> KernelTable:
    """Tabulate p^D_t on xs x ys."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    vals = np.array([[heat_kernel(t, float(x), float(y), spec) for y in ys]
                     for x in xs])
    return KernelTable(t, xs, ys, vals)


def exit_law(x: float, ts: np.ndarray,
             spec: QuadratureSpec | None = None) -> ExitLaw:
    """Exit density and survival on a time grid; the survival column is the
    complement of the incrementally accumulated density mass, so the two
    columns are consistent by construction."""
    ts = np.asarray(ts, dtype=float)
    if np.any(ts <= 0) or not np.all(np.diff(ts) > 0):
        raise DomainError("ts must be positive and increasing")
    spec = spec or QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10)
    dens = exit_density(x, ts)
    surv = np.empty_like(ts)
    acc = integrate(lambda s: _f_over_s(s, x), (0.0, float(ts[0])), spec,
                    points=(x,))
    surv[0] = 1.0 - acc
    for k in range(1, ts.size):
        acc += integrate(lambda s: _f_over_s(s, x),
                         (float(ts[k - 1]), float(ts[k])), spec)
        surv[k] = 1.0 - acc
    return ExitLaw(x, ts, dens, surv)
