"""Adaptive quadrature and grid-function utilities.

One adaptive Gauss-Kronrod 7/15 engine drives every integral in the package:
finite intervals directly, half-lines through the substitution t = u/(1-u).
The package's one principal value, the interval generator, folds the pole
away itself (:func:`.interval.generator_apply`).  Integrands are evaluated
in vectorized batches (they receive a numpy array of abscissae and must
return an array of the same shape), which is what keeps the transform/kernel
grids in the rest of the package cheap.

All routines are pure: results depend only on the integrand, the domain and
the :class:`QuadratureSpec`, never on evaluation order or thread count.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NonConvergence

__all__ = [
    "QuadratureSpec",
    "GridFunction",
    "integrate",
]

_INF = math.inf

# Gauss-Kronrod 7/15 abscissae and weights on [-1, 1].
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])            # 15 ascending
_WK = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WGFULL = np.zeros(15)
_WGFULL[1::2] = np.concatenate([_WG[:-1], _WG[::-1]])        # embedded G7


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and budget for one adaptive integration.

    ``max_subdivisions`` caps the number of panel bisections.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_subdivisions: int = 4000

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):   # False for NaN
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass
class GridFunction:
    """A function sampled on a strictly increasing 1-D grid.

    ``weights`` are quadrature weights for the node set (trapezoid by
    default), so that ``(values * weights).sum()`` approximates the integral
    and :meth:`norm2` the L2 norm.
    """

    nodes: np.ndarray
    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if not (self.nodes.shape == self.values.shape == self.weights.shape):
            raise ValueError("nodes, values and weights must have equal length")
        if self.nodes.ndim != 1 or self.nodes.size < 2:
            raise ValueError("need at least two grid nodes")
        if not np.all(np.diff(self.nodes) > 0):
            raise ValueError("nodes must be strictly increasing")

    @classmethod
    def from_samples(cls, nodes: np.ndarray, values: np.ndarray) -> "GridFunction":
        """Build with trapezoid weights for the given node set."""
        nodes = np.asarray(nodes, dtype=float)
        w = np.zeros_like(nodes)
        d = np.diff(nodes)
        w[:-1] += 0.5 * d
        w[1:] += 0.5 * d
        return cls(nodes, np.asarray(values, dtype=float), w)

    def inner(self, other: "GridFunction") -> float:
        if self.nodes.shape != other.nodes.shape or not np.allclose(self.nodes, other.nodes):
            raise ValueError("grid functions live on different grids")
        return float((self.values * other.values * self.weights).sum())

    def norm2(self) -> float:
        return math.sqrt(float((self.values**2 * self.weights).sum()))

    def spacing(self) -> float:
        return float(np.max(np.diff(self.nodes)))


def _panel(f, a: float, b: float):
    """Kronrod estimate and QUADPACK-style error for one panel."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    y = np.asarray(f(c + h * _NODES))
    ik = h * (y * _WK).sum()
    ig = h * (y * _WGFULL).sum()
    diff = abs(ik - ig)
    scale = h * (np.abs(y - ik / (b - a)) * _WK).sum()
    if scale > 0.0:
        err = float(scale) * min(1.0, (200.0 * diff / float(scale)) ** 1.5)
    else:
        err = diff
    return complex(ik) if np.iscomplexobj(y) else float(ik), float(err)


def _adaptive(f, breakpoints, spec: QuadratureSpec):
    heap = []
    total = 0.0
    toterr = 0.0
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        val, err = _panel(f, a, b)
        total += val
        toterr += err
        heapq.heappush(heap, (-err, a, b, val))
    splits = 0
    while True:
        if math.isnan(toterr) or cmath.isnan(total):
            raise NonConvergence(
                f"NaN estimate after {splits} subdivisions",
                estimate=total, error_bound=toterr)
        if toterr <= max(spec.abs_tol, spec.rel_tol * abs(total)):
            return total, toterr
        if splits >= spec.max_subdivisions:
            raise NonConvergence(
                f"tolerance not met after {splits} subdivisions "
                f"(estimate {total!r}, error bound {toterr:.3e})",
                estimate=total, error_bound=toterr)
        negerr, a, b, val = heapq.heappop(heap)
        m = 0.5 * (a + b)
        v1, e1 = _panel(f, a, m)
        v2, e2 = _panel(f, m, b)
        total += v1 + v2 - val
        toterr += e1 + e2 + negerr          # negerr removes the parent error
        heapq.heappush(heap, (-e1, a, m, v1))
        heapq.heappush(heap, (-e2, m, b, v2))
        splits += 1


def integrate(f: Callable[[np.ndarray], np.ndarray],
              domain: tuple[float, float],
              spec: QuadratureSpec | None = None,
              points: Sequence[float] = ()) -> float:
    """Integrate ``f`` over ``domain`` to the spec's tolerance.

    ``domain`` is ``(a, b)`` with ``b`` possibly ``math.inf``; half-lines are
    mapped to (0, 1] by t = u/(1-u) with the Jacobian folded in, so a single
    adaptive engine serves both cases.  ``points`` are interior breakpoints
    (known kinks, decay scales) seeding the initial panels; supplying the
    decay scale of a sharply-cut integrand is the caller's job, the engine
    cannot see features far below its first panel's nodes.  A complex
    ``f`` gets a complex result, with the error measured in modulus.

    Raises :class:`NonConvergence` (with ``estimate`` and ``error_bound``
    attached) if the budget of subdivisions is exhausted first or the
    estimate turns NaN, and :class:`DomainError` for a NaN endpoint.
    """
    spec = spec or QuadratureSpec()
    a, b = domain
    if math.isnan(a) or math.isnan(b):
        raise DomainError("integration limits must not be NaN")
    if math.isinf(b):
        if math.isinf(a):
            raise ValueError("doubly infinite domains are not supported")
        shift = a

        def g(u):
            t = u / (1.0 - u)
            return f(shift + t) / (1.0 - u) ** 2

        brk = sorted({0.0, 1.0, *((p - shift) / (1.0 + (p - shift))
                                  for p in points if p > shift)})
        val, _ = _adaptive(g, brk, spec)
        return val
    if a == b:
        return 0.0
    if a > b:
        return -integrate(f, (b, a), spec, points)
    brk = sorted({float(a), float(b), *(float(p) for p in points if a < p < b)})
    val, _ = _adaptive(f, brk, spec)
    return val

