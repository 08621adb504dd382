"""Adaptive quadrature and grid-function utilities.

One adaptive Gauss-Kronrod 7/15 engine drives every integral in the package.
The engine integrates finite intervals a < b only; :func:`integrate` maps a
half-line onto (0, 1) by t = u/(1-u), as QUADPACK's QAGI does, and handles
reversed and empty domains itself.  The package's one principal value, the
interval generator, folds the pole away itself
(:func:`.interval.generator_apply`).

The engine runs many integrals at once (:func:`integrate_many`).  Each
integral keeps its own heap of panels, its own QUADPACK error estimate and
stopping rule, and its own ``max_subdivisions`` budget.  Each pass pops, for
every integral not yet converged, the panel its own heap would pop, and the
two children of all those panels are evaluated in one integrand call
``f(x, rows)``: ``x`` is a (k, 15) array of abscissae, one panel per row, and
``rows`` the (k,) index of the integral each row belongs to; ``f`` returns
the values in an array of x's shape.  So an integral's value does not depend
on what it is batched with, and :func:`integrate` is the batch of one, its
scalar integrand getting the nodes as a flat 1-D array.  The cost of a pass
is one integrand call however many integrals it advances, which is what
keeps the many small integrals of the kernel and generator code cheap.

A per-integral error is QUADPACK's estimate, not a bound: for
exp(-x^2) sin(3x) + x on [1.7488, 5.9125], whose linear part both rules
integrate exactly, the one 15-point panel reports 4.99e-12 where the true
error is 5.80e-11.

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

from .errors import (DomainError, NonConvergence, _finite, _increasing,
                     _integer, _positive)

__all__ = [
    "QuadratureSpec",
    "GridFunction",
    "integrate",
    "integrate_many",
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

    ``max_subdivisions`` caps the number of panel bisections; tolerances
    are positive and finite, and the budget an integer >= 1.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_subdivisions: int = 4000

    def __post_init__(self):
        _positive("tolerances", self.abs_tol, self.rel_tol)
        _integer("max_subdivisions", self.max_subdivisions, 1)


@dataclass
class GridFunction:
    """A function sampled on a strictly increasing 1-D grid.

    ``weights`` are quadrature weights for the node set (trapezoid by
    default), so that ``(values * weights).sum()`` approximates the integral
    and :meth:`norm2` the L2 norm.  Arrays of unequal shape, fewer than two
    nodes, nodes not strictly increasing and a NaN or +-inf node, value or
    weight raise :class:`DomainError`.
    """

    nodes: np.ndarray
    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes = _increasing("grid nodes", self.nodes, 2)
        self.values = _finite("grid values", self.values)
        self.weights = _finite("grid weights", self.weights)
        if not (self.nodes.shape == self.values.shape == self.weights.shape):
            raise DomainError("nodes, values and weights must have equal length")

    @classmethod
    def from_samples(cls, nodes: np.ndarray, values: np.ndarray) -> "GridFunction":
        """Build with trapezoid weights for the given node set."""
        nodes = np.asarray(nodes, dtype=float)
        h = 0.5 * np.diff(nodes)
        return cls(nodes, values, np.append(h, 0.0) + np.insert(h, 0, 0.0))

    def inner(self, other: "GridFunction") -> float:
        if not np.array_equal(self.nodes, other.nodes):
            raise DomainError("grid functions live on different grids")
        return float((self.values * other.values * self.weights).sum())

    def norm2(self) -> float:
        return math.sqrt(float((self.values**2 * self.weights).sum()))

    def spacing(self) -> float:
        return float(np.max(np.diff(self.nodes)))


def _breaks(domain: tuple[float, float], points: Sequence[float]) -> list:
    """Sorted breakpoints of the finite domain (a, b), a < b: its limits and
    the points strictly inside it.  Anything else, NaN included, raises
    :class:`DomainError`."""
    a, b = domain
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError(f"integrate_many needs finite domains with a < b, "
                          f"not {domain!r}")
    return sorted({float(a), float(b),
                   *(float(p) for p in points if a < p < b)})


def _panels(f, lo: np.ndarray, hi: np.ndarray, rows: np.ndarray):
    """Kronrod estimates and QUADPACK-style errors of the panels
    [lo_j, hi_j] of the integrals rows_j, all from one call of ``f``.

    The error formula runs on Python scalars: numpy's vectorized ``**`` and
    complex ``abs`` can round differently from the scalar ones in the last
    bit, and on scalars the errors, and with them the heap order and the
    stopping decisions, are those of a panel evaluated on its own."""
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    y = np.asarray(f(c[:, None] + h[:, None] * _NODES, rows))
    ik = h * (y * _WK).sum(axis=1)
    ig = h * (y * _WGFULL).sum(axis=1)
    scale = h * (np.abs(y - (ik / (hi - lo))[:, None]) * _WK).sum(axis=1)
    vals = ik.tolist()
    errs = []
    for v, g, s in zip(vals, ig.tolist(), scale.tolist()):
        diff = abs(v - g)
        errs.append(s * min(1.0, (200.0 * diff / s) ** 1.5) if s > 0.0
                    else diff)
    return vals, errs


def _adaptive(f, breaks, spec: QuadratureSpec) -> list:
    """Run the integral over each breakpoint list of ``breaks`` to the
    spec's tolerance; returns the estimates as Python floats (complex for a
    complex ``f``)."""
    if not breaks:
        return []
    n = len(breaks)
    owner = [i for i, brk in enumerate(breaks) for _ in brk[1:]]
    lo = [a for brk in breaks for a in brk[:-1]]
    hi = [b for brk in breaks for b in brk[1:]]
    total, toterr = [0.0] * n, [0.0] * n
    heaps = [[] for _ in range(n)]
    vals, errs = _panels(f, np.array(lo), np.array(hi),
                         np.array(owner, dtype=np.intp))
    for i, a, b, val, err in zip(owner, lo, hi, vals, errs):
        total[i] += val
        toterr[i] += err
        heapq.heappush(heaps[i], (-err, a, b, val))
    splits = [0] * n
    active = range(n)
    while True:
        todo = []
        for i in active:
            tot, err = total[i], toterr[i]
            if math.isnan(err) or cmath.isnan(tot):
                raise NonConvergence(
                    f"integral {i}: NaN estimate after {splits[i]} "
                    "subdivisions", estimate=tot, error_bound=err, index=i)
            if err <= max(spec.abs_tol, spec.rel_tol * abs(tot)):
                continue
            if splits[i] >= spec.max_subdivisions:
                raise NonConvergence(
                    f"integral {i}: tolerance not met after {splits[i]} "
                    f"subdivisions (estimate {tot!r}, error bound {err:.3e})",
                    estimate=tot, error_bound=err, index=i)
            todo.append(i)
        if not todo:
            return total
        popped = [heapq.heappop(heaps[i]) for i in todo]
        lo, hi = [], []
        for _, a, b, _ in popped:
            m = 0.5 * (a + b)
            lo += (a, m)
            hi += (m, b)
        vals, errs = _panels(f, np.array(lo), np.array(hi),
                             np.repeat(np.array(todo, dtype=np.intp), 2))
        for j, (i, (negerr, a, b, val)) in enumerate(zip(todo, popped)):
            m = hi[2 * j]
            v1, v2 = vals[2 * j], vals[2 * j + 1]
            e1, e2 = errs[2 * j], errs[2 * j + 1]
            total[i] += v1 + v2 - val
            toterr[i] += e1 + e2 + negerr      # negerr removes the parent error
            heapq.heappush(heaps[i], (-e1, a, m, v1))
            heapq.heappush(heaps[i], (-e2, m, b, v2))
            splits[i] += 1
        active = todo


def integrate_many(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                   domains: Sequence[tuple[float, float]],
                   spec: QuadratureSpec | None = None,
                   points: Sequence[Sequence[float]] = ()) -> np.ndarray:
    """Integrate ``f`` over each of ``domains`` to the spec's tolerance.

    Every domain is a finite interval ``(a, b)`` with ``a < b``; any other
    domain, a NaN limit included, raises :class:`DomainError` (half-lines,
    reversed limits and empty domains go through :func:`integrate`).
    ``f(x, rows)`` gets an (k, 15) array of abscissae, one panel per row,
    and the index into ``domains`` of the integral each row belongs to; it
    returns the integrands' values in an array of the same shape.  Every
    integral keeps its own panels, error control and subdivision budget, so
    each value is bit for bit what :func:`integrate` returns for it alone.
    ``points`` holds one tuple of interior breakpoints per domain (empty for
    none).  Returns the values as a 1-D array, complex if ``f`` is.

    Errors are as in :func:`integrate`; a :class:`NonConvergence` carries
    the ``index``, estimate and error bound of the integral that failed.
    """
    points = list(points) or [()] * len(domains)
    if len(points) != len(domains):
        raise DomainError("points needs one breakpoint tuple per domain")
    breaks = [_breaks(d, p) for d, p in zip(domains, points)]
    return np.array(_adaptive(f, breaks, spec or QuadratureSpec()))


def integrate(f: Callable[[np.ndarray], np.ndarray],
              domain: tuple[float, float],
              spec: QuadratureSpec | None = None,
              points: Sequence[float] = ()) -> float:
    """Integrate ``f`` over ``domain`` to the spec's tolerance.

    ``domain`` is ``(a, b)``, either limit possibly ``math.inf``.  For a > b
    the value is minus that over (b, a), for a == b it is 0.0, and a
    half-line (a, inf) becomes f(a + u/(1-u)) / (1-u)^2 over (0, 1), each
    breakpoint p > a moved to (p-a)/(1+(p-a)).  ``points`` are interior
    breakpoints (known kinks, decay scales) seeding the initial panels;
    supplying the decay scale of a sharply-cut integrand is the caller's
    job, the engine cannot see features far below its first panel's nodes.
    A complex ``f`` gets a complex result, with the error measured in
    modulus.  This is :func:`integrate_many` for one finite domain, with
    ``f`` given the nodes as a flat 1-D array.  The tolerance bounds an
    error estimate, not the error.

    Raises :class:`NonConvergence` (with ``estimate`` and ``error_bound``,
    that error estimate, attached) if the budget of subdivisions is
    exhausted first or the estimate turns NaN, and :class:`DomainError`
    for a NaN limit, a limit of -inf or a doubly infinite domain.
    """
    a, b = domain
    if math.isnan(a) or math.isnan(b) or -_INF in (a, b):
        raise DomainError("integration limits must be finite or +inf")
    if a == b == _INF:
        raise DomainError("doubly infinite domains are not supported")
    if a > b:
        return -integrate(f, (b, a), spec, points)
    if a == b:
        return 0.0
    g = f
    if b == _INF:
        g = lambda u: f(a + u / (1.0 - u)) / (1.0 - u) ** 2
        domain = (0.0, 1.0)
        points = [(p - a) / (1.0 + (p - a)) for p in points if p > a]

    def flat(x, rows):
        return np.asarray(g(x.ravel())).reshape(x.shape)

    return integrate_many(flat, [domain], spec, [points])[0].item()
