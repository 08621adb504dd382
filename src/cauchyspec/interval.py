"""Eigenvalues and eigenfunctions of the killed semigroup on (-1, 1).

Two independent pipelines bracket each eigenvalue lambda_n:

* upper bounds: Rayleigh-Ritz for the Green operator in the orthonormal
  Legendre basis.  Expanding the Legendre polynomials in monomials would
  take the matrix from the Green moments
  G_{m,n} = pi * beta_m beta_n / (2^{m+n} (m+n+2)), beta_k = C(k, floor(k/2)),
  through coefficients that grow like 4^deg with alternating signs.  These
  moments form a Gram matrix, so the matrix is instead assembled in float64
  as a Gram product of Legendre averages, in which nothing cancels.  Each
  average is closed form by the Legendre addition theorem (DLMF 14.18), a
  polynomial in s read off P_m and P_m' at sqrt(1 - s^2) and at 0, so an
  (N+2)-point Gauss rule in s is exact (see :func:`assemble_rayleigh_ritz`).

* lower bounds: the method of intermediate problems.  After mapping to a
  strip, the problem becomes  A f = lambda (1 - T^2) f  with A the
  Dirichlet-Neumann operator (eigenfunctions g_k, eigenvalues k) and T a
  bounded multiplication operator; truncating T through the projection onto
  span(f_1..f_N) with f_n = 2 sqrt(1+cos x) g_n leaves the matrix pencil
  D a = lambda (I - C^T B^{-1} C) a  plus the untouched modes k > N+1.
  The coupling C is two bands of -1 and the Gram matrix B is closed-form
  (:func:`gram_entry`, evaluated on the whole index grid at once).

Both pipelines assemble and solve in float64 on plain arrays: nothing in
either assembly cancels, so no precision setting exists.  The Ritz
eigensolve of A_N is one function, shared by the upper bounds and the
eigenfunctions, and nothing is cached between calls.

Also here: the approximate eigenfunctions built by gluing two half-line
eigenfunctions with the piecewise-quadratic cutoff q, the singular-integral
generator they are tested against, and reconstruction of the Rayleigh-Ritz
eigenfunctions as grid functions.  :func:`tilde_phi` checks its arguments
and calls ``_tilde_phi``, built on the half-line kernel ``halfline._psi``;
the numerics here call ``_tilde_phi`` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import comb
from typing import Callable

import numpy as np
from scipy.special import legendre_p_all

from .errors import (BracketInversion, CauchySpecError, DomainError,
                     _finite, _integer, _scalar_or_array)
from .halfline import _psi
from .linalg import generalized_sym_eig, solve_spd, sym_eig
from .quadrature import (GridFunction, QuadratureSpec, integrate,
                         integrate_many)

__all__ = [
    "EigBound", "REFERENCE_BRACKETS", "mu_asymptotic", "q_cutoff",
    "tilde_phi", "generator_apply", "residual_norm", "tilde_phi_norm2",
    "green_moment", "assemble_rayleigh_ritz", "upper_bounds",
    "assemble_intermediate", "lower_bounds", "bracket", "rr_eigenfunction",
]

_PI = math.pi

#: published 12-digit reference brackets for the first ten eigenvalues,
#: used for validation only (never consumed by the solvers).
REFERENCE_BRACKETS = {
    1: (1.15777388369758, 1.15777388369792),
    2: (2.75475474221510, 2.75475474221695),
    3: (4.31680106659303, 4.31680106659758),
    4: (5.89214747093908, 5.89214747094751),
    5: (7.46017573939764, 7.46017573941122),
    6: (9.03285269048857, 9.03285269050838),
    7: (10.60229309961113, 10.60229309963854),
    8: (12.17411826272585, 12.17411826276180),
    9: (13.74410905939799, 13.74410905944402),
    10: (15.31555499602690, 15.31555499608382),
}


def reference_excess(n: int, lower: float | None,
                     upper: float | None) -> float | None:
    """How far the bracket (lower, upper) of lambda_n misses containing its
    reference bracket: 0.0 when it contains it, None when n has no
    reference.  A side passed as None (not computed) is not checked."""
    ref = REFERENCE_BRACKETS.get(n)
    if ref is None:
        return None
    return max(0.0 if lower is None else lower - ref[0],
               0.0 if upper is None else ref[1] - upper, 0.0)


def mu_asymptotic(n: int) -> float:
    """The asymptotic proxy mu_n = n pi/2 - pi/8 around which lambda_n
    localizes."""
    return n * _PI / 2.0 - _PI / 8.0


@dataclass(frozen=True)
class EigBound:
    """Certified two-sided bracket for one interval eigenvalue."""
    n: int
    N: int
    lower: float
    upper: float
    method_meta: dict = field(default_factory=dict, compare=False)

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower


# ---------------------------------------------------------------------------
# cutoff and approximate eigenfunctions


def q_cutoff(x):
    """Piecewise-quadratic C^1 ramp: 0 below -1/3, 1 above 1/3, and
    9/2 (x+1/3)^2 resp. 1 - 9/2 (x-1/3)^2 in between; q(x) + q(-x) = 1.
    NaN and +-inf raise DomainError."""
    return _scalar_or_array(_q, _finite("q_cutoff", x))


def _q(x: np.ndarray) -> np.ndarray:
    """The ramp of :func:`q_cutoff` on an array already known finite."""
    return np.where(
        x <= -1.0 / 3.0, 0.0,
        np.where(x < 0.0, 4.5 * (x + 1.0 / 3.0) ** 2,
                 np.where(x < 1.0 / 3.0, 1.0 - 4.5 * (x - 1.0 / 3.0) ** 2, 1.0)))


#: kinks of q plus the support endpoints; the glued eigenfunctions are
#: piecewise smooth exactly between these
PHI_KINKS = (-1.0, -1.0 / 3.0, 0.0, 1.0 / 3.0, 1.0)


def tilde_phi(n: int, x):
    """Approximate interval eigenfunction

        q(-x) psi(mu_n, 1+x) + (-1)^{n+1} q(x) psi(mu_n, 1-x)

    (sign + for odd n, - for even), supported on (-1, 1), symmetric for odd
    n and antisymmetric for even n.  n is an integer >= 1 and x finite."""
    _integer("n", n, 1)
    return _scalar_or_array(lambda xs: _tilde_phi(n, xs),
                            _finite("tilde_phi", x))


def _tilde_phi(n: int, x: np.ndarray) -> np.ndarray:
    """tilde_phi_n on a float array of finite x, unchecked."""
    mu, sgn = mu_asymptotic(n), (1.0 if n % 2 == 1 else -1.0)
    out = np.zeros_like(x)
    inside = (x > -1.0) & (x < 1.0)
    xi = x[inside]
    out[inside] = (_q(-xi) * _psi(mu * (1.0 + xi))
                   + sgn * _q(xi) * _psi(mu * (1.0 - xi)))
    return out


# ---------------------------------------------------------------------------
# the generator as a principal-value integral

#: largest half-width of the window folded around the pole
_PV_WINDOW = 0.125


def generator_apply(g: Callable[[np.ndarray], np.ndarray], z,
                    support: tuple[float, float] = (-1.0, 1.0),
                    kinks: tuple[float, ...] = PHI_KINKS,
                    spec: QuadratureSpec | None = None):
    """Apply the generator  (1/pi) pv int (g(y) - g(z))/(y - z)^2 dy  at z,
    a scalar (returns a float) or an array of points (returns an array of
    z's shape).

    ``g`` maps a 1-D array to an array of the same shape; it must vanish
    outside ``support`` and be piecewise C^2 with kinks only at ``kinks``.
    The principal value is realized by folding the symmetric window around
    z (the odd part of the pole cancels exactly); outside the window the
    integral splits into int g(y)/(y-z)^2 over the support and the analytic
    tail -g(z) * 2/d, d = min(1/8, z-a, b-z).  The folded cores of all
    points form one batched quadrature (:func:`.quadrature.integrate_many`),
    and so do the left and the right outer integrals; each point's value is
    the one it gets on its own.  A point outside the open support (or NaN)
    raises DomainError.
    """
    a, b = support
    zarr = np.asarray(z, dtype=float)
    zs = zarr.ravel()
    if not np.all((zs > a) & (zs < b)):         # False for NaN too
        raise DomainError("z must lie inside the support")
    spec = spec or QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10)
    gz = np.asarray(g(zs), dtype=float)
    d = np.minimum(np.minimum(_PV_WINDOW, zs - a), b - zs)

    def g2(y):
        return g(y.ravel()).reshape(y.shape)

    def folded(u, rows):
        zr = zs[rows, None]
        return (g2(zr + u) + g2(zr - u) - 2.0 * gz[rows, None]) / (u * u)

    def outer(zsel):
        return lambda y, rows: g2(y) / (y - zsel[rows, None]) ** 2

    pts = [sorted({abs(k - z) for k in kinks if 0.0 < abs(k - z) < dz})
           for z, dz in zip(zs.tolist(), d.tolist())]
    out = integrate_many(folded, [(0.0, dz) for dz in d.tolist()], spec, pts)
    out = out - gz * 2.0 / d
    left, right = zs - d > a, zs + d < b
    doms = [(a, y) for y in (zs - d)[left].tolist()]
    out[left] += integrate_many(outer(zs[left]), doms, spec,
                                [kinks] * len(doms))
    doms = [(y, b) for y in (zs + d)[right].tolist()]
    out[right] += integrate_many(outer(zs[right]), doms, spec,
                                 [kinks] * len(doms))
    out = out / _PI
    return float(out[0]) if zarr.ndim == 0 else out.reshape(zarr.shape)


def residual_norm(n: int, nodes_per_piece: int = 32) -> float:
    """L2 norm over (-1,1) of (generator + mu_n) applied to tilde_phi_n,
    by Gauss quadrature on each smooth piece; the generator runs once, on
    the nodes of all pieces together.  n as in :func:`tilde_phi`, and
    nodes_per_piece an integer >= 1."""
    _integer("n", n, 1)
    _integer("nodes_per_piece", nodes_per_piece, 1)
    g = lambda x: _tilde_phi(n, x)
    spec = QuadratureSpec(abs_tol=1e-8, rel_tol=1e-8)
    gx, gw = np.polynomial.legendre.leggauss(nodes_per_piece)
    lo, hi = np.array(PHI_KINKS[:-1]), np.array(PHI_KINKS[1:])
    zs = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * gx
    ws = 0.5 * (hi - lo)[:, None] * gw
    resid = generator_apply(g, zs, spec=spec) + mu_asymptotic(n) * g(zs)
    return math.sqrt(sum(float((r * r * w).sum()) for r, w in zip(resid, ws)))


def tilde_phi_norm2(n: int) -> float:
    """Squared L2 norm of tilde_phi_n; n as in :func:`tilde_phi`."""
    _integer("n", n, 1)
    spec = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11)
    return integrate(lambda x: _tilde_phi(n, x) ** 2, (-1.0, 1.0), spec,
                     PHI_KINKS[1:-1])


# ---------------------------------------------------------------------------
# Green moments and the Rayleigh-Ritz matrix


def _beta(k: int) -> int:
    return comb(k, k // 2)


def green_moment(m: int, n: int) -> float:
    """Moment of the interval Green operator against monomials:
    int int x^m G(x,y) y^n dx dy = pi beta_m beta_n / (2^{m+n} (m+n+2))
    for m + n even, 0 otherwise.  Symmetric and positive when nonzero.
    m and n are integers >= 0."""
    _integer("m", m, 0)
    _integer("n", n, 0)
    if (m + n) % 2 == 1:
        return 0.0
    # int / int true division rounds correctly
    return _PI * (_beta(m) * _beta(n) / ((1 << (m + n)) * (m + n + 2)))


def assemble_rayleigh_ritz(N: int) -> np.ndarray:
    """Matrix of the Green operator in the first N orthonormal Legendre
    polynomials, in float64 from its Gram form

        A_mn = pi nu_m nu_n int_0^1 s u_m(s) u_n(s) ds,   nu_m = sqrt((2m+1)/2),
        u_m(s) = (1/pi) int_0^pi cos^{m mod 2}(t) P_m(s cos t) dt,

    for m + n even (zero otherwise), in which no term cancels.  By the
    Legendre addition theorem (DLMF 14.18), with c = sqrt(1 - s^2),

        u_m(s) = P_m(0) P_m(c)                       (m even),
        u_m(s) = s P_m'(0) P_m'(c) / (m (m+1))       (m odd),

    a polynomial of degree m in s, so N+2 Gauss-Legendre points in s
    integrate every entry exactly and the only error is rounding, about
    1e-14 ||A||_2.  The rule grows with N, so entries shared by two basis
    sizes agree to that level, not bitwise.  N must be an integer >= 1."""
    _integer("N", N, 1)
    x, w = np.polynomial.legendre.leggauss(N + 2)
    s = 0.5 * (x + 1.0)
    c = np.sqrt((1.0 - s) * (1.0 + s))
    # P_m and P_m' for m < N at every c and, in the last column, at 0
    p, dp = legendre_p_all(N - 1, np.append(c, 0.0), diff_n=1)
    U = p[:, -1:] * p[:, :-1]                          # even rows; odd are 0
    m = np.arange(1, N, 2)[:, None]
    U[1::2] = s * dp[1::2, -1:] * dp[1::2, :-1] / (m * (m + 1))
    A = (U * (0.5 * w * s)) @ U.T                      # weight s ds on [0, 1]
    nu = np.sqrt(np.arange(N) + 0.5)
    A = _PI * 0.5 * (A + A.T) * np.outer(nu, nu)
    k = np.arange(N)
    A[(k[:, None] + k[None, :]) % 2 == 1] = 0.0
    return A


def _ritz(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues theta of A_N in descending order, with the matching
    orthonormal eigenvectors as columns."""
    theta, vec = sym_eig(assemble_rayleigh_ritz(N))
    return theta[::-1], vec[:, ::-1]


def upper_bounds(N: int, count: int | None = None) -> np.ndarray:
    """Rayleigh-Ritz upper bounds: 1/theta for the descending eigenvalues
    theta of A_N.  Non-increasing in N by min-max over nested subspaces,
    up to the rounding of assembly and eigensolve (about 1e-14 relative).
    N is an integer >= 1 and count, by default N, one of 0..N."""
    _integer("N", N, 1)
    count = N if count is None else count
    _integer("count", count, 0, N)
    theta = _ritz(N)[0][:count]
    if np.any(theta <= 0):
        raise CauchySpecError("Rayleigh-Ritz matrix is not positive "
                              "definite; assembly is broken")
    return 1.0 / theta


# ---------------------------------------------------------------------------
# intermediate problems (lower bounds)


def gram_entry(m, n):
    """Gram entry of the glued strip basis f_n = 2 sqrt(1+cos x) g_n:
    b_{mn} = 4 delta_{mn} + (8/pi) [1/(1-(m-n)^2) - 1/(1-(m+n)^2)] for
    m+n even, else 0 (derived from the product-to-sum identity and verified
    against direct quadrature).  ``m`` and ``n`` are integers or integer
    arrays that broadcast together; a float for scalars, else an array."""
    m, n = np.asarray(m), np.asarray(n)
    even = (m + n) % 2 == 0
    # odd-parity entries are 0; their differences are replaced by 0 so that
    # (m-n)^2 = 1 never reaches a denominator
    dm, dp = np.where(even, m - n, 0), np.where(even, m + n, 0)
    val = 8.0 / _PI * (1.0 / (1.0 - dm ** 2) - 1.0 / (1.0 - dp ** 2))
    val = np.where(even, val + 4.0 * (m == n), 0.0)
    return float(val) if val.ndim == 0 else val


def assemble_intermediate(N: int):
    """Arrays of the truncated intermediate problem at basis size N:
    returns (C, B, d, S) with C = -(two bands of ones), the N x (N+1)
    coupling matrix of T f_n = -g_{n-1} - g_{n+1}; B the N x N Gram matrix,
    :func:`gram_entry` on the index grid 1..N; d = (1, ..., N+1) the exact
    eigenvalues of the Dirichlet-Neumann operator; and the symmetrized
    S = I - C^T B^{-1} C.  N must be an integer >= 1."""
    _integer("N", N, 1)
    K = N + 1
    k = np.arange(1, K)
    B = gram_entry(k[:, None], k[None, :])
    C = -(np.eye(N, K, 1) + np.eye(N, K, -1))
    S = np.eye(K) - C.T @ solve_spd(B, C)
    d = np.arange(1.0, K + 1.0)
    return C, B, d, 0.5 * (S + S.T)


def lower_bounds(N: int, count: int | None = None) -> np.ndarray:
    """Lower bounds from the intermediate problem: the ``count`` smallest of
    the positive eigenvalues of the pencil D a = lambda S a together with
    the untouched trivial eigenvalues K+1, K+2, ... (K = N+1), in
    nondecreasing order; pencil eigenvalues above K+1 do occur for N >= 13.
    Non-decreasing in N.  N is an integer >= 1 and count, by default N + 1,
    one of 0..N+1."""
    _integer("N", N, 1)
    count = N + 1 if count is None else count
    _integer("count", count, 0, N + 1)
    _, _, d, S = assemble_intermediate(N)
    lam = generalized_sym_eig(S, d)
    trivial = np.arange(N + 2.0, N + 2.0 + count)
    return np.sort(np.concatenate([lam[lam > 0], trivial]))[:count]


def bracket(n_max: int, N: int) -> list[EigBound]:
    """Certified brackets (lower, upper) for lambda_1 .. lambda_{n_max} at
    basis size N.  Raises :class:`BracketInversion` if any lower bound
    exceeds its upper bound (which would signal an assembly bug).  N and
    n_max are integers with 1 <= n_max <= N."""
    _integer("N", N, 1)
    _integer("n_max", n_max, 1, N)
    ups = upper_bounds(N, n_max)
    los = lower_bounds(N, n_max)
    out = []
    for n in range(1, n_max + 1):
        lo, up = float(los[n - 1]), float(ups[n - 1])
        if lo > up:
            raise BracketInversion(
                f"lower bound {lo!r} exceeds upper bound {up!r} for n={n}, "
                f"N={N}")
        out.append(EigBound(n, N, lo, up,
                            method_meta={"upper": "rayleigh-ritz",
                                         "lower": "intermediate-problems"}))
    return out


# ---------------------------------------------------------------------------
# Rayleigh-Ritz eigenfunctions


#: nodes of the uniform grid on which rr_eigenfunction is sampled
_RR_GRID = 2001


def rr_eigenfunction(n: int, N: int) -> GridFunction:
    """The n-th Rayleigh-Ritz eigenfunction on the uniform grid of _RR_GRID
    nodes on [-1, 1], as a unit-L2-norm combination of orthonormal Legendre
    polynomials, sign-fixed so its inner product with tilde_phi_n is
    positive.  N and n are integers with 1 <= n <= N."""
    _integer("N", N, 1)
    _integer("n", n, 1, N)
    _, vec = _ritz(N)
    coeff = vec[:, n - 1]
    xs = np.linspace(-1.0, 1.0, _RR_GRID)
    basis = legendre_p_all(N - 1, xs)[0] * np.sqrt(np.arange(N) + 0.5)[:, None]
    vals = coeff @ basis
    gf = GridFunction.from_samples(xs, vals)
    if gf.inner(GridFunction.from_samples(xs, _tilde_phi(n, xs))) < 0:
        gf.values = -gf.values
    return gf
