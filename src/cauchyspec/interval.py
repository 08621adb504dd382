"""Eigenvalues and eigenfunctions of the killed semigroup on (-1, 1).

Two independent pipelines bracket each eigenvalue lambda_n:

* upper bounds: Rayleigh-Ritz for the Green operator in the orthonormal
  Legendre basis.  Expanding the Legendre polynomials in monomials would
  take the matrix from the Green moments
  G_{m,n} = pi * beta_m beta_n / (2^{m+n} (m+n+2)), beta_k = C(k, floor(k/2)),
  through coefficients that grow like 4^deg with alternating signs.  These
  moments form a Gram matrix, so the matrix is instead assembled in float64
  as a Gram product of Legendre averages, in which nothing cancels (see
  :func:`assemble_rayleigh_ritz`).

* lower bounds: the method of intermediate problems.  After mapping to a
  strip, the problem becomes  A f = lambda (1 - T^2) f  with A the
  Dirichlet-Neumann operator (eigenfunctions g_k, eigenvalues k) and T a
  bounded multiplication operator; truncating T through the projection onto
  span(f_1..f_N) with f_n = 2 sqrt(1+cos x) g_n leaves the matrix pencil
  D a = lambda (I - C^T B^{-1} C) a  plus the untouched modes k > N+1.

Both pipelines assemble and solve in float64: nothing in either assembly
cancels, so no precision setting exists.

Also here: the approximate eigenfunctions built by gluing two half-line
eigenfunctions with the piecewise-quadratic cutoff q, the singular-integral
generator they are tested against, and reconstruction of the Rayleigh-Ritz
eigenfunctions as grid functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Callable

import numpy as np
from scipy.special import eval_legendre

from .errors import BracketInversion, CauchySpecError, DomainError
from .halfline import psi
from .linalg import SymMatrix, generalized_sym_eig, solve_spd, sym_eig
from .quadrature import GridFunction, QuadratureSpec, integrate

__all__ = [
    "ApproxEigenfunction", "EigBound", "BasisMatrix", "REFERENCE_BRACKETS",
    "mu_asymptotic", "q_cutoff", "tilde_phi", "approx_eigenfunction",
    "generator_apply", "residual_norm", "tilde_phi_norm2", "green_moment",
    "assemble_rayleigh_ritz", "upper_bounds", "assemble_intermediate",
    "lower_bounds", "bracket", "rr_eigenfunction",
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


@dataclass
class BasisMatrix:
    """A float64 matrix from the bound pipelines, tagged with its role."""
    role: str
    entries: np.ndarray


@dataclass(frozen=True)
class ApproxEigenfunction:
    """Glued half-line approximation to the n-th interval eigenfunction."""
    n: int
    mu: float
    parity: str                    # "symmetric" | "antisymmetric"
    evaluator: Callable[[np.ndarray], np.ndarray] = field(compare=False)

    def __call__(self, x):
        return self.evaluator(x)


# ---------------------------------------------------------------------------
# cutoff and approximate eigenfunctions


def q_cutoff(x):
    """Piecewise-quadratic C^1 ramp: 0 below -1/3, 1 above 1/3, and
    9/2 (x+1/3)^2 resp. 1 - 9/2 (x-1/3)^2 in between; q(x) + q(-x) = 1."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.where(
        x <= -1.0 / 3.0, 0.0,
        np.where(x < 0.0, 4.5 * (x + 1.0 / 3.0) ** 2,
                 np.where(x < 1.0 / 3.0, 1.0 - 4.5 * (x - 1.0 / 3.0) ** 2, 1.0)))
    return float(out[0]) if scalar else out


#: kinks of q plus the support endpoints; the glued eigenfunctions are
#: piecewise smooth exactly between these
PHI_KINKS = (-1.0, -1.0 / 3.0, 0.0, 1.0 / 3.0, 1.0)


def tilde_phi(n: int, x):
    """Approximate interval eigenfunction

        q(-x) psi(mu_n, 1+x) + (-1)^{n+1} q(x) psi(mu_n, 1-x)

    (sign + for odd n, - for even), supported on (-1, 1), symmetric for odd
    n and antisymmetric for even n."""
    if n < 1:
        raise DomainError("n must be a positive integer")
    mu = mu_asymptotic(n)
    sgn = 1.0 if n % 2 == 1 else -1.0
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.zeros_like(x)
    inside = (x > -1.0) & (x < 1.0)
    xi = x[inside]
    out[inside] = (q_cutoff(-xi) * psi(mu, 1.0 + xi)
                   + sgn * q_cutoff(xi) * psi(mu, 1.0 - xi))
    return float(out[0]) if scalar else out


def approx_eigenfunction(n: int) -> ApproxEigenfunction:
    return ApproxEigenfunction(
        n=n, mu=mu_asymptotic(n),
        parity="symmetric" if n % 2 == 1 else "antisymmetric",
        evaluator=lambda x, _n=n: tilde_phi(_n, x))


# ---------------------------------------------------------------------------
# the generator as a principal-value integral


def generator_apply(g: Callable[[np.ndarray], np.ndarray], z: float,
                    support: tuple[float, float] = (-1.0, 1.0),
                    kinks: tuple[float, ...] = PHI_KINKS,
                    spec: QuadratureSpec | None = None,
                    window: float = 0.125) -> float:
    """Apply the generator  (1/pi) pv int (g(y) - g(z))/(y - z)^2 dy  at z.

    ``g`` must vanish outside ``support`` and be piecewise C^2 with kinks
    only at ``kinks``.  The principal value is realized by folding the
    symmetric window around z (the odd part of the pole cancels exactly);
    outside the window the integral splits into int g(y)/(y-z)^2 over the
    support and the analytic tail -g(z) * 2/window.
    """
    a, b = support
    if not a < z < b:
        raise DomainError("z must lie inside the support")
    spec = spec or QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10)
    gz = float(np.atleast_1d(g(np.array([z])))[0])
    d = min(window, z - a, b - z)

    def folded(u):
        return (g(z + u) + g(z - u) - 2.0 * gz) / (u * u)

    pts = sorted({abs(k - z) for k in kinks if 0.0 < abs(k - z) < d})
    core = integrate(folded, (0.0, d), spec, points=pts)
    out = core - gz * 2.0 / d
    if z - d > a:
        out += integrate(lambda y: g(y) / (y - z) ** 2, (a, z - d), spec,
                         points=kinks)
    if z + d < b:
        out += integrate(lambda y: g(y) / (y - z) ** 2, (z + d, b), spec,
                         points=kinks)
    return out / _PI


def residual_norm(n: int, nodes_per_piece: int = 32,
                  spec: QuadratureSpec | None = None) -> float:
    """L2 norm over (-1,1) of (generator + mu_n) applied to tilde_phi_n,
    by Gauss quadrature on each smooth piece."""
    mu = mu_asymptotic(n)
    g = lambda x: tilde_phi(n, x)
    spec = spec or QuadratureSpec(abs_tol=1e-8, rel_tol=1e-8)
    gx, gw = np.polynomial.legendre.leggauss(nodes_per_piece)
    total = 0.0
    for lo, hi in zip(PHI_KINKS[:-1], PHI_KINKS[1:]):
        zs = 0.5 * (lo + hi) + 0.5 * (hi - lo) * gx
        ws = 0.5 * (hi - lo) * gw
        vals = np.array([generator_apply(g, float(z), spec=spec) for z in zs])
        resid = vals + mu * g(zs)
        total += float((resid * resid * ws).sum())
    return math.sqrt(total)


def tilde_phi_norm2(n: int, spec: QuadratureSpec | None = None) -> float:
    """Squared L2 norm of tilde_phi_n."""
    spec = spec or QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11)
    g = lambda x: tilde_phi(n, x) ** 2
    return integrate(g, (-1.0, 1.0), spec, points=PHI_KINKS[1:-1])


# ---------------------------------------------------------------------------
# Green moments and the Rayleigh-Ritz matrix


def _beta(k: int) -> int:
    return comb(k, k // 2)


def green_moment(m: int, n: int) -> float:
    """Moment of the interval Green operator against monomials:
    int int x^m G(x,y) y^n dx dy = pi beta_m beta_n / (2^{m+n} (m+n+2))
    for m + n even, 0 otherwise.  Symmetric and positive when nonzero."""
    if m < 0 or n < 0:
        raise DomainError("m, n must be nonnegative")
    if (m + n) % 2 == 1:
        return 0.0
    # int / int true division rounds correctly
    return _PI * (_beta(m) * _beta(n) / ((1 << (m + n)) * (m + n + 2)))


def assemble_rayleigh_ritz(N: int) -> BasisMatrix:
    """Matrix of the Green operator in the first N orthonormal Legendre
    polynomials, in float64 from its Gram form

        A_mn = pi nu_m nu_n int_0^1 s u_m(s) u_n(s) ds,   nu_m = sqrt((2m+1)/2),
        u_m(s) = (1/pi) int_0^pi cos^{m mod 2}(t) P_m(s cos t) dt,

    for m + n even (zero otherwise), in which no term cancels.  P_m comes from
    the three-term recurrence on a grid of z = s cos t: N+2 Gauss-Legendre
    points in s and N//2+2 midpoints in t integrate every entry exactly, so
    the only error is rounding, about 1e-14 ||A||_2.  The rule grows with N,
    so entries shared by two basis sizes agree to that level, not bitwise."""
    if N < 1:
        raise DomainError("N must be >= 1")
    x, w = np.polynomial.legendre.leggauss(N + 2)
    s = 0.5 * (x + 1.0)
    n_t = N // 2 + 2
    cos_t = np.cos((np.arange(n_t) + 0.5) * (_PI / n_t))
    z = s[:, None] * cos_t[None, :]
    theta_avg = (np.full(n_t, 1.0 / n_t), cos_t / n_t)   # by parity of m
    U = np.empty((N, s.size))
    p_prev, p = np.zeros_like(z), np.ones_like(z)
    for m in range(N):
        U[m] = p @ theta_avg[m % 2]
        p_prev, p = p, ((2 * m + 1) * z * p - m * p_prev) / (m + 1)
    A = (U * (0.5 * w * s)) @ U.T                      # weight s ds on [0, 1]
    nu = np.sqrt(np.arange(N) + 0.5)
    A = _PI * 0.5 * (A + A.T) * np.outer(nu, nu)
    k = np.arange(N)
    A[(k[:, None] + k[None, :]) % 2 == 1] = 0.0
    return BasisMatrix("A_N", A)


def upper_bounds(N: int, count: int | None = None) -> np.ndarray:
    """Rayleigh-Ritz upper bounds: 1/theta for the descending eigenvalues
    theta of A_N.  Non-increasing in N by min-max over nested subspaces,
    up to the rounding of assembly and eigensolve (about 1e-14 relative)."""
    count = N if count is None else count
    if count > N:
        raise DomainError("count must not exceed the basis size")
    A = assemble_rayleigh_ritz(N).entries
    theta, _ = sym_eig(SymMatrix(A))
    theta = theta[::-1][:count]
    if np.any(theta <= 0):
        raise CauchySpecError("Rayleigh-Ritz matrix is not positive "
                              "definite; assembly is broken")
    return 1.0 / theta


# ---------------------------------------------------------------------------
# intermediate problems (lower bounds)


def gram_entry(m: int, n: int) -> float:
    """Gram entry of the glued strip basis f_n = 2 sqrt(1+cos x) g_n:
    b_{mn} = 4 delta_{mn} + (8/pi) [1/(1-(m-n)^2) - 1/(1-(m+n)^2)] for
    m+n even, else 0 (derived from the product-to-sum identity and verified
    against direct quadrature)."""
    if (m + n) % 2 == 1:
        return 0.0
    val = 8.0 / _PI * (1.0 / (1.0 - (m - n) ** 2) - 1.0 / (1.0 - (m + n) ** 2))
    if m == n:
        val += 4.0
    return val


def assemble_intermediate(N: int):
    """Matrices of the truncated intermediate problem at basis size N:
    returns (C, B, d, S) with C the N x (N+1) two-band coupling matrix
    (T f_n = -g_{n-1} - g_{n+1}), B the Gram matrix, d = (1, ..., N+1) the
    exact eigenvalues of the Dirichlet-Neumann operator, and
    S = I - C^T B^{-1} C."""
    if N < 1:
        raise DomainError("N must be >= 1")
    K = N + 1
    B = np.array([[gram_entry(m, n) for n in range(1, N + 1)]
                  for m in range(1, N + 1)])
    C = np.zeros((N, K))
    for row, n in enumerate(range(1, N + 1)):
        if n - 2 >= 0:
            C[row, n - 2] = -1.0
        C[row, n] = -1.0
    S = np.eye(K) - C.T @ solve_spd(SymMatrix(B), C)
    d = np.arange(1.0, K + 1.0)
    return (BasisMatrix("C", C), BasisMatrix("Gram_B", B), d,
            BasisMatrix("S", 0.5 * (S + S.T)))


def lower_bounds(N: int, count: int | None = None) -> np.ndarray:
    """Lower bounds from the intermediate problem: eigenvalues of the pencil
    D a = lambda S a merged, in nondecreasing order, with the untouched
    trivial eigenvalues K+1, K+2, ...  Non-decreasing in N."""
    count = N + 1 if count is None else count
    if count > N + 1:
        raise DomainError("count must not exceed N + 1")
    _, _, d, S = assemble_intermediate(N)
    K = N + 1
    lam = generalized_sym_eig(S.entries, d)
    lam = lam[lam > 0]
    # pencil eigenvalues above K+1 do occur for N >= 13; the merge below
    # keeps the ordering correct regardless
    merged = []
    trivial = float(K + 1)
    i = 0
    while len(merged) < count:
        if i < lam.size and lam[i] <= trivial:
            merged.append(float(lam[i]))
            i += 1
        else:
            merged.append(trivial)
            trivial += 1.0
    return np.array(merged)


def bracket(n_max: int, N: int) -> list[EigBound]:
    """Certified brackets (lower, upper) for lambda_1 .. lambda_{n_max} at
    basis size N.  Raises :class:`BracketInversion` if any lower bound
    exceeds its upper bound (which would signal an assembly bug)."""
    if n_max > N:
        raise DomainError("n_max must not exceed N")
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


@lru_cache(maxsize=8)
def _rr_eigvectors(N: int):
    A = assemble_rayleigh_ritz(N).entries
    theta, vec = sym_eig(SymMatrix(A))
    return theta[::-1], vec[:, ::-1]


def rr_eigenfunction(n: int, N: int, n_grid: int = 2001) -> GridFunction:
    """The n-th Rayleigh-Ritz eigenfunction on a uniform (-1, 1) grid, as a
    unit-L2-norm combination of orthonormal Legendre polynomials, sign-fixed
    so its inner product with tilde_phi_n is positive."""
    if n > N:
        raise DomainError("n must not exceed N")
    _, vec = _rr_eigvectors(N)
    coeff = vec[:, n - 1]
    xs = np.linspace(-1.0, 1.0, n_grid)
    degs = np.arange(N)
    basis = np.stack([eval_legendre(m, xs) * math.sqrt((2 * m + 1) / 2.0)
                      for m in degs])
    vals = coeff @ basis
    gf = GridFunction.from_samples(xs, vals)
    if gf.inner(GridFunction.from_samples(xs, tilde_phi(n, xs))) < 0:
        gf.values = -gf.values
    return gf
