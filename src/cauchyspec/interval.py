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
  polynomial in s read off P_m and P_m' at sqrt(1 - s^2) and at 0, and each
  entry a polynomial in sigma = s^2, so Fejer's first rule with N+1 nodes
  in sigma is exact (see :func:`assemble_rayleigh_ritz`).

* lower bounds: the method of intermediate problems.  After mapping to a
  strip, the problem becomes  A f = lambda (1 - T^2) f  with A the
  Dirichlet-Neumann operator (eigenfunctions g_k, eigenvalues k) and T a
  bounded multiplication operator; truncating T through the projection onto
  span(f_1..f_N) with f_n = 2 sqrt(1+cos x) g_n leaves the matrix pencil
  D a = lambda (I - C^T B^{-1} C) a  plus the untouched modes k > N+1.
  The coupling C is two bands of -1 and the Gram matrix B is closed-form
  (:func:`gram_entry`; the pencil builds each parity block of it in place).

Both operators commute with x -> -x, so the Ritz matrix A_N and the pencil
matrix S are exactly 0 off parity and split into an even and an odd block.
Each pipeline assembles, certifies and solves the two blocks apart and
merges their spectra, in float64 on plain arrays: nothing in either assembly
cancels, so no precision setting exists.  The upper bounds and the
eigenfunctions solve the blocks of A_N with :func:`.linalg.sym_eig` and
merge them in one order (``_descending``), and nothing is cached between
calls.

Working set: nothing full-size is formed that only a block is read from.
The rows of each Ritz block are filled one degree at a time from the
three-term Legendre recurrence at the Fejer nodes and at 0
(``_rr_blocks``).  The pencil is built per parity block straight from the
two bands of the coupling (``_pencil_block``): the lower bounds form no
dense C, no full B and no full S, and :func:`assemble_intermediate`
scatters the same blocks.  The upper bounds keep only each block's
eigenvalues, and :func:`rr_eigenfunction` sums only the eigenvector it
returns, by Clenshaw's recurrence.  Each entry has the bits that a dense
pencil, or scipy's table of P_m and P_m', gives
(tests/test_interval_reference.py).  The traced peak of ``bracket(10, N)``
is 0.8 MiB at N = 200 and 69 MiB at N = 2000.

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
    and the left and right outer integrals of all points form another; each
    point's value is the one it gets on its own.  A point outside the open
    support (or NaN) raises DomainError.
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

    pts = [sorted({abs(k - z) for k in kinks if 0.0 < abs(k - z) < dz})
           for z, dz in zip(zs.tolist(), d.tolist())]
    out = integrate_many(folded, [(0.0, dz) for dz in d.tolist()], spec, pts)
    out = out - gz * 2.0 / d
    left, right = zs - d > a, zs + d < b
    zo = np.concatenate([zs[left], zs[right]])
    doms = ([(a, y) for y in (zs - d)[left].tolist()]
            + [(y, b) for y in (zs + d)[right].tolist()])
    vals = integrate_many(lambda y, rows: g2(y) / (y - zo[rows, None]) ** 2,
                          doms, spec, [kinks] * len(doms))
    nl = int(left.sum())
    out[left] += vals[:nl]
    out[right] += vals[nl:]
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


def _fejer(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fejer's first rule with n nodes for int_0^1 g(sigma) d sigma, exact
    for polynomials of degree n - 1: the nodes sigma_k = cos^2(theta_k/2),
    theta_k = (2k+1) pi/(2n), returned as s_k = cos(theta_k/2) and
    c_k = sin(theta_k/2) (so s_k^2 = sigma_k and c_k^2 = 1 - sigma_k, each
    to rounding), and the weights

        w_k = (1/n) (1 - 2 sum_{j=1}^{floor(n/2)} cos(2 j theta_k)/(4j^2 - 1)),

    a DCT-III of the sequence 1, 0, -1/3, 0, -1/15, ..., evaluated as one
    FFT (Waldvogel, BIT 46, 2006)."""
    half = (np.arange(n) + 0.5) * (_PI / (2 * n))
    # 2j <= n - 1: for an even n the term j = n/2, cos(n theta_k), is 0
    j = np.arange(1, (n + 1) // 2)
    b = np.zeros(2 * n, dtype=complex)
    b[0] = 1.0
    b[2 * j] = -2.0 / (4.0 * j * j - 1.0) * np.exp(1j * _PI * j / n)
    return np.cos(half), np.sin(half), 2.0 * np.fft.ifft(b)[:n].real


def _rr_blocks(N: int) -> list[np.ndarray]:
    """The even and the odd block of A_N, A[p::2, p::2] for p = 0, 1 (the
    odd one only for N >= 2); see :func:`assemble_rayleigh_ritz`.  The rows
    u_m are filled one degree at a time from the three-term recurrence for
    P_m and P_m', run on the Fejer c with 0 appended, so that its last
    column holds P_m(0) and P_m'(0); only two degrees are kept at a time."""
    s, c, w = _fejer(N + 1)
    x = np.append(c, 0.0)
    U = [np.empty(((N + 1) // 2, N + 1)), np.empty((N // 2, N + 1))]
    # P_{-1} = 0 makes the step to m = 1 give P_1 = x and P_1' = 1 exactly
    p_, dp_, dp = np.zeros((3, x.size))
    p = np.ones_like(x)
    for m in range(N):
        if m:
            f0, f1 = -(m - 1) / m, (2 * m - 1) / m
            fx = f1 * x
            p_, p, dp_, dp = (p, f0 * p_ + fx * p,
                              dp, f0 * dp_ + (fx * dp + f1 * p))
        if m % 2 == 0:
            U[0][m // 2] = p[-1] * p[:-1]
        else:
            U[1][m // 2] = s * dp[-1] * dp[:-1] / (m * (m + 1))
    nu = np.sqrt(np.arange(N) + 0.5)
    blocks = []
    for q in range(min(N, 2)):
        Uq = U[q]
        a = (Uq * (0.5 * w)) @ Uq.T                    # s ds = d sigma / 2
        blocks.append(_PI * 0.5 * (a + a.T) * np.outer(nu[q::2], nu[q::2]))
    return blocks


def assemble_rayleigh_ritz(N: int) -> np.ndarray:
    """Matrix of the Green operator in the first N orthonormal Legendre
    polynomials, in float64 from its Gram form

        A_mn = pi nu_m nu_n int_0^1 s u_m(s) u_n(s) ds,   nu_m = sqrt((2m+1)/2),
        u_m(s) = (1/pi) int_0^pi cos^{m mod 2}(t) P_m(s cos t) dt,

    for m + n even (zero otherwise), in which no term cancels.  By the
    Legendre addition theorem (DLMF 14.18), with c = sqrt(1 - s^2),

        u_m(s) = P_m(0) P_m(c)                       (m even),
        u_m(s) = s P_m'(0) P_m'(c) / (m (m+1))       (m odd),

    a polynomial of degree m in s.  With sigma = s^2, s ds = d sigma / 2 and
    u_m u_n for m + n even is a polynomial of degree (m+n)/2 <= N - 1 in
    sigma, so Fejer's first rule with N+1 nodes in sigma (:func:`_fejer`,
    weights in closed form, nodes s and c as a cosine and a sine) integrates
    every entry exactly and the only error is rounding, about 3e-16 ||A||_2
    against the exact oracle at N = 150.  The rule grows with N, so entries
    shared by two basis sizes agree to that level, not bitwise.  P_m and
    P_m' come from their three-term recurrence, one degree at a time.  The
    even and the odd block are assembled apart and scattered into A, whose
    off-parity entries stay exactly 0.  N must be an integer >= 1."""
    _integer("N", N, 1)
    A = np.zeros((N, N))
    for q, a in enumerate(_rr_blocks(N)):
        A[q::2, q::2] = a
    return A


def _descending(theta: list[np.ndarray]) -> np.ndarray:
    """The eigenvalues of A_N in descending order, as indices into the even
    block's spectrum followed by the odd block's."""
    return np.argsort(np.concatenate(theta))[::-1]


def upper_bounds(N: int, count: int | None = None) -> np.ndarray:
    """Rayleigh-Ritz upper bounds: 1/theta for the descending eigenvalues
    theta of A_N.  Non-increasing in N by min-max over nested subspaces,
    up to the rounding of assembly and eigensolve (about 1e-14 relative).
    Each parity block is solved by the certified :func:`.linalg.sym_eig`,
    whose eigenvectors are dropped at once, and the two spectra are merged.
    N is an integer >= 1 and count, by default N, one of 0..N."""
    _integer("N", N, 1)
    count = N if count is None else count
    _integer("count", count, 0, N)
    spectra = [sym_eig(a)[0] for a in _rr_blocks(N)]
    if min(t[0] for t in spectra) <= 0:
        raise CauchySpecError("Rayleigh-Ritz matrix is not positive "
                              "definite; assembly is broken")
    return 1.0 / np.concatenate(spectra)[_descending(spectra)[:count]]


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
    S = I - C^T B^{-1} C.  B couples indices of one parity and C indices of
    opposite parity, so the columns p::2 of S meet only the rows 1-p::2 of
    B (none for p = 0 at N = 1): B and S are built one parity block at a
    time, each Gram block certified by its own Cholesky factorization, and
    are exactly 0 off parity.  Each block comes from :func:`_pencil_block`
    and is scattered into the full arrays.  N must be an integer >= 1."""
    _integer("N", N, 1)
    K = N + 1
    # C is -(two bands of ones), so its zeros are -0.0
    C, B, S = np.full((N, K), -0.0), np.zeros((N, N)), np.zeros((K, K))
    for p, q in ((0, 1), (1, 0)):          # columns p::2 meet rows q::2
        Cq, Bq, S[p::2, p::2] = _pencil_block(N, p)
        if Cq is not None:
            C[q::2, p::2], B[q::2, q::2] = Cq, Bq
    return C, B, np.arange(1.0, K + 1.0), S


def _pencil_block(N: int, p: int):
    """The parity block p (0 or 1) of the intermediate problem at basis size
    N, built from the two bands of the coupling alone: (Cq, Bq, Sp) with
    Cq = C[q::2, p::2] and Bq = B[q::2, q::2] for q = 1 - p (both None when
    there are no such rows, p = 0 at N = 1), and Sp = S[p::2, p::2].  In
    Cq, row a of C is 2a + q and column b is 2b + p, so its bands -1 sit
    on the diagonal and on the one above (q = 1) or below (q = 0) it."""
    K, q = N + 1, 1 - p
    Sp = np.eye(len(range(p, K, 2)))
    Cq = Bq = None
    if q < N:
        shape = (len(range(q, N, 2)), Sp.shape[0])
        Cq = -(np.eye(*shape) + np.eye(*shape, 2 * q - 1))
        # gram_entry on the indices q+1, q+3, ..., whose pairwise sums are
        # all even, built in place: its bits in two float arrays
        kq = np.arange(q + 1.0, N + 1.0, 2.0)
        Bq, dp = np.subtract.outer(kq, kq), np.add.outer(kq, kq)
        for d in (Bq, dp):
            np.multiply(d, d, out=d)
            np.subtract(1.0, d, out=d)
            np.divide(1.0, d, out=d)
        Bq -= dp
        Bq *= 8.0 / _PI
        Bq.flat[::Bq.shape[0] + 1] += 4.0
        del d, dp
        Sp -= Cq.T @ solve_spd(Bq, Cq)
    return Cq, Bq, 0.5 * (Sp + Sp.T)


def lower_bounds(N: int, count: int | None = None) -> np.ndarray:
    """Lower bounds from the intermediate problem: the ``count`` smallest of
    the positive eigenvalues of the pencil D a = lambda S a together with
    the untouched trivial eigenvalues K+1, K+2, ... (K = N+1), in
    nondecreasing order; pencil eigenvalues above K+1 do occur for N >= 13.
    S is 0 off parity, so the pencil is solved on its even and its odd
    block, S[p::2, p::2] with d[p::2], one block at a time
    (:func:`_pencil_block`), and the two spectra are merged: no dense
    coupling, full Gram matrix or full S is formed.  Non-decreasing in N.
    N is an integer >= 1 and count, by default N + 1, one of 0..N+1."""
    _integer("N", N, 1)
    count = N + 1 if count is None else count
    _integer("count", count, 0, N + 1)
    d = np.arange(1.0, N + 2.0)
    lam = np.concatenate([generalized_sym_eig(_pencil_block(N, p)[2], d[p::2])
                          for p in (0, 1)])
    trivial = np.arange(N + 2.0, N + 2.0 + count)
    return np.sort(np.concatenate([lam, trivial]))[:count]


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
    theta, vec = zip(*(sym_eig(a) for a in _rr_blocks(N)))
    k = _descending(theta)[n - 1]
    q = int(k >= theta[0].size)            # the parity block it lies in
    coeff = np.zeros(N)
    coeff[q::2] = vec[q][:, k - q * theta[0].size]
    xs = np.linspace(-1.0, 1.0, _RR_GRID)
    nu = np.sqrt(np.arange(N) + 0.5)
    vals = np.polynomial.legendre.legval(xs, coeff * nu)
    gf = GridFunction.from_samples(xs, vals)
    if gf.inner(GridFunction.from_samples(xs, _tilde_phi(n, xs))) < 0:
        gf.values = -gf.values
    return gf
