"""Dense symmetric eigensolves and SPD linear solves with residual certificates.

Thin, certificate-bearing wrappers over numpy's LAPACK (no scipy): every
eigendecomposition is checked against an explicit residual bound before it
is returned, because the eigenvalue-bound pipeline downstream treats these
numbers as evidence, not as best-effort output; an SPD solve is certified by
its Cholesky factorization.  Matrices are plain arrays; each routine works
on a copy whose upper triangle mirrors the lower one, so symmetry holds bit
for bit; the pencil solve scales that one copy in place and mirrors it once,
after scaling.  The certificate fails closed: an eigenvalue, residual or
orthogonality defect that is not finite fails it, as one out of bound does.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import (DegeneratePencil, DomainError, NonConvergence,
                     NotPositiveDefinite, _finite, _positive)

__all__ = ["sym_eig", "solve_spd", "generalized_sym_eig"]

#: residual certificate threshold, relative to ||M||_2
CERT_TOL = 1e-12

#: eigenvalues of S below this (times ||S||) are treated as degenerate
DEGENERACY_THRESHOLD = 1e-12


#: rows per block of :func:`_mirror`
_MIRROR_ROWS = 64


def _mirror(a: np.ndarray) -> np.ndarray:
    """a, its lower triangle mirrored into the upper in place, _MIRROR_ROWS
    rows at a time, so that numpy buffers one diagonal block at most."""
    upper = ~np.tri(_MIRROR_ROWS, dtype=bool)
    for k in range(0, a.shape[0], _MIRROR_ROWS):
        e = k + _MIRROR_ROWS
        d = a[k:e, k:e]
        np.copyto(d, d.T, where=upper[:len(d), :len(d)])
        a[k:e, e:] = a[e:, k:e].T
    return a


def _square(M) -> np.ndarray:
    """A float copy of M; DomainError unless M is square, 2-D, nonempty and
    finite."""
    a = _finite("matrix", M)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise DomainError("need a nonempty square 2-D array")
    return a.copy()


def sym_eig(M: np.ndarray):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric M.

    Backed by LAPACK's orthogonal-similarity iteration (`numpy.linalg.eigh`);
    the residual certificate ||M v - theta v|| <= CERT_TOL * ||M|| and
    orthonormality are verified explicitly, and a failed certificate raises
    :class:`NonConvergence` rather than returning unverified numbers.
    """
    return _sym_eig(_mirror(_square(M)))


def _sym_eig(a: np.ndarray):
    """sym_eig on a, already mirrored, which the certificates read alone."""
    theta, vec = np.linalg.eigh(a)
    norm = float(np.abs(theta).max()) or 1.0       # ||a||_2, a symmetric
    # the residual and then the orthogonality defect, each formed in place
    # in one array of a's size, the first freed before the second is made
    r = a @ vec
    r -= vec * theta
    r *= r
    resid = np.sqrt(r.sum(axis=0)).max()       # largest column 2-norm
    del r
    o = vec.T @ vec
    o.reshape(-1)[::a.shape[0] + 1] -= 1.0     # minus the identity
    ortho = np.abs(o, out=o).max()
    # each comparison is False for NaN: the certificate fails closed
    if not (norm < np.inf and resid <= CERT_TOL * norm * a.shape[0]
            and ortho <= CERT_TOL * a.shape[0]):
        raise NonConvergence(
            f"eigendecomposition certificate failed (residual {resid:.2e}, "
            f"orthogonality defect {ortho:.2e})",
            estimate=theta, error_bound=resid)
    return theta, vec


def solve_spd(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve M X = rhs for symmetric positive definite M.

    Positive definiteness is certified by a Cholesky factorization
    (`numpy.linalg.cholesky`), whose failed pivot raises
    :class:`NotPositiveDefinite`; the system is then solved by LAPACK's LU
    solver (`numpy.linalg.solve`), which at these sizes is faster than two
    triangular solves on the factor through numpy.
    """
    a = _mirror(_square(M))
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    return np.linalg.solve(a, np.asarray(rhs, dtype=float))


def generalized_sym_eig(S: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Eigenvalues of the pencil  D a = lambda S a  with D = diag(d) > 0.

    Solved as the symmetric problem D^{-1/2} S D^{-1/2} w = theta w and
    returning lambda = 1/theta sorted ascending.  Directions with
    theta <= DEGENERACY_THRESHOLD (S not safely positive there) carry no
    finite eigenvalue; they are dropped from the result and reported through
    a :class:`DegeneratePencil` warning.  The copy of S is scaled, by rows
    and then by columns, and mirrored in place, with no second copy kept;
    the entries above the diagonal are scaled but never used.
    """
    s = _square(S)
    d = np.asarray(d, dtype=float)
    if d.ndim != 1 or d.shape[0] != s.shape[0]:
        raise DomainError("diagonal length must match the matrix order")
    _positive("diagonal entries", d)
    dh = 1.0 / np.sqrt(d)
    s *= dh[:, None]
    s *= dh[None, :]
    theta, _ = _sym_eig(_mirror(s))
    cutoff = DEGENERACY_THRESHOLD * max(1.0, float(np.abs(theta).max()))
    good = theta > cutoff
    if not np.all(good):
        warnings.warn(
            f"pencil has {int((~good).sum())} degenerate direction(s); "
            "corresponding eigenvalues omitted", DegeneratePencil, stacklevel=2)
    return np.sort(1.0 / theta[good])
