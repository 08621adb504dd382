"""The interval pipelines against their dense, full-table construction.

``lower_bounds`` builds the intermediate pencil one parity block at a time
from the two bands of the coupling, and the Ritz matrix fills its rows one
degree at a time from the Legendre recurrence; ``upper_bounds`` and
``rr_eigenfunction`` never embed the block eigenvectors they do not return.
The references below are the dense construction they replace: the
N x (N+1) coupling from two ``np.eye`` bands with full B and S, one table
of every P_m and P_m' at every node from scipy's ``legendre_p_all``, and
every Ritz vector embedded into R^N.  Each function must give their result
bit for bit.
"""
import numpy as np
import pytest
from scipy.special import legendre_p_all

from cauchyspec.interval import (_PI, _RR_GRID, _fejer, _tilde_phi,
                                 assemble_intermediate,
                                 assemble_rayleigh_ritz, gram_entry,
                                 lower_bounds, rr_eigenfunction,
                                 upper_bounds)
from cauchyspec.linalg import generalized_sym_eig, solve_spd, sym_eig
from cauchyspec.quadrature import GridFunction

SIZES = [1, 2, 3, 7, 25, 200, 401]


def dense_intermediate(N):
    K = N + 1
    k = np.arange(1, K)
    C = -(np.eye(N, K, 1) + np.eye(N, K, -1))
    B, S = np.zeros((N, N)), np.zeros((K, K))
    for p, q in ((0, 1), (1, 0)):          # columns p::2 meet rows q::2
        Sp = np.eye(len(range(p, K, 2)))
        if q < N:
            kq, Cq = k[q::2], C[q::2, p::2]
            B[q::2, q::2] = Bq = gram_entry(kq[:, None], kq[None, :])
            Sp -= Cq.T @ solve_spd(Bq, Cq)
        S[p::2, p::2] = 0.5 * (Sp + Sp.T)
    d = np.arange(1.0, K + 1.0)
    return C, B, d, S


def dense_lower_bounds(N):
    _, _, d, S = dense_intermediate(N)
    lam = np.concatenate([generalized_sym_eig(S[p::2, p::2], d[p::2])
                          for p in (0, 1)])
    trivial = np.arange(N + 2.0, 2.0 * N + 3.0)
    return np.sort(np.concatenate([lam[lam > 0], trivial]))[:N + 1]


def full_table_rr_blocks(N):
    s, c, w = _fejer(N + 1)
    # P_m and P_m' for m < N at every c and, in the last column, at 0
    p, dp = legendre_p_all(N - 1, np.append(c, 0.0), diff_n=1)
    U = p[:, -1:] * p[:, :-1]                          # even rows; odd are 0
    m = np.arange(1, N, 2)[:, None]
    U[1::2] = s * dp[1::2, -1:] * dp[1::2, :-1] / (m * (m + 1))
    nu = np.sqrt(np.arange(N) + 0.5)
    blocks = []
    for q in range(min(N, 2)):
        Uq = U[q::2]
        a = (Uq * (0.5 * w)) @ Uq.T                    # s ds = d sigma / 2
        blocks.append(_PI * 0.5 * (a + a.T) * np.outer(nu[q::2], nu[q::2]))
    return blocks


def embedded_ritz(N):
    theta, vec = [], []
    for q, a in enumerate(full_table_rr_blocks(N)):
        t, v = sym_eig(a)
        e = np.zeros((N, t.size))
        e[q::2] = v
        theta.append(t)
        vec.append(e)
    theta, vec = np.concatenate(theta), np.hstack(vec)
    order = np.argsort(theta)[::-1]
    return theta[order], vec[:, order]


def embedded_rr_eigenfunction(n, N):
    _, vec = embedded_ritz(N)
    coeff = vec[:, n - 1] * np.sqrt(np.arange(N) + 0.5)
    xs = np.linspace(-1.0, 1.0, _RR_GRID)
    vals = np.polynomial.legendre.legval(xs, coeff)
    # Clenshaw's sum agrees with the sum over a table of every P_m to
    # rounding, relative to sum |c_m|, which bounds it since |P_m| <= 1
    err = np.abs(vals - coeff @ legendre_p_all(N - 1, xs)[0]).max()
    assert err <= 1e-12 * np.abs(coeff).sum()
    gf = GridFunction.from_samples(xs, vals)
    if gf.inner(GridFunction.from_samples(xs, _tilde_phi(n, xs))) < 0:
        gf.values = -gf.values
    return gf.values


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("N", SIZES)
def test_intermediate_matches_dense_construction(N):
    assert all(same_bits(x, y) for x, y in
               zip(assemble_intermediate(N), dense_intermediate(N)))
    assert same_bits(lower_bounds(N), dense_lower_bounds(N))


@pytest.mark.parametrize("N", SIZES)
def test_rayleigh_ritz_matches_full_table(N):
    A = np.zeros((N, N))
    for q, a in enumerate(full_table_rr_blocks(N)):
        A[q::2, q::2] = a
    assert same_bits(assemble_rayleigh_ritz(N), A)
    assert same_bits(upper_bounds(N), 1.0 / embedded_ritz(N)[0])


@pytest.mark.parametrize("N", SIZES)
def test_rr_eigenfunction_matches_embedded_vectors(N):
    for n in sorted({1, min(N, 2), (N + 1) // 2, N}):
        assert same_bits(rr_eigenfunction(n, N).values,
                         embedded_rr_eigenfunction(n, N)), n
