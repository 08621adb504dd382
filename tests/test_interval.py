import math
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest
import scipy.integrate

from cauchyspec import (CauchySpecError, DegeneratePencil, DomainError,
                        QuadratureSpec, bracket, generalized_sym_eig,
                        generator_apply, green_moment, lower_bounds,
                        mu_asymptotic, q_cutoff, residual_norm, tilde_phi,
                        tilde_phi_norm2, upper_bounds)
from cauchyspec.checks import residual_bound
from cauchyspec import interval
from cauchyspec.interval import (PHI_KINKS, REFERENCE_BRACKETS, _descending,
                                 _fejer, _rr_blocks, assemble_intermediate,
                                 assemble_rayleigh_ritz, gram_entry)
from cauchyspec.linalg import sym_eig

PI = math.pi


# ---------------------------------------------------------------------------
# cutoff


def test_q_cutoff_values():
    assert q_cutoff(0.0) == pytest.approx(0.5)
    assert q_cutoff(-0.5) == 0.0
    assert q_cutoff(0.5) == 1.0
    assert q_cutoff(0.2) + q_cutoff(-0.2) == pytest.approx(1.0, abs=1e-15)
    xs = np.linspace(-1, 1, 201)
    qs = q_cutoff(xs)
    assert np.all((qs >= 0) & (qs <= 1))
    assert np.all(np.diff(qs) >= 0)


# ---------------------------------------------------------------------------
# glued approximate eigenfunctions


def test_tilde_phi_parity():
    assert tilde_phi(2, 0.0) == pytest.approx(0.0, abs=1e-15)
    x = 0.37
    assert tilde_phi(1, x) == pytest.approx(tilde_phi(1, -x), abs=1e-13)
    assert tilde_phi(4, x) == pytest.approx(-tilde_phi(4, -x), abs=1e-13)
    assert tilde_phi(3, 1.0) == 0.0
    assert tilde_phi(3, -1.2) == 0.0


def test_tilde_phi_norm_window():
    for n in (2, 4):
        mu = mu_asymptotic(n)
        n2 = tilde_phi_norm2(n)
        assert 1.0 - 0.52 / mu <= n2 <= 1.0 + 1.37 / mu


# ---------------------------------------------------------------------------
# generator


def test_generator_zero_function():
    assert generator_apply(lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                           0.3) == pytest.approx(0.0, abs=1e-12)


def test_generator_on_array_of_z_matches_scalar_calls():
    g = lambda x: tilde_phi(2, x)
    spec = QuadratureSpec(abs_tol=1e-8, rel_tol=1e-8)
    # points next to both ends (no left or no right outer integral), next
    # to kinks, and in the middle, as a 2-D array
    zs = np.array([[-0.95, -0.5, -1.0 / 3.0 + 0.01],
                   [0.02, 0.4, 0.93]])
    vals = generator_apply(g, zs, spec=spec)
    assert vals.shape == zs.shape
    assert vals.ravel().tolist() == [generator_apply(g, z, spec=spec)
                                     for z in zs.ravel().tolist()]
    assert isinstance(generator_apply(g, 0.4, spec=spec), float)


@pytest.mark.parametrize("z", [[0.2, 1.0], [-1.5, 0.0], [0.1, math.nan],
                               -1.0, math.nan])
def test_generator_rejects_points_outside_support(z):
    with pytest.raises(DomainError):
        generator_apply(lambda x: tilde_phi(1, x), z)


def test_generator_linearity():
    rng = np.random.default_rng(3)
    a, b = rng.uniform(-2, 2, 2)

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) < 1.0, (1.0 - x * x) ** 2, 0.0)

    def g(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) < 1.0, np.cos(0.5 * PI * x) ** 2, 0.0)

    z = 0.21
    kw = dict(kinks=(-1.0, 1.0))
    lhs = generator_apply(lambda x: a * f(x) + b * g(x), z, **kw)
    rhs = a * generator_apply(f, z, **kw) + b * generator_apply(g, z, **kw)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_generator_on_halfline_eigenfunction_window():
    # the generator reproduces -mu * psi(mu, 1+z) away from the boundary,
    # up to the truncation of psi's tail; sanity only, coarse tolerance
    from cauchyspec import psi
    mu = mu_asymptotic(2)
    big = 60.0

    def g(x):
        x = np.asarray(x, dtype=float)
        return np.where((x > -1.0) & (x < big), psi(mu, 1.0 + x), 0.0)

    z = -0.4
    val = generator_apply(g, z, support=(-1.0, big), kinks=(-1.0, big),
                          spec=QuadratureSpec(abs_tol=1e-7, rel_tol=1e-7,
                                              max_subdivisions=8000))
    assert val == pytest.approx(-mu * psi(mu, 1.0 + z), abs=5e-3)


@pytest.mark.slow
def test_residual_bound_n4():
    assert residual_norm(4) <= residual_bound(4)


@pytest.mark.slow
@pytest.mark.xfail(strict=True, reason="generator_apply accepts rounding "
                   "noise of the folded quotient at the Gauss nodes next to "
                   "the kink at 0: residual_norm(12) returns ~2e3")
def test_residual_bound_n12():
    assert residual_norm(12) <= residual_bound(12)


@pytest.mark.slow
def test_residual_localizes_eigenvalues():
    # the nearest eigenvalue to mu_n lies within the relative residual:
    # |lambda_n - mu_n| <= ||(gen + mu_n) phi~_n|| / ||phi~_n||
    brs = {b.n: b for b in bracket(8, 150)}
    for n in (4, 6, 8):
        mu = mu_asymptotic(n)
        rel = residual_norm(n, nodes_per_piece=16) / math.sqrt(tilde_phi_norm2(n))
        assert abs(brs[n].midpoint - mu) <= rel + 1e-4


def test_residual_norm_uses_tilde_phi_unchanged():
    # residual_norm evaluates tilde_phi through its private kernel; the same
    # Gauss sum with the public tilde_phi must agree bit for bit
    n, nodes = 1, 16
    g = lambda x: tilde_phi(n, x)
    spec = QuadratureSpec(abs_tol=1e-8, rel_tol=1e-8)
    gx, gw = np.polynomial.legendre.leggauss(nodes)
    lo, hi = np.array(PHI_KINKS[:-1]), np.array(PHI_KINKS[1:])
    zs = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * gx
    ws = 0.5 * (hi - lo)[:, None] * gw
    resid = generator_apply(g, zs, spec=spec) + mu_asymptotic(n) * g(zs)
    ref = math.sqrt(sum(float((r * r * w).sum()) for r, w in zip(resid, ws)))
    assert residual_norm(n, nodes) == ref


# ---------------------------------------------------------------------------
# Green moments and Rayleigh-Ritz assembly


def test_green_moment_closed_values():
    assert green_moment(0, 0) == pytest.approx(PI / 2.0, abs=1e-14)
    assert green_moment(1, 1) == pytest.approx(PI / 16.0, abs=1e-14)
    assert green_moment(0, 1) == 0.0
    assert green_moment(2, 4) == green_moment(4, 2)


def green_function(x, y):
    num = 1.0 - x * y + math.sqrt(max(1 - x * x, 0.0)) * math.sqrt(max(1 - y * y, 0.0))
    return math.log(num / abs(x - y)) / PI


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("m,n", [(0, 0), (1, 1), (3, 1), (2, 2), (4, 2), (6, 6)])
def test_green_moment_vs_2d_quadrature(m, n):
    # the log singularity makes scipy warn about its internal 1e-11 target;
    # accuracy is still far beyond the 1e-8 asserted here
    def inner(y):
        val, _ = scipy.integrate.quad(
            lambda x: x**m * green_function(x, y), -1.0, 1.0,
            points=[y], limit=200)
        return val * y**n

    ref, _ = scipy.integrate.quad(inner, -1.0, 1.0, limit=100)
    assert green_moment(m, n) == pytest.approx(ref, abs=1e-8)


def test_rayleigh_ritz_matrix_structure():
    A = assemble_rayleigh_ritz(20)
    # parity zeros and exact symmetry
    for m in range(20):
        for n in range(20):
            if (m + n) % 2 == 1:
                assert A[m, n] == 0.0
    assert np.array_equal(A, A.T)
    assert A[0, 0] == pytest.approx(PI / 4.0, abs=1e-15)


# Reference oracle: the same matrix over exact integers.  With
# c_{m,j} the Legendre-to-monomial coefficients, A/pi = 4^{-m-n} (W H W^T)_mn
# times nu_m nu_n, H_kl = 1/(k+l+2); the terms of W H W^T cancel
# catastrophically, so only exact arithmetic gets them right this way.


def _legendre_int_rows(N):
    """W[m][k] = 2^m c_{m,(m-k)/2} * beta_k * 2^{m-k}, all integers."""
    W = [[0] * N for _ in range(N)]
    for m in range(N):
        for j in range(m // 2 + 1):
            k = m - 2 * j
            c2m = (-1) ** j * comb(m + k, (m + k) // 2) * comb((m + k) // 2, j)
            W[m][k] = c2m * comb(k, k // 2) * (1 << (m - k))
    return W


def _lcm_upto(n):
    out = 1
    for k in range(2, n + 1):
        out = out * k // math.gcd(out, k)
    return out


def assemble_exact(N):
    """Rayleigh-Ritz matrix with one correctly rounded downcast per entry
    (before the float product with pi and the normalizations)."""
    L = _lcm_upto(2 * N)
    W = _legendre_int_rows(N)
    H = [[L // (k + l + 2) for l in range(N)] for k in range(N)]
    U = [[sum(W[m][k] * H[k][l] for k in range(N) if W[m][k])
          for l in range(N)] for m in range(N)]
    A = np.zeros((N, N))
    for m in range(N):
        for n in range(m, N):
            if (m + n) % 2 == 1:
                continue
            num = sum(U[m][l] * W[n][l] for l in range(N) if W[n][l])
            val = float(Fraction(num, L * (1 << (2 * (m + n)))))
            A[m, n] = A[n, m] = PI * val * math.sqrt((2 * m + 1) * (2 * n + 1)) / 2.0
    return A


@pytest.mark.parametrize("N", [25, 150])
def test_float_assembly_matches_exact_oracle(N):
    exact = assemble_exact(N)
    A = assemble_rayleigh_ritz(N)
    assert np.abs(A - exact).max() <= 1e-14 * np.linalg.norm(exact, 2)


def gauss_legendre_newton(n):
    """The n-point Gauss-Legendre rule for int_0^1 g(s) ds, built without
    numpy's leggauss and apart from the library's Fejer rule.  Its nodes
    x = cos(theta) are symmetric, so theta runs over (0, pi/2] alone: from
    Tricomi's pi (k - 1/4)/(n + 1/2) it is polished by Newton steps on
    P_n(cos theta), with P_m and D_m = P_m - P_{m-1} from the recurrence
    D_{m+1} = (m D_m - (2m+1) y P_m)/(m+1) in y = 1 - x = 2 sin^2(theta/2),
    which stays accurate where x nears 1.  It runs in long double (64-bit
    mantissa on x86), whose rounding the recurrence's growth of about n ulps
    keeps below a float64 ulp.  The weights sin^2(theta)/(n P_{n-1})^2 and
    the nodes s = cos^2(theta/2), and sin^2(theta/2) for the mirror image,
    are read off theta, so that nothing cancels near the ends.  Returns
    float64 (s, weights)."""
    ld = np.longdouble
    pi = 4 * np.arctan(ld(1))
    k = np.arange(1, (n + 1) // 2 + 1, dtype=ld)
    theta = pi * (k - ld(0.25)) / (n + ld(0.5))

    def legendre(theta):
        y = 2 * np.sin(theta / 2) ** 2
        p, d = 1 - y, -y                             # P_1 and P_1 - P_0
        for m in range(1, n):
            d = (m * d - (2 * m + 1) * y * p) / (m + 1)
            p = p + d
        return p, d, y                               # P_n, P_n - P_{n-1}

    for _ in range(8):
        p, d, y = legendre(theta)
        theta = theta + p * np.sin(theta) / (n * (y * p - d))
    p, d, _ = legendre(theta)
    w = (np.sin(theta) / (n * (p - d))) ** 2   # half the weight on [-1, 1]
    half = theta[:n // 2][::-1]                      # all but a middle node
    s = np.concatenate((np.cos(theta / 2) ** 2, np.sin(half / 2) ** 2))
    return s.astype(float), np.concatenate((w, w[:n // 2][::-1])).astype(float)


def test_newton_gauss_rule_matches_mpmath():
    # a few nodes and weights of the reference rule of assemble_theta_grid,
    # against Newton's method on P_n at 40 digits
    mp = pytest.importorskip("mpmath")
    n = 402
    s, w = gauss_legendre_newton(n)
    with mp.workdps(40):
        for k in (0, 1, n // 2, n - 1):
            x = 2 * mp.mpf(float(s[k])) - 1
            for _ in range(3):
                p, q = mp.legendre(n, x), mp.legendre(n - 1, x)
                x -= p * (x * x - 1) / (n * (x * p - q))
            wk = (1 - x * x) / (n * mp.legendre(n - 1, x)) ** 2
            assert abs(s[k] - (1 + x) / 2) <= 1.2e-16 * ((1 + x) / 2)
            assert abs(w[k] - wk) <= 1.2e-16 * wk


@pytest.mark.parametrize("n", [1, 2, 3, 26, 201])
def test_fejer_rule_exact_and_symmetric(n):
    # n nodes integrate sigma^d, d <= n - 1, to rounding, and the weights
    # of k and n - 1 - k are one number
    s, _, w = _fejer(n)
    d = np.arange(n)
    assert np.abs(((s * s) ** d[:, None]) @ w - 1.0 / (d + 1)).max() <= 4e-16
    assert np.array_equal(w, w[::-1])


@pytest.mark.parametrize("n, tol", [(26, 3e-17), (201, 6e-18)])
def test_fejer_weights_match_mpmath(n, tol):
    # the cosine sum of the weights at 30 digits; an FFT of the sum, the
    # usual way to evaluate it, is off by 1.3e-17 (n = 26), 4.2e-18 (n = 201)
    mp = pytest.importorskip("mpmath")
    w = _fejer(n)[2]
    with mp.workdps(30):
        for k in range((n + 1) // 2):
            t = (2 * k + 1) * mp.pi / n
            wk = (1 - sum(2 * mp.cos(j * t) / (4 * j * j - 1)
                          for j in range(1, (n + 1) // 2))) / n
            assert abs(w[k] - wk) <= tol, k


def assemble_theta_grid(N):
    """The same matrix from a direct average over theta: P_m by its
    three-term recurrence on the grid z = s cos(theta) of N+2 Gauss points
    in s (:func:`gauss_legendre_newton`) and N//2+2 midpoints in theta,
    which integrate every entry exactly.  An independent float reference at
    sizes the exact oracle cannot reach, sharing no rule with the library."""
    s, w = gauss_legendre_newton(N + 2)
    n_t = N // 2 + 2
    cos_t = np.cos((np.arange(n_t) + 0.5) * (PI / n_t))
    z = s[:, None] * cos_t[None, :]
    theta_avg = (np.full(n_t, 1.0 / n_t), cos_t / n_t)   # by parity of m
    U = np.empty((N, s.size))
    p_prev, p = np.zeros_like(z), np.ones_like(z)
    for m in range(N):
        U[m] = p @ theta_avg[m % 2]
        p_prev, p = p, ((2 * m + 1) * z * p - m * p_prev) / (m + 1)
    A = (U * (w * s)) @ U.T
    nu = np.sqrt(np.arange(N) + 0.5)
    A = PI * 0.5 * (A + A.T) * np.outer(nu, nu)
    k = np.arange(N)
    A[(k[:, None] + k[None, :]) % 2 == 1] = 0.0
    return A


def test_closed_form_assembly_matches_theta_average():
    # high degrees, beyond the reach of the exact oracle
    ref = assemble_theta_grid(400)
    A = assemble_rayleigh_ritz(400)
    assert np.abs(A - ref).max() <= 1e-14 * np.linalg.norm(ref, 2)


def test_assembly_leading_block_stable_in_basis():
    # the quadrature rule grows with N, so shared entries agree to rounding
    a50 = assemble_rayleigh_ritz(50)
    a200 = assemble_rayleigh_ritz(200)
    assert np.abs(a50 - a200[:50, :50]).max() <= 1e-13 * np.linalg.norm(a200, 2)


def test_bounds_nested_for_every_basis_size():
    # min-max over nested subspaces, up to the rounding of the eigensolves
    prev_up = prev_lo = None
    for N in range(1, 201):
        count = min(N, 10)
        up = upper_bounds(N, count)
        lo = lower_bounds(N, count)
        assert np.all(lo <= up)
        if prev_up is not None:
            k = min(count, prev_up.size)
            assert np.all(up[:k] <= prev_up[:k] * (1.0 + 1e-13))
            assert np.all(lo[:k] >= prev_lo[:k] * (1.0 - 1e-13))
        prev_up, prev_lo = up, lo


# ---------------------------------------------------------------------------
# bounds


def test_upper_bound_small_bases():
    # N=1: best Rayleigh quotient with a constant test function is pi/4
    up = upper_bounds(1, 1)
    assert up[0] == pytest.approx(4.0 / PI, rel=1e-13)
    # from N=3 on, below the classical analytic bound 3 pi / 8
    for N in (3, 10, 40):
        assert upper_bounds(N, 1)[0] <= 3.0 * PI / 8.0
    assert upper_bounds(150, 1)[0] >= 1.157773883697


def test_upper_bounds_reject_an_indefinite_block_at_any_count(monkeypatch):
    # the guard reads the smallest theta of both blocks, not only the
    # count largest: a negative theta is caught even when count < N
    monkeypatch.setattr(interval, "_rr_blocks", lambda N: [
        np.diag([3.0, -1.0]), np.diag([2.0, 1.0])])
    for count in (1, 4):
        with pytest.raises(CauchySpecError, match="not positive definite"):
            upper_bounds(4, count)


def test_upper_bounds_reject_a_nan_spectrum(monkeypatch):
    # NaN compares false, so the guard asks for theta > 0, not theta <= 0
    monkeypatch.setattr(interval, "sym_eig", lambda a: (
        np.array([np.nan, 1.0]) if a.shape[0] == 2 else np.ones(1), None))
    with pytest.raises(CauchySpecError, match="not positive definite"):
        upper_bounds(3)


def test_upper_bounds_monotone_in_basis():
    u100 = upper_bounds(100, 10)
    u150 = upper_bounds(150, 10)
    assert np.all(u150 <= u100 + 1e-14)


def test_lower_bounds_monotone_in_basis():
    l50 = lower_bounds(50, 10)
    l100 = lower_bounds(100, 10)
    assert np.all(l50 <= l100 + 1e-14)


def test_lower_bounds_small_basis():
    # N=1: pencil gives (1, 2/s22) with s22 = 1 - 1/b11
    b11 = 4.0 + 32.0 / (3.0 * PI)
    expect2 = 2.0 / (1.0 - 1.0 / b11)
    lo = lower_bounds(1, 2)
    assert lo[0] == pytest.approx(1.0, abs=1e-12)
    assert lo[1] == pytest.approx(expect2, rel=1e-12)
    with pytest.raises(DomainError):
        lower_bounds(1, 3)


def _off_parity(n):
    k = np.arange(n)
    return (k[:, None] + k[None, :]) % 2 == 1


@pytest.mark.parametrize("N", [1, 2, 3, 50, 201])
def test_ritz_parity_blocks_match_full_matrix(N):
    # the blocks are solved apart; merged, they are the spectrum of A_N, and
    # each block's eigenvectors, embedded with exact zeros off its parity,
    # are eigenvectors of A_N
    A = assemble_rayleigh_ritz(N)
    pairs = [sym_eig(a) for a in _rr_blocks(N)]
    theta = [t for t, _ in pairs]
    vec = np.zeros((N, N))
    for q, (t, v) in enumerate(pairs):
        vec[q::2, q * theta[0].size:][:, :t.size] = v
    order = _descending(theta)
    theta, vec = np.concatenate(theta)[order], vec[:, order]
    assert np.array_equal(upper_bounds(N), 1.0 / theta)
    full = np.linalg.eigvalsh(A)[::-1]
    assert np.all(np.diff(theta) <= 0.0)
    assert np.abs(theta - full).max() <= 1e-14 * full[0]
    assert np.all(np.abs(theta[:10] - full[:10]) <= 1e-14 * full[:10])
    assert np.abs(vec.T @ vec - np.eye(N)).max() <= 1e-13
    assert np.linalg.norm(A @ vec - vec * theta, axis=0).max() <= 1e-14 * full[0]
    # each eigenvector lives on one parity, exactly 0 on the other
    even = np.all(vec[1::2] == 0.0, axis=0)
    odd = np.all(vec[0::2] == 0.0, axis=0)
    assert np.all(even ^ odd)
    assert even.sum() == (N + 1) // 2


def test_lower_bounds_merge_with_trivial_modes():
    # S is exactly 0 off parity, and the pencil solved on its two blocks,
    # merged with the trivial eigenvalues K+1, K+2, ... (K = N+1), gives the
    # full pencil's answer.  From N=13 on, one pencil eigenvalue exceeds
    # K+1, so the tail of the merged sequence interleaves the trivial ones
    for N in (1, 2, 13, 200):
        _, _, d, S = assemble_intermediate(N)
        assert np.all(S[_off_parity(N + 1)] == 0.0)
        pencil = generalized_sym_eig(S, d)
        assert (pencil.max() > N + 2) == (N >= 13)
        trivial = np.arange(N + 2.0, 2.0 * N + 3.0)
        expect = np.sort(np.concatenate([pencil, trivial]))[:N + 1]
        merged = lower_bounds(N, N + 1)
        assert np.all(np.abs(merged - expect) <= 1e-14 * expect)


def test_lower_bounds_report_degenerate_block_direction(monkeypatch):
    # give the even block of S a zero direction along the eigenvector of its
    # largest theta (lambda_1): lower_bounds warns, drops exactly that
    # eigenvalue, and returns the others
    N = 20
    C, B, d, S = assemble_intermediate(N)
    dh = np.sqrt(d[0::2])
    theta, w = np.linalg.eigh(S[0::2, 0::2] / np.outer(dh, dh))
    theta[-1] = 0.0
    bad = S.copy()
    bad[0::2, 0::2] = np.outer(dh, dh) * ((w * theta) @ w.T)
    even = np.sort(1.0 / theta[:-1])
    odd = generalized_sym_eig(S[1::2, 1::2], d[1::2])
    pencil_block = interval._pencil_block

    def bad_block(n, p):
        Cq, Bq, Sp = pencil_block(n, p)
        return Cq, Bq, (bad[0::2, 0::2] if p == 0 else Sp)

    monkeypatch.setattr(interval, "_pencil_block", bad_block)
    with pytest.warns(DegeneratePencil, match="has 1 degenerate"):
        lo = lower_bounds(N, N + 1)
    assert lo[0] > 2.0                       # lambda_1 ~ 1.158 is gone
    expect = np.sort(np.concatenate([even, odd,
                                     np.arange(N + 2.0, 2.0 * N + 3.0)]))
    assert np.all(np.abs(lo - expect[:N + 1]) <= 1e-13 * expect[:N + 1])
    assert set(odd[odd < lo[-1]]) <= set(lo)   # the odd block is untouched


def test_gram_entries_vs_quadrature():
    for (m, n) in ((1, 1), (2, 2), (3, 3), (1, 3), (2, 4), (1, 5), (4, 4)):
        ref, _ = scipy.integrate.quad(
            lambda x: 8.0 / PI * (1 + math.cos(x))
                      * math.sin(m * (x + PI / 2)) * math.sin(n * (x + PI / 2)),
            -PI / 2, PI / 2, limit=200)
        assert gram_entry(m, n) == pytest.approx(ref, abs=1e-12)
    assert gram_entry(1, 2) == 0.0
    assert gram_entry(1, 1) == pytest.approx(4.0 + 32.0 / (3.0 * PI), rel=1e-15)
    # on index grids the one formula gives the scalar values bit for bit,
    # odd-parity zeros included
    k = np.arange(1, 41)
    grid = gram_entry(k[:, None], k[None, :])
    scalar = [[gram_entry(m, n) for n in range(1, 41)] for m in range(1, 41)]
    assert np.array_equal(grid, scalar)
    assert np.all(grid[(k[:, None] + k[None, :]) % 2 == 1] == 0.0)


@pytest.mark.parametrize("N", [1, 2, 3, 25, 200, 2000])
def test_pencil_gram_block_is_gram_entry(N):
    # the in-place float build of a parity block gives gram_entry's values
    # on its index grid bit for bit
    for p in (0, 1):
        q = 1 - p
        _, Bq, _ = interval._pencil_block(N, p)
        if q >= N:
            assert Bq is None
            continue
        k = np.arange(q + 1, N + 1, 2)
        ref = gram_entry(k[:, None], k[None, :])
        assert np.array_equal(Bq.view(np.uint64), ref.view(np.uint64))


def test_gram_positive_definite_up_to_300():
    from cauchyspec import solve_spd
    _, B, _, _ = assemble_intermediate(300)
    solve_spd(B, np.eye(300))        # factorization must succeed


def test_intermediate_matrix_shapes():
    C, B, d, S = assemble_intermediate(3)
    assert C.shape == (3, 4)
    assert B.shape == (3, 3)
    assert np.array_equal(d, [1.0, 2.0, 3.0, 4.0])
    assert S.shape == (4, 4)
    # two-band coupling rows: |C| row sums are 2 except the first (g_0 = 0)
    counts = np.abs(C).sum(axis=1)
    assert counts[0] == 1.0
    assert np.all(counts[1:] == 2.0)
    # Gram positive definite (factorization succeeds)
    from cauchyspec import solve_spd
    solve_spd(B, np.eye(3))


def test_bracket_validation():
    with pytest.raises(DomainError):
        bracket(5, 3)
    brs = bracket(3, 10)
    for b in brs:
        assert b.lower <= b.upper


def test_bracket_working_set():
    # both sides work one parity block at a time: the Ritz rows are filled
    # one degree at a time from the Legendre recurrence, and the pencil is
    # built from the coupling's two bands per block, so at N = 400 the
    # traced peak is about 2.8 MiB; a table of P_m and P_m' at all nodes
    # takes it to 5.2 MiB, and a dense coupling with full B and S to 5.9 MiB
    bracket(10, 400)
    tracemalloc.start()
    try:
        bracket(10, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_interval_binds_nothing_from_scipy():
    # the interval pipelines run on numpy alone
    from_scipy = [name for name, value in vars(interval).items()
                  if str(getattr(value, "__module__", "")).startswith("scipy")]
    assert from_scipy == []


def test_brackets_contain_references_n50():
    brs = bracket(10, 50)
    for b in brs:
        rl, ru = REFERENCE_BRACKETS[b.n]
        assert b.lower <= rl
        assert ru <= b.upper


def test_bracket_midpoint_localization_n50():
    brs = bracket(10, 50)
    for b in brs:
        assert abs(b.midpoint - mu_asymptotic(b.n)) <= 1.0 / b.n
    # eigenvalue separation: consecutive midpoints differ by > 0.69
    mids = [b.midpoint for b in brs]
    assert all(m2 - m1 > 0.69 for m1, m2 in zip(mids, mids[1:]))
