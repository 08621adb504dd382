"""Acceptance suite, one printed pass/fail line each.  Run with
pytest tests/test_acceptance.py -v -s  (or through the CLI:
cauchyspec validate --level full, which runs every registry check).

``test_check`` runs each named check of :mod:`cauchyspec.checks` once, at
the tolerance the registry gives it.  The numbered criteria keep only what
no registry check measures: extra grids, time limits and properties that
have no single tolerance.
"""
import math
import time

import numpy as np
import pytest

from cauchyspec import (QuadratureSpec, bracket, heat_kernel, integrate,
                        mu_asymptotic, pi_transform, psi, remainder,
                        residual_norm, rr_eigenfunction, tilde_phi,
                        tilde_phi_norm2)
from cauchyspec.checks import (CHECKS, bump, bump_transform, residual_bound,
                               spectral_rel_error)

PI = math.pi
SQ2 = math.sqrt(2.0)


def report(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'}  criterion {num:>2}: {detail}"
    print(line)
    return ok


@pytest.fixture(scope="session")
def check_result():
    """Run a registry check once per session: (record, seconds)."""
    cache = {}

    def run(cid):
        if cid not in cache:
            t0 = time.perf_counter()
            rec = CHECKS[cid].run()
            cache[cid] = rec, time.perf_counter() - t0
        return cache[cid]
    return run


@pytest.mark.parametrize("cid", list(CHECKS))
def test_check(cid, check_result):
    rec, dt = check_result(cid)
    print(f"{'PASS' if rec['passed'] else 'FAIL'}  {cid}: measured "
          f"{rec['measured']:.3e} (<= {rec['tolerance']:.1e}), {dt:.2f}s; "
          f"{rec['detail']}")
    assert rec["passed"]


# ---------------------------------------------------------------------------


def test_criterion_1_log_potential_at_i(check_result):
    _, dt = check_result("b_at_i")
    assert report(1, dt < 1.0, f"b(i) evaluated in {dt:.2f}s (<1s)")


def test_criterion_2_remainder_values_and_norms():
    t0 = time.perf_counter()
    spec = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11, max_subdivisions=8000)
    l1 = integrate(lambda x: remainder(x), (0.0, math.inf), spec)
    e1 = abs(l1 - (math.cos(PI / 8.0) - SQ2 / 2.0))
    l2 = integrate(lambda x: remainder(x) ** 2, (0.0, math.inf), spec)
    dt = time.perf_counter() - t0
    ok = e1 <= 1e-9 and 0.216 < l1 < 0.217 and 0.012 < l2 < 0.037 and dt < 5.0
    assert report(2, ok, f"int r = {l1:.9f} (err {e1:.1e}), "
                         f"int r^2 = {l2:.4f}, {dt:.2f}s (<5s)")


def test_criterion_4_heat_kernel_cross_method():
    t0 = time.perf_counter()
    worst = max(spectral_rel_error(t, x, y) for t in (0.5, 1.0)
                for x in (0.5, 1.0, 2.0) for y in (0.5, 1.0, 2.0))
    dt = time.perf_counter() - t0
    tol = CHECKS["spectral_vs_closed"].tolerance
    ok = worst <= tol and dt < 120.0
    assert report(4, ok, f"closed vs spectral kernel rel err {worst:.2e} "
                         f"(<={tol:g}) on 3x3x2 grid, {dt:.1f}s (<120s)")


def test_criterion_6_eigenfunction_property():
    # int p_{0.5}(0.7, y) psi_1(y) dy = e^{-0.5} psi_1(0.7), truncated at
    # Y = 500 where the alternating tail is below 1e-5
    lam, t, x, Y = 1.0, 0.5, 0.7, 500.0
    inner = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-11)
    spec = QuadratureSpec(abs_tol=1e-8, rel_tol=1e-8, max_subdivisions=8000)
    val = integrate(
        lambda ys: heat_kernel(t, x, np.atleast_1d(ys), inner) * psi(lam, ys),
        (0.0, Y), spec, points=tuple(np.arange(1, 80) * 2 * PI))
    ref = math.exp(-lam * t) * psi(lam, x)
    err = abs(val - ref)
    ok = err <= 1e-4
    assert report(6, ok, f"semigroup eigenrelation err {err:.2e} (<=1e-4) "
                         f"at (lam,t,x)=(1,0.5,0.7)")


def test_criterion_7_plancherel_and_inversion():
    # the Plancherel ratio of this transform is the registry's "plancherel";
    # transformed back onto 41 nodes of [1, 2] it returns (pi/2) f
    _, pif = bump_transform()
    mu = np.linspace(1.0, 2.0, 41)
    pi2 = pi_transform(pif, mu)
    peak = PI / 2.0 * math.exp(-1.0)
    inv_err = np.abs(pi2.values - PI / 2.0 * bump(mu)).max() / peak
    ok = inv_err <= 0.01
    assert report(7, ok, f"double-transform err {inv_err:.3%} of peak (<=1%)")


@pytest.fixture(scope="module")
def brackets_by_basis():
    return {N: bracket(10, N) for N in (25, 50, 100, 150)}


def test_criterion_8_brackets(brackets_by_basis, check_result):
    # containment at N = 150 is the registry's
    # "brackets_contain_reference_n150"; its run is the cold N = 150 timing
    _, dt150 = check_result("brackets_contain_reference_n150")

    # lower bounds non-decreasing, upper bounds non-increasing in N
    nested = True
    seq = [brackets_by_basis[N] for N in (25, 50, 100, 150)]
    for prev, cur in zip(seq[:-1], seq[1:]):
        for bp, bc in zip(prev, cur):
            if bc.lower < bp.lower - 1e-13 or bc.upper > bp.upper + 1e-13:
                nested = False

    # convergence study for the N=300 width target (reported, not assumed)
    t1 = time.perf_counter()
    brs300 = bracket(4, 300)
    dt300 = time.perf_counter() - t1
    print("\n  bracket-width convergence study (n = 1..4):")
    for N in (25, 50, 100, 150):
        ws = [brackets_by_basis[N][n].width for n in range(4)]
        print(f"    N={N:>3}: " + "  ".join(f"{w:.3e}" for w in ws))
    w300 = [b.width for b in brs300]
    print(f"    N=300: " + "  ".join(f"{w:.3e}" for w in w300)
          + f"   ({dt300:.1f}s, float64 Gram-form assembly)")
    rate = math.log2(brackets_by_basis[150][0].width / w300[0]) / math.log2(300 / 150)
    print(f"    observed width decay for n=1: ~N^-{rate:.1f}")
    width_ok = all(w <= 1e-6 for w in w300)

    ok = nested and width_ok and dt150 < 600.0
    assert report(8, ok,
                  f"nested/monotone across N in (25,50,100,150): {nested}; "
                  f"N=300 widths (n<=4) max {max(w300):.2e} (<=1e-6); "
                  f"N=150 cold runtime {dt150:.1f}s (<600s)")


def test_criterion_9_localization(brackets_by_basis):
    brs = brackets_by_basis[150]
    asym = all(abs(b.midpoint - mu_asymptotic(b.n)) <= 1.0 / b.n for b in brs)
    window = all(abs(b.midpoint - mu_asymptotic(b.n)) <= PI / 10.0
                 for b in brs if b.n >= 4)
    worst = max(abs(b.midpoint - mu_asymptotic(b.n)) * b.n for b in brs)
    ok = asym and window
    assert report(9, ok, f"midpoint localization: n|lam_n - mu_n| max "
                         f"{worst:.3f} (<=1), pi/10 window for n>=4: {window}")


def test_criterion_10_generator_residual():
    t0 = time.perf_counter()
    ok = True
    details = []
    for n in (4, 6, 8):
        mu = mu_asymptotic(n)
        res = residual_norm(n, nodes_per_piece=32)
        bound = residual_bound(n)
        n2 = tilde_phi_norm2(n)
        in_window = 1.0 - 0.52 / mu <= n2 <= 1.0 + 1.37 / mu
        ok = ok and res <= bound + 1e-4 and in_window
        details.append(f"n={n}: {res:.4f}<={bound:.4f}, |phi|^2={n2:.4f}")
    dt = time.perf_counter() - t0
    assert report(10, ok, "residual bounds " + "; ".join(details)
                  + f"  [{dt:.0f}s]")


def test_criterion_11_eigenfunction_estimates():
    N = 150
    xs = np.linspace(-1.0, 1.0, 2001)
    parity_ok = sup_ok = True
    for n in range(1, 9):
        gf = rr_eigenfunction(n, N)
        sym = float(np.abs(gf.values - gf.values[::-1]).max())
        anti = float(np.abs(gf.values + gf.values[::-1]).max())
        want_sym = n % 2 == 1
        if (sym > 1e-10) if want_sym else (anti > 1e-10):
            parity_ok = False
        if np.abs(gf.values).max() > 3.0:
            sup_ok = False
    close_ok = True
    details = []
    for n in (5, 7):
        gf = rr_eigenfunction(n, N)
        tp = tilde_phi(n, xs)
        w = gf.weights
        c = math.sqrt(float((tp * tp * w).sum()))
        ip = float((tp * gf.values * w).sum())
        dist = math.sqrt(max(c * c + c * c - 2 * c * ip, 0.0))
        bound = 20.0 / (3.0 * PI) * residual_bound(n)
        close_ok = close_ok and dist <= bound
        details.append(f"n={n}: dist {dist:.4f} <= {bound:.4f}")
    ok = parity_ok and sup_ok and close_ok
    assert report(11, ok, f"parity n=1..8: {parity_ok}; sup<=3 on 2001-grid: "
                          f"{sup_ok}; closeness " + ", ".join(details))


def test_criterion_12_monte_carlo(check_result):
    # the refinement study itself is the registry's "mc_refinement"
    _, dt = check_result("mc_refinement")
    assert report(12, dt < 120.0, f"MC refinement study {dt:.0f}s (<120s)")
