import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchyspec import (DomainError, PoleError, QuadratureSpec, eta,
                        exit_density, exit_law, exit_mass, exp_eta, f_exit,
                        heat_kernel, heat_kernel_spectral, integrate,
                        laplace_psi, psi, psi_point, remainder,
                        remainder_deriv, survival, ti2)
from cauchyspec.halfline import (_TABLE_HI, _TABLE_LO, _TABLE_PANELS,
                                 _TABLE_PER_DECADE, PSI_SUP,
                                 _laplace_of_weight, _remainder_from_table,
                                 remainder_weight)

SQ2 = math.sqrt(2.0)


def test_remainder_origin_exact():
    assert remainder(0.0) == math.sin(math.pi / 8.0)


def test_remainder_weight_forms_agree():
    # two independent integrand forms of the same Laplace weight
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13)
    vals = [integrate(lambda t, f=f: remainder_weight(t, f) * np.exp(-t),
                      (0.0, math.inf), spec, points=(0.5, 1.0, 5.0))
            for f in ("eta", "ti2")]
    assert vals[0] == pytest.approx(vals[1], abs=1e-10)
    assert remainder(1.0) == pytest.approx(vals[0], abs=1e-11)


def test_remainder_tail_bound():
    for x in (1.0, 5.0):
        assert remainder(x) <= SQ2 / (2 * math.pi * x * x)


def test_remainder_is_below_origin_value():
    xs = np.logspace(-3, 3, 40)
    r = remainder(xs)
    assert np.all(r <= math.sin(math.pi / 8.0))
    assert np.all(r > 0)
    assert np.all(np.diff(r) < 0)


def test_remainder_rejects_negative():
    with pytest.raises(DomainError):
        remainder(-1.0)


#: largest relative deviation of the table from the rule it was built from
TABLE_RTOL = 4e-15


def _table_deviation(xs):
    xs = np.asarray(xs, dtype=float)
    return np.abs(remainder(xs) / _laplace_of_weight(xs) - 1.0).max()


def _ulp_steps(x, n):
    """x and its n nearest floats on either side."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(np.nextafter(below[-1], 0.0))
        above.append(np.nextafter(above[-1], np.inf))
    return np.array(below[::-1] + above[1:])


def test_remainder_table_matches_rule():
    xs = np.geomspace(_TABLE_LO, _TABLE_HI, 40001)
    assert _table_deviation(xs) <= TABLE_RTOL


def test_remainder_table_seams():
    # every panel edge, the two range limits among them
    edges = _TABLE_LO * 10.0 ** (np.arange(_TABLE_PANELS + 1) / _TABLE_PER_DECADE)
    xs = np.concatenate([_ulp_steps(e, 4) for e in edges])
    assert _table_deviation(xs) <= TABLE_RTOL


def test_remainder_monotone_across_table_limits():
    # outside the table r comes from the Laplace rule
    for lim in (_TABLE_LO, _TABLE_HI):
        xs = lim * (1.0 + 1e-6 * np.arange(-50, 51))
        assert np.all(np.diff(remainder(xs)) <= 0.0)


def test_remainder_table_top_edge_index():
    # the top of the range lies on the edge of a 33rd panel that does not
    # exist: log(1e4) gives index 32 of 32 exactly, so the index is clipped
    xs = np.array([9999.999999, np.nextafter(_TABLE_HI, 0.0), _TABLE_HI])
    table = _remainder_from_table(xs)
    assert np.all(np.abs(table / _laplace_of_weight(xs) - 1.0) <= TABLE_RTOL)
    assert np.all(remainder(xs[:2]) == table[:2])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_remainder_rejects_non_finite(bad):
    with pytest.raises(DomainError):
        remainder(bad)
    with pytest.raises(DomainError):
        remainder(np.array([1.0, bad, 2.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_remainder_deriv_rejects_non_finite(bad):
    with pytest.raises(DomainError):
        remainder_deriv(bad)
    with pytest.raises(DomainError):
        remainder_deriv(np.array([1.0, bad]), 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_psi_rejects_non_finite(bad):
    with pytest.raises(DomainError):
        psi(1.0, bad)
    with pytest.raises(DomainError):
        psi(1.0, np.array([0.5, bad]))
    with pytest.raises(DomainError):
        psi(bad, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_psi_point_rejects_non_finite(bad):
    with pytest.raises(DomainError):
        psi_point(1.0, bad)
    with pytest.raises(DomainError):
        psi_point(bad, 1.0)


NAN, INF = math.nan, math.inf

#: calls that used to return 0, 1, NaN or an untyped error
INVALID_CALLS = {
    "f_exit(nan)": (f_exit, NAN),
    "f_exit(inf)": (f_exit, INF),
    "eta(nan)": (eta, NAN),
    "ti2(nan)": (ti2, NAN),
    "exit_density(nan,1)": (exit_density, NAN, 1.0),
    "exit_density(1,[1,nan])": (exit_density, 1.0, [1.0, NAN]),
    "survival(nan,1)": (survival, NAN, 1.0),
    "survival(1,inf)": (survival, 1.0, INF),
    "exit_law(1,[1,inf])": (exit_law, 1.0, [1.0, INF]),
    "exit_mass(nan)": (exit_mass, NAN),
    "heat_kernel(1,nan,1)": (heat_kernel, 1.0, NAN, 1.0),
    "heat_kernel(1,inf,1)": (heat_kernel, 1.0, INF, 1.0),
    "heat_kernel_spectral(1,nan,1)": (heat_kernel_spectral, 1.0, NAN, 1.0),
    "laplace_psi(nan,1)": (laplace_psi, NAN, 1.0),
    "laplace_psi(1,nan)": (laplace_psi, 1.0, complex(NAN, NAN)),
}


@pytest.mark.parametrize("call", INVALID_CALLS.values(), ids=INVALID_CALLS)
def test_invalid_input_raises_domain_error(call):
    fn, *args = call
    with pytest.raises(DomainError):
        fn(*args)


def test_total_monotonicity_spot_checks():
    xs = np.logspace(-3, 3, 25)
    assert np.all(remainder(xs) >= 0)
    assert np.all(-remainder_deriv(xs, 1) >= 0)
    assert np.all(remainder_deriv(xs, 2) >= 0)


def test_remainder_deriv_bounds():
    x = 0.5
    assert -remainder_deriv(x, 1) <= 1.0 / math.sqrt(2 * math.pi * x)
    for x in (0.7, 3.0):
        for order in (1, 2):
            bound = SQ2 / (2 * math.pi) * math.factorial(order + 1) / x ** (order + 2)
            assert abs(remainder_deriv(x, order)) <= bound


def test_remainder_deriv_vs_finite_difference():
    h = 1e-5
    fd = (remainder(1.0 + h) - remainder(1.0 - h)) / (2 * h)
    assert remainder_deriv(1.0, 1) == pytest.approx(fd, abs=1e-6)
    with pytest.raises(DomainError):
        remainder_deriv(0.0, 1)


def test_remainder_l1_and_l2_norms():
    spec = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11, max_subdivisions=8000)
    l1 = integrate(lambda x: remainder(x), (0.0, math.inf), spec)
    assert l1 == pytest.approx(math.cos(math.pi / 8.0) - SQ2 / 2.0, abs=1e-9)
    assert 0.216 < l1 < 0.217
    l2sq = integrate(lambda x: remainder(x) ** 2, (0.0, math.inf), spec)
    assert 0.012 < l2sq < 0.037


def test_psi_vanishes_off_halfline():
    assert psi(1.0, 0.0) == 0.0
    assert psi(1.0, -2.0) == 0.0
    assert psi_point(1.0, 0.0).psi == 0.0


def test_psi_scaling():
    lam, q, x = 3.0, 3.0, 0.7
    assert psi(lam, x) == pytest.approx(psi(1.0, lam * x), abs=1e-14)
    # psi_lambda(q x) = psi_{lambda q}(x) either way round
    assert psi(lam, q * x) == pytest.approx(psi(lam * q, x), abs=1e-14)


def test_psi_sup_bounds():
    xs = np.linspace(0.0, 60.0, 4001)
    vals = psi(1.0, xs)
    assert np.abs(vals).max() <= 1.14
    # |psi_1(x)| <= min(x + sqrt(2x/pi), 2)
    cap = np.minimum(xs + np.sqrt(2 * xs / math.pi), 2.0)
    assert np.all(np.abs(vals) <= cap + 1e-12)


def test_psi_point_decomposition():
    ev = psi_point(2.0, 1.3)
    assert ev.psi == pytest.approx(math.sin(2.0 * 1.3 + math.pi / 8) - ev.remainder)
    assert ev.remainder > 0


@settings(max_examples=30, deadline=None)
@given(st.floats(0.01, 20.0), st.floats(1e-10, 50.0))
def test_psi_sqrt_envelope_property(lam, x):
    # |psi(lam, x)| <= min(2 sqrt(lam x), 2); below lam*x ~ 1e-13 the bound
    # dips under the double-precision floor of sin(pi/8) - r(...)
    assert abs(psi(lam, x)) <= min(2.0 * math.sqrt(lam * x), 2.0) + 1e-12


def test_remainder_accurate_at_tiny_arguments():
    # the analytic tail keeps r continuous down to 0+ (no truncation floor)
    assert float(remainder(1e-300)) == pytest.approx(math.sin(math.pi / 8.0),
                                                     abs=1e-13)
    assert float(remainder(1e-300)) <= math.sin(math.pi / 8.0)
    xs = np.logspace(-300, 2, 800)
    assert np.all(np.diff(remainder(xs)) <= 1e-18)


def test_laplace_identity_against_quadrature():
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=8000)
    for t in (0.5, 1.0, 2.0):
        quad = integrate(lambda x: psi(1.0, x) * np.exp(-t * x),
                         (0.0, math.inf), spec, points=(1.0 / t,))
        closed = laplace_psi(1.0, complex(t))
        assert closed.imag == pytest.approx(0.0, abs=1e-12)
        assert quad == pytest.approx(closed.real, rel=1e-9)


def test_laplace_closed_form_on_reals():
    for t in (0.5, 2.0):
        expect = SQ2 / 2.0 * exp_eta(t) / (1 + t * t)
        assert laplace_psi(1.0, complex(t)).real == pytest.approx(expect, rel=1e-13)


def test_laplace_scaling_consistency():
    lam, z = 2.5, complex(1.0, 0.7)
    a = laplace_psi(lam, z)
    b = lam * laplace_psi(1.0, z / lam) / lam  # scale rule: L psi_lam(z) = L psi_1(z/lam)/lam
    b = laplace_psi(1.0, z / lam) / lam
    assert a == pytest.approx(b, rel=1e-10)


def test_laplace_pole_and_domain():
    with pytest.raises(PoleError):
        laplace_psi(1.0, 1e-20 + 1j)
    with pytest.raises(DomainError):
        laplace_psi(1.0, complex(-1.0))
    with pytest.raises(DomainError):
        laplace_psi(-1.0, complex(1.0))


def test_f_exit_values():
    assert f_exit(0.0) == 0.0
    assert f_exit(1.0) == pytest.approx(math.exp(eta(1.0)) / (2 * math.pi),
                                        rel=1e-12)
    s = 1e-6
    assert f_exit(s) / s == pytest.approx(1.0 / math.pi, rel=1e-4)
    ss = np.logspace(-3, 4, 50)
    vals = f_exit(ss)
    assert np.all(vals > 0)
    assert np.all(vals < 0.5)  # bounded


def test_heat_kernel_spectral_uses_psi_unchanged():
    # the spectral kernel evaluates psi through psi(1, lam*x); this is the
    # formula it used to inline, and the values must agree bit for bit
    def inline(t, x, y, tol=1e-9):
        lam_max = math.log(2.0 * PSI_SUP**2 / (math.pi * t * 0.5 * tol)) / t
        spec = QuadratureSpec(abs_tol=0.5 * tol, rel_tol=0.5 * tol,
                              max_subdivisions=int(200 + 40 * lam_max * (x + y)))

        def psi_vals(lam, pt):
            lx = lam * pt
            return np.sin(lx + math.pi / 8.0) - remainder(np.abs(lx))

        def integrand(lam):
            return (2.0 / math.pi) * psi_vals(lam, x) * psi_vals(lam, y) * np.exp(-lam * t)

        pts = [k / t for k in (0.5, 1, 2, 4, 8) if k / t < lam_max]
        return integrate(integrand, (0.0, lam_max), spec, points=pts)

    for t, x, y in ((1.0, 0.6, 1.4), (0.5, 2.0, 0.3), (2.0, 1.0, 1.0)):
        assert heat_kernel_spectral(t, x, y) == inline(t, x, y)
