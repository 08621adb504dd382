"""Heat kernel, exit law, survival: closed forms, cross-methods, mass checks."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchyspec import (QuadratureSpec, exit_density, exit_law, f_exit,
                        heat_kernel, heat_kernel_spectral, heat_kernel_table,
                        integrate, survival)
from cauchyspec.specialfun import CATALAN

SPEC9 = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9, max_subdivisions=6000)


def cauchy_kernel(t, d):
    return t / (math.pi * (t * t + d * d))


def test_exit_density_values_and_scaling():
    assert exit_density(1.0, 1.0) == pytest.approx(f_exit(1.0), rel=1e-14)
    assert exit_density(2.0, 4.0) == pytest.approx(exit_density(1.0, 2.0) / 2.0,
                                                   rel=1e-14)
    ts = np.linspace(0.1, 5.0, 20)
    assert np.all(exit_density(0.7, ts) >= 0)


def test_exit_density_total_mass_certified():
    # the mass up to T is 1 - survival(1, T); the density's tail beyond T is
    # at most c/sqrt(T), and T puts that bound at 1e-8
    c_tail = 2.0 * math.exp(CATALAN / math.pi) / math.pi
    horizon = (c_tail / 1e-8) ** 2
    mass = 1.0 - survival(1.0, horizon)
    tail = c_tail / math.sqrt(horizon)
    assert tail < 1e-7
    assert mass + tail >= 1.0 - 1e-6
    assert mass <= 1.0 + 1e-6


def test_survival_basics():
    assert survival(1.0, 1e-9) == pytest.approx(1.0, abs=1e-9)
    s = survival(1.0, 1.0)
    assert 0.0 < s < 1.0
    # decreasing in t
    ts = [0.25, 0.5, 1.0, 2.0, 4.0]
    vals = [survival(1.0, t) for t in ts]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_survival_lower_bounds():
    for (x, t) in ((1.0, 1.0), (2.0, 0.5), (0.5, 3.0)):
        s = survival(x, t)
        assert s >= 2.0 / math.pi * math.atan(x / t) - 1e-10
        assert s >= 1.0 - min(1.0, t / x) - 1e-8
        assert s <= 1.0


def test_survival_is_density_complement():
    t = 1.0
    mass = integrate(lambda s: exit_density(1.0, s), (1e-12, t), SPEC9)
    assert survival(1.0, t) + mass == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("t", [1e12, 1e50])
def test_survival_far_horizon_within_tail_bound(t):
    # survival(1, t) <= tail of the exit density beyond t; with one panel
    # [1, t] the quadrature missed the mass near s = 1 and returned 0.67
    # at t = 1e50
    bound = 2.0 * math.exp(CATALAN / math.pi) / (math.pi * math.sqrt(t))
    assert 0.0 <= survival(1.0, t) <= bound + 1e-11


def test_exit_law_is_the_scalar_interval_sum():
    # the batched interval integrals accumulate exactly as one integrate
    # call per interval would
    ts = np.linspace(0.2, 3.0, 15)
    _, law_surv = exit_law(1.0, ts)
    spec = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10)
    dens = lambda s: exit_density(1.0, s)
    acc = integrate(dens, (0.0, float(ts[0])), spec, points=(1.0,))
    surv = [1.0 - acc]
    for lo, hi in zip(ts[:-1].tolist(), ts[1:].tolist()):
        acc += integrate(dens, (lo, hi), spec)
        surv.append(1.0 - acc)
    assert law_surv.tolist() == surv


def test_exit_law_table_consistency():
    ts = np.linspace(0.2, 3.0, 15)
    _, surv = exit_law(1.0, ts)
    assert np.all(np.diff(surv) < 0)
    assert surv[0] <= 1.0
    assert surv[-1] >= 0.0
    # survival column is the complement of the accumulated density mass
    for k in (0, 7, 14):
        mass = integrate(lambda s: exit_density(1.0, s),
                         (1e-12, float(ts[k])), SPEC9)
        assert surv[k] == pytest.approx(1.0 - mass, abs=1e-8)


def test_heat_kernel_symmetry_and_bounds():
    v1 = heat_kernel(1.0, 0.3, 2.0)
    v2 = heat_kernel(1.0, 2.0, 0.3)
    assert v1 == pytest.approx(v2, abs=1e-13)
    assert 0.0 <= v1 <= cauchy_kernel(1.0, 1.7)


def test_heat_kernel_table_matches_two_f_exit_integrand():
    # the integrand evaluates f once on both arguments; this is the form
    # that called f_exit on each, and every cell must agree bit for bit
    def two_calls(t, x, y):
        spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12)

        def integrand(s):
            a = s / x
            b = (t - s) / y
            return (f_exit(np.abs(a)) * f_exit(np.abs(b))
                    / (s * y + (t - s) * x))

        cauchy = t / (math.pi * (t * t + (x - y) ** 2))
        return cauchy - integrate(integrand, (0.0, t), spec)

    for t, xs, ys in ((1.0, [0.3, 0.9, 2.0], [0.3, 1.1, 2.0]),
                      (0.25, [0.05, 4.0], [0.7, 3.0, 9.0])):
        table = heat_kernel_table(t, xs, ys)
        expect = np.array([[two_calls(t, x, y) for y in ys] for x in xs])
        assert np.array_equal(table, expect)


def test_square_heat_kernel_table_mirrors_its_upper_triangle():
    xs = np.array([0.05, 0.3, 0.9, 1.1, 2.0, 4.0])
    table = heat_kernel_table(0.7, xs, xs)
    assert np.array_equal(table, table.T)
    for i, j in zip(*np.triu_indices(xs.size)):
        assert table[i, j] == heat_kernel(0.7, float(xs[i]), float(xs[j]))


@pytest.mark.parametrize("x", [1e-8, 1e-12])
def test_heat_kernel_precise_near_the_boundary(x):
    # the tolerance applies to the kernel, not to its correction integral
    # before the division by x y: at x = 1e-8 that left a relative error of
    # 5e-4, against a tight-tolerance run and against the boundary law
    # p_1(x, 1) = c sqrt(x) (1 + O(x)), c = 0.2416287441...
    val = heat_kernel(1.0, x, 1.0)
    tight = heat_kernel(1.0, x, 1.0, QuadratureSpec(abs_tol=1e-300,
                                                    rel_tol=1e-14))
    assert val == pytest.approx(tight, rel=1e-9)
    assert val / math.sqrt(x) == pytest.approx(0.2416287441, rel=1e-7)


def test_array_heat_kernel_matches_scalar_calls():
    ys = np.array([0.01, 0.3, 1.3, 1.3, 5.0, 40.0])
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-11)
    for kw in ({}, {"spec": spec}):
        vals = heat_kernel(0.8, 1.3, ys, **kw)
        assert vals.shape == ys.shape
        assert np.array_equal(vals, [heat_kernel(0.8, 1.3, float(y), **kw)
                                     for y in ys])
    assert type(heat_kernel(0.8, 1.3, 0.3)) is float
    assert heat_kernel(0.8, 1.3, np.array([])).shape == (0,)


def test_heat_kernel_scaling():
    t, x, y, b = 0.8, 0.5, 1.7, 3.0
    assert b * heat_kernel(b * t, b * x, b * y) == pytest.approx(
        heat_kernel(t, x, y), rel=1e-10)


@settings(max_examples=10, deadline=None)
@given(st.floats(0.2, 3.0), st.floats(0.2, 3.0), st.floats(0.2, 3.0),
       st.floats(0.5, 4.0))
def test_heat_kernel_scaling_property(t, x, y, b):
    assert b * heat_kernel(b * t, b * x, b * y) == pytest.approx(
        heat_kernel(t, x, y), rel=1e-9, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 10.0), st.floats(0.1, 10.0))
def test_exit_density_scaling_property(x, t):
    assert exit_density(x, t) == pytest.approx(exit_density(1.0, t / x) / x,
                                               rel=1e-12)


def test_free_kernel_gap_estimate():
    # (p_t(y-x) - p^D_t(x,y))/t <= (1/pi) min(1/t^2, 1/x^2, 1/y^2, t/(x^2 y), t/(x y^2))
    grid = [0.4, 0.8, 1.5, 2.5, 4.0]
    t = 0.9
    for x in grid:
        for y in grid:
            gap = (cauchy_kernel(t, y - x) - heat_kernel(t, x, y)) / t
            cap = min(1 / t**2, 1 / x**2, 1 / y**2, t / (x * x * y),
                      t / (x * y * y)) / math.pi
            assert -1e-12 <= gap <= cap + 1e-12


def test_heat_kernel_spectral_matches_closed_form():
    assert heat_kernel_spectral(1.0, 1.0, 1.0, tol=1e-7) <= 1.0 / math.pi + 1e-9
    assert heat_kernel_spectral(1.0, -1.0, 1.0) == 0.0


def test_semigroup_property_at_desk_scale():
    t1, t2, x, y = 0.6, 0.9, 0.8, 1.4
    inner = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-9)
    spec = QuadratureSpec(abs_tol=1e-7, rel_tol=1e-7, max_subdivisions=3000)
    conv = integrate(
        lambda zs: np.array([heat_kernel(t1, x, float(z), inner)
                             * heat_kernel(t2, float(z), y, inner)
                             for z in np.atleast_1d(zs)]),
        (0.0, math.inf), spec)
    assert conv == pytest.approx(heat_kernel(t1 + t2, x, y), abs=1e-4)

