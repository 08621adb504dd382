"""Heat kernel, exit law, survival: closed forms, cross-methods, mass checks."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchyspec import (QuadratureSpec, exit_density, exit_law, exit_mass,
                        f_exit, heat_kernel, heat_kernel_spectral, integrate,
                        survival)

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
    mass, tail = exit_mass(1.0, tol=1e-7)
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


def test_exit_law_table_consistency():
    law = exit_law(1.0, np.linspace(0.2, 3.0, 15))
    assert np.all(np.diff(law.survival) < 0)
    assert law.survival[0] <= 1.0
    assert law.survival[-1] >= 0.0
    # survival column is the complement of the accumulated density mass
    for k in (0, 7, 14):
        mass = integrate(lambda s: exit_density(1.0, s),
                         (1e-12, float(law.ts[k])), SPEC9)
        assert law.survival[k] == pytest.approx(1.0 - mass, abs=1e-8)


def test_heat_kernel_symmetry_and_bounds():
    v1 = heat_kernel(1.0, 0.3, 2.0)
    v2 = heat_kernel(1.0, 2.0, 0.3)
    assert v1 == pytest.approx(v2, abs=1e-13)
    assert 0.0 <= v1 <= cauchy_kernel(1.0, 1.7)


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
    hc = heat_kernel(1.0, 0.5, 0.5)
    hs = heat_kernel_spectral(1.0, 0.5, 0.5, tol=1e-8)
    assert hs == pytest.approx(hc, rel=1e-6)
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

