import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchyspec import (DomainError, GridFunction, NonConvergence,
                        QuadratureSpec, integrate)
from cauchyspec.specialfun import CATALAN


def test_exponential_integral():
    assert integrate(lambda t: np.exp(-t), (0.0, math.inf)) == pytest.approx(1.0, abs=1e-12)


def test_log_kernel_gives_catalan():
    # int_0^1 log s / (1+s^2) ds = -Catalan
    val = integrate(lambda s: np.log(s) / (1 + s * s), (0.0, 1.0),
                    QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=8000))
    assert val == pytest.approx(-CATALAN, abs=1e-11)


def test_beta_integral():
    # int_0^inf t^{1/2} (1+t^2)^{-5/4} dt = Gamma(3/4) Gamma(1/2) / (2 Gamma(5/4))
    val = integrate(lambda t: np.sqrt(t) * (1 + t * t) ** -1.25, (0.0, math.inf))
    ref = math.gamma(0.75) * math.gamma(0.5) / (2 * math.gamma(1.25))
    assert val == pytest.approx(ref, rel=1e-11)


def test_nonconvergence_reports_estimate():
    spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=3)
    with pytest.raises(NonConvergence) as exc:
        integrate(lambda s: np.log(s) / (1 + s * s), (0.0, 1.0), spec)
    assert exc.value.estimate == pytest.approx(-CATALAN, abs=1e-2)
    assert exc.value.error_bound > 0


def test_halfline_pv_example():
    # int_{-inf}^0 ds/((t-s)(1+s^2)) at t = 1 is regular and equals
    # pi * eta'(1) = pi * (t/2 - log|t|/pi)/(1+t^2) |_{t=1} = pi/4
    val = integrate(lambda s: 1.0 / ((1.0 + s) * (1 + s * s)), (0.0, math.inf))
    assert val == pytest.approx(math.pi / 4.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(0.1, 3.0), st.floats(0.1, 3.0))
def test_additivity_of_panels(a, d1, d2):
    f = lambda x: np.exp(-x * x) * np.sin(3 * x) + x
    spec = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11)
    whole = integrate(f, (a, a + d1 + d2), spec)
    parts = integrate(f, (a, a + d1), spec) + integrate(f, (a + d1, a + d1 + d2), spec)
    assert abs(whole - parts) <= 2 * 1e-11 + 1e-13


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)


def test_spec_rejects_nan_tolerances():
    # a NaN tolerance would accept any estimate, e.g. 1.18 for
    # int_0^10 sin(50 x) dx = 0.0377
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=math.nan, rel_tol=math.nan)


def test_nan_integrand_raises_nonconvergence():
    # a NaN error estimate must not end the loop as if converged
    with pytest.raises(NonConvergence):
        integrate(lambda x: np.full_like(x, math.nan), (0.0, 1.0))


def test_nan_endpoint_raises_domain_error():
    with pytest.raises(DomainError):
        integrate(lambda x: x, (0.0, math.nan))


def test_grid_function_invariants():
    with pytest.raises(ValueError):
        GridFunction(np.array([0.0, 1.0, 1.0]), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        GridFunction(np.array([0.0, 1.0]), np.zeros(3), np.zeros(3))
    g = GridFunction.from_samples(np.linspace(0, 1, 101), np.ones(101))
    assert g.norm2() == pytest.approx(1.0, abs=1e-12)
    assert g.spacing() == pytest.approx(0.01)


def test_determinism():
    f = lambda x: np.sin(x) / (1 + x * x)
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
    vals = {integrate(f, (0.0, 50.0), spec) for _ in range(3)}
    assert len(vals) == 1
