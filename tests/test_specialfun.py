import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

import cauchyspec.specialfun as specialfun
from cauchyspec import (CATALAN, DomainError, QuadratureSpec, b_complex,
                        eta, integrate, ti2)

SERIES_CATALAN = sum((-1) ** k / (2 * k + 1) ** 2 for k in range(200000))


def test_catalan_constant_vs_series():
    assert CATALAN == pytest.approx(SERIES_CATALAN, abs=3e-11)


def test_ti2_origin_and_catalan():
    assert ti2(0.0) == 0.0
    assert ti2(1.0) == pytest.approx(CATALAN, abs=1e-13)


def test_ti2_inversion_formula():
    # Ti2(t) - Ti2(1/t) = (pi/2) log t, checked by quadrature on both sides
    for t in (3.0, 10.0):
        lhs = ti2(t) - ti2(1.0 / t)
        assert lhs == pytest.approx(0.5 * math.pi * math.log(t), abs=1e-12)


def test_ti2_inversion_identity_on_geometric_grid():
    t = np.geomspace(1.0, 1e12, 4001)
    assert np.abs(ti2(t) - ti2(1.0 / t) - 0.5 * math.pi * np.log(t)).max() <= 1e-13


def test_ti2_taylor_form_at_small_arguments():
    # Ti2(t) = t - t^3/9 + t^5/25 - ..., the next term below 1e-28 relative
    t = np.geomspace(1e-12, 1e-4, 2001)
    taylor = t - t**3 / 9.0 + t**5 / 25.0
    assert np.abs(ti2(t) / taylor - 1.0).max() <= 1e-14


def test_ti2_seams_match_quadrature():
    spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14)
    for t in (0.4, 0.5, 0.7, 1.9, 2.0, 2.3):
        ref = integrate(lambda u: np.arctan(u) / u, (1e-300, t), spec)
        assert ti2(t) == pytest.approx(ref, abs=1e-12)
    for t in (1e-6, 1e-3, 50.0, 1e4):
        ref = integrate(lambda u: np.arctan(u) / u, (1e-300, t), spec,
                        points=(1.0,) if t > 1.0 else ())
        assert ti2(t) == pytest.approx(ref, rel=1e-14)


#: 600 decades-wide points and 201 around the reflection at t = 1
TI2_GRID = np.concatenate((np.geomspace(1e-300, 1e300, 600),
                           np.linspace(0.5, 2.0, 201)))


def test_ti2_matches_mpmath_to_rounding():
    # Ti2(t) = Im Li2(i t); the 20-node rule is at 4.4e-16 on this grid,
    # where a 19-node one reaches 6.7e-16
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        ref = np.array([float(mp.polylog(2, mp.mpc(0, t)).imag)
                        for t in TI2_GRID])
    assert np.abs(ti2(TI2_GRID) / ref - 1.0).max() <= 5e-16


def test_ti2_of_a_point_alone_is_its_value_in_a_batch():
    # each point is summed on its own over the nodes, with no matrix
    # product whose order could depend on the batch; the tiled batch of
    # 4806 points spans two blocks of _ti2
    batch = ti2(np.tile(TI2_GRID, 6))
    alone = np.tile([ti2(t) for t in TI2_GRID], 6)
    assert np.array_equal(alone.view(np.uint64), batch.view(np.uint64))


def test_ti2_is_its_argument_at_subnormal_scale():
    t = np.array([1e-160, 1e-305, 1e-310, 5e-324])
    assert np.array_equal(ti2(t), t)


def test_specialfun_binds_nothing_from_scipy():
    # Ti2, and eta with it, run on numpy alone
    from_scipy = [name for name, value in vars(specialfun).items()
                  if str(getattr(value, "__module__", "")).startswith("scipy")]
    assert from_scipy == []


def test_ti2_keeps_scalar_and_array_shapes():
    assert type(ti2(1.0)) is float
    assert ti2(np.array([0.5, 2.0])).shape == (2,)
    assert ti2(np.ones((2, 3))).shape == (2, 3)


def test_ti2_rejects_negative():
    with pytest.raises(DomainError):
        ti2(-0.5)


def test_eta_origin():
    assert eta(0.0) == 0.0


def test_eta_closed_value():
    assert eta(1.0) == pytest.approx(0.25 * math.log(2.0) + CATALAN / math.pi,
                                     abs=1e-13)


def test_eta_vs_direct_quadrature():
    spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=8000)
    for t in (0.1, 1.0, 10.0, 100.0):
        direct = 0.25 * math.log1p(t * t) - integrate(
            lambda s: np.log(np.abs(s)) / (1 + s * s), (0.0, t), spec) / math.pi
        assert eta(t) == pytest.approx(direct, abs=1e-11)


@pytest.mark.parametrize("t", [0.5, 1.0, 3.0])
def test_eta_reflection(t):
    assert eta(-t) + eta(t) == pytest.approx(0.5 * math.log1p(t * t), abs=1e-13)


@settings(max_examples=40, deadline=None)
@given(st.floats(-50.0, 50.0))
def test_eta_envelope(t):
    # |eta(t) - log(1+t^2)/4| <= Catalan/pi
    assert abs(eta(t) - 0.25 * math.log1p(t * t)) <= CATALAN / math.pi + 1e-10


def test_b_at_i():
    val = b_complex(1j)
    assert abs(val - complex(math.log(2.0) / 2.0, math.pi / 8.0)) < 1e-12


def test_b_real_positive_axis():
    val = b_complex(2.0)
    assert val.real == pytest.approx(eta(2.0), abs=1e-11)
    assert val.imag == pytest.approx(0.0, abs=1e-11)


def test_b_negative_axis_boundary_values():
    # continued-from-above limit: eta(-3) + i arctan(3)
    val = b_complex(-3.0)
    assert val.real == pytest.approx(eta(-3.0), abs=1e-10)
    assert val.imag == pytest.approx(math.atan(3.0), abs=1e-10)


def test_b_negative_axis_small_arguments():
    # these two returned nan+nanj when the real axis went through the
    # quadrature; reference: the real and imaginary parts as real integrals
    for t in (-0.1, -0.3):
        g = lambda v: math.log(abs(t + v)) / (1.0 + v * v)
        re = (scipy.integrate.quad(g, 0.0, -2.0 * t, points=[-t])[0]
              + scipy.integrate.quad(g, -2.0 * t, math.inf)[0]) / math.pi
        val = b_complex(t)
        assert val.real == pytest.approx(re, abs=1e-10)
        assert val.imag == pytest.approx(math.atan(-t), abs=1e-15)


@pytest.mark.parametrize("t", [-3.0, -0.5, -0.3, -0.1, 0.5, 2.0])
def test_b_real_axis_matches_quadrature_just_above(t):
    # the closed form on the axis against the quadrature at t + 1e-9 i
    assert abs(b_complex(complex(t, 1e-9)) - b_complex(t)) <= 1e-8


def test_b_rejects_lower_left_quadrant():
    with pytest.raises(DomainError):
        b_complex(-1.0 - 1.0j)


def test_b_real_part_envelope_on_grid():
    # Re b within Catalan/pi of log(1+|z|^2)/4 for |z| <= 100, Re z >= 0
    pts = [1.0, 10.0 + 3.0j, 0.5j, 60.0 + 60.0j, 100.0, 2.0 - 5.0j]
    for z in pts:
        val = b_complex(z).real
        mid = 0.25 * math.log1p(abs(z) ** 2)
        assert mid - CATALAN / math.pi - 1e-9 <= val <= mid + CATALAN / math.pi + 1e-9


def test_b_conjugate_symmetry():
    z = 1.5 + 0.8j
    assert b_complex(np.conj(z)) == pytest.approx(np.conj(b_complex(z)), abs=1e-11)
