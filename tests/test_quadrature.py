import cmath
import heapq
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cauchyspec import (DomainError, GridFunction, NonConvergence,
                        QuadratureSpec, integrate, integrate_many)
from cauchyspec.quadrature import _NODES, _WGFULL, _WK
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
@example(a=1.7488088691515964, d1=1.1636716821558073, d2=3.0)
def test_additivity_of_panels(a, d1, d2):
    # The integrals reach |I| = 32, so rel_tol * |I| must stay below
    # abs_tol for the bound below to follow from the spec.  With
    # rel_tol = 1e-11 the pinned example is accepted as one panel at
    # 5.8e-11 from the true 15.9456..., inside 1e-11 * |I| = 1.6e-10.
    f = lambda x: np.exp(-x * x) * np.sin(3 * x) + x
    spec = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-13)
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


def test_upper_limit_minus_inf_raises_domain_error():
    # e^{-t} over (0, -inf) diverges; it must not be read as (0, +inf)
    with pytest.raises(DomainError):
        integrate(lambda t: np.exp(-t), (0.0, -math.inf))


def test_lower_limit_minus_inf_raises_domain_error():
    with pytest.raises(DomainError):
        integrate(lambda t: np.exp(t), (-math.inf, 0.0))


def test_doubly_infinite_domain_raises_value_error():
    with pytest.raises(ValueError):
        integrate(lambda t: np.exp(-t * t), (-math.inf, math.inf))


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


# ---------------------------------------------------------------------------
# the batched engine against the one-integral-at-a-time engine it replaced;
# _panel, _adaptive and the body of _oracle are that engine, verbatim


def _panel(f, a: float, b: float):
    """Kronrod estimate and QUADPACK-style error for one panel."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    y = np.asarray(f(c + h * _NODES))
    ik = h * (y * _WK).sum()
    ig = h * (y * _WGFULL).sum()
    diff = abs(ik - ig)
    scale = h * (np.abs(y - ik / (b - a)) * _WK).sum()
    if scale > 0.0:
        err = float(scale) * min(1.0, (200.0 * diff / float(scale)) ** 1.5)
    else:
        err = diff
    return complex(ik) if np.iscomplexobj(y) else float(ik), float(err)


def _adaptive(f, breakpoints, spec: QuadratureSpec):
    heap = []
    total = 0.0
    toterr = 0.0
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        val, err = _panel(f, a, b)
        total += val
        toterr += err
        heapq.heappush(heap, (-err, a, b, val))
    splits = 0
    while True:
        if math.isnan(toterr) or cmath.isnan(total):
            raise NonConvergence(
                f"NaN estimate after {splits} subdivisions",
                estimate=total, error_bound=toterr)
        if toterr <= max(spec.abs_tol, spec.rel_tol * abs(total)):
            return total, toterr
        if splits >= spec.max_subdivisions:
            raise NonConvergence(
                f"tolerance not met after {splits} subdivisions "
                f"(estimate {total!r}, error bound {toterr:.3e})",
                estimate=total, error_bound=toterr)
        negerr, a, b, val = heapq.heappop(heap)
        m = 0.5 * (a + b)
        v1, e1 = _panel(f, a, m)
        v2, e2 = _panel(f, m, b)
        total += v1 + v2 - val
        toterr += e1 + e2 + negerr          # negerr removes the parent error
        heapq.heappush(heap, (-e1, a, m, v1))
        heapq.heappush(heap, (-e2, m, b, v2))
        splits += 1


def _oracle(f, domain, spec=None, points=()):
    spec = spec or QuadratureSpec()
    a, b = domain
    if math.isinf(b):
        shift = a

        def g(u):
            t = u / (1.0 - u)
            return f(shift + t) / (1.0 - u) ** 2

        brk = sorted({0.0, 1.0, *((p - shift) / (1.0 + (p - shift))
                                  for p in points if p > shift)})
        val, _ = _adaptive(g, brk, spec)
        return val
    if a == b:
        return 0.0
    if a > b:
        return -_oracle(f, (b, a), spec, points)
    brk = sorted({float(a), float(b), *(float(p) for p in points if a < p < b)})
    val, _ = _adaptive(f, brk, spec)
    return val


ORACLE_CASES = {
    "smooth": (lambda x: np.exp(-x * x) * np.sin(3 * x) + x, (-1.0, 2.5),
               QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12), ()),
    "kinks": (lambda x: np.abs(np.sin(5 * x)) * np.sqrt(np.abs(x - 0.3)),
              (0.0, 3.0), QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11),
              (0.3, 1.0, 7.0)),
    "log_endpoint": (lambda s: np.log(s) / (1 + s * s), (0.0, 1.0),
                     QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13,
                                    max_subdivisions=8000), ()),
    "half_line": (lambda t: np.sqrt(t) * (1 + t * t) ** -1.25,
                  (0.5, math.inf), QuadratureSpec(), (1.0, 30.0)),
    "complex": (lambda v: np.log((0.3 + 0.7j) + v) / (1.0 + v * v),
                (0.0, math.inf), QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13),
                (abs(0.3 + 0.7j),)),
    "reversed": (lambda x: np.cos(x) / (1 + x * x), (3.0, -1.0),
                 QuadratureSpec(), (0.5,)),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_integrate_bit_identical_to_scalar_engine(name):
    f, domain, spec, points = ORACLE_CASES[name]
    new = integrate(f, domain, spec, points)
    old = _oracle(f, domain, spec, points)
    assert type(new) is type(old)
    assert new == old


def test_integrate_many_bit_identical_to_scalar_engine():
    # mixed domains, each integral with its own integrand parameter
    domains = [(0.0, 1.0), (0.2, math.inf), (4.0, -2.0), (1.5, 1.5),
               (0.0, 30.0), (1.0, math.inf)]
    points = [(), (0.7,), (0.0, 1.0), (), (3.0, 10.0), ()]
    c = np.array([0.5, 1.3, 2.0, 1.0, 0.9, 4.0])

    def scalar(k):
        return lambda x: (np.sin(c[k] * x) * np.exp(-np.abs(x) / c[k])
                          + np.abs(x - 1.0) / (1.0 + x ** 4))

    def batched(x, rows):
        ck = c[rows, None]
        return (np.sin(ck * x) * np.exp(-np.abs(x) / ck)
                + np.abs(x - 1.0) / (1.0 + x ** 4))

    spec = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11)
    vals = integrate_many(batched, domains, spec, points)
    ref = [_oracle(scalar(k), d, spec, p)
           for k, (d, p) in enumerate(zip(domains, points))]
    assert vals.tolist() == ref


def test_integrate_many_nonconvergence_names_the_integral():
    # only integral 1 (log singularity) cannot meet the budget
    spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=3)

    def f(x, rows):
        return np.where(rows[:, None] == 1, np.log(x) / (1 + x * x), x * x)

    with pytest.raises(NonConvergence) as exc:
        integrate_many(f, [(0.0, 1.0)] * 3, spec)
    assert exc.value.index == 1
    assert exc.value.estimate == pytest.approx(-CATALAN, abs=1e-2)
    assert exc.value.error_bound > 0


def test_integrate_many_nan_in_one_integral_raises():
    def f(x, rows):
        return np.where(rows[:, None] == 2, math.nan, np.cos(x))

    with pytest.raises(NonConvergence) as exc:
        integrate_many(f, [(0.0, 1.0)] * 3)
    assert exc.value.index == 2


def test_integrate_many_needs_one_breakpoint_tuple_per_domain():
    with pytest.raises(ValueError):
        integrate_many(lambda x, rows: x, [(0.0, 1.0), (0.0, 2.0)],
                       points=[(0.5,)])


def test_inner_requires_the_same_nodes():
    xs = np.linspace(0.0, 1.0, 11)
    f = GridFunction.from_samples(xs, np.ones(11))
    assert f.inner(GridFunction.from_samples(xs.copy(), np.ones(11))) == 1.0
    moved = xs.copy()
    moved[5] *= 1.0 + 1e-9
    with pytest.raises(DomainError):
        f.inner(GridFunction.from_samples(moved, np.ones(11)))
