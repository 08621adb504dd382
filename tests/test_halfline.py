import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchyspec import (DomainError, GridFunction, McConfig, PoleError,
                        QuadratureSpec, assemble_intermediate,
                        b_complex, bracket, eta, estimate_survival,
                        exit_density, exit_law, f_exit,
                        generalized_sym_eig, green_moment, halfline,
                        heat_kernel, heat_kernel_spectral, heat_kernel_table,
                        integrate, laplace_psi, lower_bounds, pi_transform,
                        psi, q_cutoff, refinement_study, remainder,
                        residual_norm, rr_eigenfunction, solve_spd, survival,
                        sym_eig, tilde_phi, tilde_phi_norm2, ti2,
                        upper_bounds)
from cauchyspec.halfline import (_F_TABLE, _R_TABLE, _RULE_LO, _RULE_ROWS,
                                 _TABLE_BLOCK, PSI_SUP, _f_closed,
                                 _free_kernel, _gamma_p2, _head,
                                 _laplace_of_weight, _laplace_rule,
                                 _LogChebTable, _tail, remainder_weight)

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


def _seams(table, n):
    """Every panel edge of a table, the two range limits among them, and
    the n nearest floats on either side of each."""
    edges = table.lo * 10.0 ** (np.arange(table.panels + 1) / table.per_decade)
    return np.concatenate([_ulp_steps(e, n) for e in edges])


def test_remainder_table_matches_rule():
    xs = np.geomspace(_R_TABLE.lo, _R_TABLE.hi, 40001)
    assert _table_deviation(xs) <= TABLE_RTOL


def test_remainder_table_seams():
    assert _table_deviation(_seams(_R_TABLE, 4)) <= TABLE_RTOL


def test_remainder_table_on_transform_traffic():
    # every 50th pair lam x of the benchmark's Pi transforms: lam over
    # [a, a + 1] with 201 nodes for a = 1 and 1.05, x = j pi/24 below 120
    dx = math.pi / 24.0
    xs = np.concatenate([(np.linspace(a, a + 1.0, 201)[:, None]
                          * np.arange(dx, 120.0, dx)).ravel()[::50]
                         for a in (1.0, 1.05)])
    assert _table_deviation(xs) <= TABLE_RTOL


@pytest.mark.parametrize("xs", [np.geomspace(1e4, 1e6, 17),
                                np.geomspace(1e-14, 1e-12, 9)],
                         ids=["above", "below"])
def test_remainder_off_table_does_not_depend_on_the_batch(xs):
    # the Laplace rule sums each row of its block on its own, so a point
    # gives every bit alone that it gives in a batch
    alone = np.array([remainder(float(x)) for x in xs])
    assert np.array_equal(alone.view(np.uint64), remainder(xs).view(np.uint64))


def test_remainder_monotone_across_table_limits():
    # outside the table r comes from the Laplace rule
    for lim in (_R_TABLE.lo, _R_TABLE.hi):
        xs = lim * (1.0 + 1e-6 * np.arange(-50, 51))
        assert np.all(np.diff(remainder(xs)) <= 0.0)


def test_remainder_table_top_edge_index():
    # the top of the range lies on the lower edge of a panel one past the
    # last: log(1e4) gives an index equal to the panel count exactly, so the
    # index is clipped to the last panel
    xs = np.array([9999.999999, np.nextafter(_R_TABLE.hi, 0.0), _R_TABLE.hi])
    table = _R_TABLE.read(xs)
    assert np.all(np.abs(table / _laplace_of_weight(xs) - 1.0) <= TABLE_RTOL)
    assert np.all(remainder(xs[:2]) == table[:2])


def _clenshaw_reference(table, x):
    """The table's Clenshaw sum on a 1-D x in one pass, each step a fresh
    array: the plain form of the blocked, in-place loop of ``read``."""
    cols = table.cols
    t = (np.log(x) - table.u0) / table.h
    k = np.minimum(t.astype(np.intp), table.panels - 1)
    s2 = 4.0 * (t - k) - 2.0
    b1, b2 = cols[-1][k], np.zeros_like(x)
    for col in cols[-2:0:-1]:
        b1, b2 = col[k] + s2 * b1 - b2, b1
    return (cols[0][k] + 0.5 * s2 * b1 - b2) / table.scale(x)


#: block sizes of the bit-identity tests: the shipped one, the 32768 of
#: earlier versions, and one that divides none of their inputs
BLOCKS = [_TABLE_BLOCK, 1 << 15, 1000]


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("table", [_R_TABLE, _F_TABLE], ids=["r", "f"])
def test_table_read_is_plain_clenshaw(monkeypatch, table, block):
    # the same arithmetic in the same order: equal bit for bit, for one
    # point, a 15-point batch, a 2-D batch and more than one block
    monkeypatch.setattr(halfline, "_TABLE_BLOCK", block)
    xs = np.geomspace(table.lo, table.hi, 70001)[1:-1]
    assert np.array_equal(table.read(xs), _clenshaw_reference(table, xs))
    for x in (xs[:1], xs[::4667]):
        assert np.array_equal(table.read(x), _clenshaw_reference(table, x))
    grid = xs[:2400].reshape(160, 15)
    ref = _clenshaw_reference(table, grid.ravel()).reshape(grid.shape)
    assert np.array_equal(table.read(grid), ref)


def test_table_is_built_only_for_points_inside():
    # points outside (lo, hi) go to fn alone; the table samples fn (5
    # Chebyshev points of its one panel) at the first point inside
    seen = []

    def fn(x):
        seen.append(x.tolist())
        return np.exp(-x)

    table = _LogChebTable(fn, np.ones_like, 1.0, 10.0, 1, 4)
    xs = np.array([0.0, 10.0, 20.0])
    assert np.array_equal(table(xs), np.exp(-xs))
    assert seen == [xs.tolist()]
    assert "cols" not in vars(table)
    table(np.array([0.5, 2.0]))
    assert [len(x) for x in seen] == [3, 5, 1]


@pytest.mark.parametrize("table", [_R_TABLE, _F_TABLE], ids=["r", "f"])
def test_shipped_table_is_its_build(table):
    # the coefficient file read at run time holds, bit for bit, what
    # sampling fn and transforming gives wherever the suite runs
    shipped, built = np.load(table.file), np.array(table.build())
    assert shipped.shape == (table.degree + 1, table.panels)
    assert np.array_equal(shipped.view(np.uint64), built.view(np.uint64)), (
        f"{table.file} is stale; regenerate it with "
        "np.save(table.file, np.array(table.build()))")


def test_table_reads_build_neither_the_rule_nor_f():
    # in a fresh process the Pi transform on the benchmark's grid, the psi
    # command and f_exit read both tables from their files: the Laplace rule
    # is never built and f's closed form never called
    script = """
import contextlib, io, math, sys
import numpy as np
from cauchyspec import GridFunction, f_exit, halfline, pi_transform
from cauchyspec.checks import bump
from cauchyspec.cli import main
called = set()
sys.setprofile(lambda frame, event, arg: event == "call"
               and called.add(frame.f_code))
lam, dx = np.linspace(1.0, 2.0, 201), math.pi / 24.0
pi_transform(GridFunction.from_samples(lam, bump(lam)),
             np.arange(dx, 120.0, dx))
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["psi", "--lam", "1.05", "--xmax", "20", "--points", "400"])
f_exit(np.geomspace(1e-6, 1e6, 100))
sys.setprofile(None)
print(code, halfline._laplace_rule.cache_info().currsize,
      halfline._f_closed.__code__ in called,
      all("cols" in vars(t) for t in (halfline._R_TABLE, halfline._F_TABLE)))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == ["0", "0", "False", "True"]


def test_laplace_rule_skips_only_exponentials_that_underflow():
    # the columns of a block past the underflow threshold are set to 0.0,
    # not computed: the matrix, and so each row's sum, is the plain form's
    t, wt, T, amp = _laplace_rule()
    x = np.concatenate((np.geomspace(1e-16, 1e16, 4001),
                        [_R_TABLE.lo, _R_TABLE.hi]))
    xr = np.minimum(x, 1e3 / _RULE_LO)
    rule = np.concatenate([(np.exp(-np.outer(xr[i:i + _RULE_ROWS], t)) * wt)
                           .sum(axis=1) for i in range(0, x.size, _RULE_ROWS)])
    ref = rule + amp * _tail(xr, T) + _head(x)
    assert np.array_equal(_laplace_of_weight(x).view(np.uint64),
                          ref.view(np.uint64))


def test_head_gamma_p2_matches_mpmath():
    # P(2, y) = 1 - e^{-y}(1 + y): series below y = 1, closed form above;
    # scipy's gammainc(2, y) was off by 1.4e-14 at y = 2.8e-29
    mp = pytest.importorskip("mpmath")
    y = np.geomspace(1e-30, 60.0, 3000)
    with mp.workdps(30):
        ref = np.array([float(mp.gammainc(2, 0, v, regularized=True))
                        for v in y])
    assert np.abs(_gamma_p2(y) / ref - 1.0).max() <= 4e-16


def test_tail_is_the_erfc_formula_bit_for_bit():
    # the tail is 0.0 past x T = _EXP_ZERO without calling erfc, which is
    # the value the formula rounds to there: x T over [1, 1e4] and both
    # limits of the r table
    from scipy.special import erfc
    T = _laplace_rule()[2]
    x = np.concatenate((np.geomspace(1.0, 1e4, 4001) / T,
                        [_R_TABLE.lo, _R_TABLE.hi]))
    rT = math.sqrt(T)
    ref = (2.0 * np.exp(-x * T) / rT
           - 2.0 * np.sqrt(math.pi * x) * erfc(np.sqrt(x) * rT))
    assert np.array_equal(_tail(x, T).view(np.uint64), ref.view(np.uint64))


#: largest relative deviation of the f table from the closed form
F_TABLE_RTOL = 1e-14


def _f_table_deviation(s):
    return np.abs(_F_TABLE.read(s) / _f_closed(s) - 1.0).max()


def test_f_table_matches_closed_form():
    ss = np.geomspace(_F_TABLE.lo, _F_TABLE.hi, 200001)
    assert _f_table_deviation(ss) <= F_TABLE_RTOL
    assert np.all(f_exit(ss[1:-1]) == _F_TABLE.read(ss[1:-1]))


def test_f_table_seams_and_limits():
    # both range limits, every panel edge and the floats next to each; the
    # float below the top limit is read from the table, in its last panel
    ss = _seams(_F_TABLE, 4)
    assert _f_table_deviation(ss) <= F_TABLE_RTOL
    top = np.array([np.nextafter(_F_TABLE.hi, 0.0)])
    assert f_exit(top) == _F_TABLE.read(top)


def test_f_outside_table_is_closed_form():
    ss = np.array([0.0, 1e-300, 1e-13, _F_TABLE.lo, _F_TABLE.hi, 1e13,
                   1e160, 1e300])
    assert np.array_equal(f_exit(ss).view(np.uint64),
                          _f_closed(ss).view(np.uint64))


def test_remainder_two_term_expansion_at_large_arguments():
    # w(t) = c t (1 + (t log t - t)/pi + ...) for small t gives
    # r(x) x^2/c = 1 - (2/pi)(ln x + 1 - digamma(3))/x + ..., with
    # digamma(3) = 3/2 - Euler's gamma.  The mass of w below the rule's
    # first node, 1e-13, used to be missing from x ~ 1e8 on
    c = SQ2 / (2.0 * math.pi)
    digamma3 = 1.5 - 0.5772156649015329
    xs = np.geomspace(1e6, 1e150, 200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lead = remainder(xs) * xs * xs / c
        huge = remainder(1e300)          # the true value underflows
    expect = 1.0 - (2.0 / math.pi) * (np.log(xs) + 1.0 - digamma3) / xs
    assert np.abs(lead - expect).max() <= 1e-10
    assert huge == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_remainder_rejects_non_finite(bad):
    with pytest.raises(DomainError):
        remainder(bad)
    with pytest.raises(DomainError):
        remainder(np.array([1.0, bad, 2.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_psi_rejects_non_finite(bad):
    with pytest.raises(DomainError):
        psi(1.0, bad)
    with pytest.raises(DomainError):
        psi(1.0, np.array([0.5, bad]))
    with pytest.raises(DomainError):
        psi(bad, 1.0)


NAN, INF = math.nan, math.inf
ONES = GridFunction.from_samples(np.linspace(0.1, 1.0, 10), np.ones(10))

#: calls that used to return 0, 1, NaN or an untyped error
INVALID_CALLS = {
    "f_exit(nan)": (f_exit, NAN),
    "f_exit(inf)": (f_exit, INF),
    "f_exit(-1)": (f_exit, -1.0),
    "f_exit(-inf)": (f_exit, -INF),
    "f_exit([1,nan])": (f_exit, [1.0, NAN]),
    "eta(nan)": (eta, NAN),
    "b_complex(nan)": (b_complex, NAN),
    "b_complex(inf)": (b_complex, INF),
    "ti2(nan)": (ti2, NAN),
    "ti2(inf)": (ti2, INF),
    "exit_density(nan,1)": (exit_density, NAN, 1.0),
    "exit_density(1,[1,nan])": (exit_density, 1.0, [1.0, NAN]),
    "exit_density(1,-1)": (exit_density, 1.0, -1.0),
    "survival(nan,1)": (survival, NAN, 1.0),
    "survival(1,inf)": (survival, 1.0, INF),
    "exit_law(1,[1,inf])": (exit_law, 1.0, [1.0, INF]),
    "heat_kernel(1,nan,1)": (heat_kernel, 1.0, NAN, 1.0),
    "heat_kernel(1,inf,1)": (heat_kernel, 1.0, INF, 1.0),
    "heat_kernel_spectral(1,nan,1)": (heat_kernel_spectral, 1.0, NAN, 1.0),
    "laplace_psi(nan,1)": (laplace_psi, NAN, 1.0),
    "laplace_psi(1,nan)": (laplace_psi, 1.0, complex(NAN, NAN)),
    "pi_transform(f,[1,inf])": (pi_transform, ONES, [1.0, INF]),
    "pi_transform(f,[nan])": (pi_transform, ONES, [NAN]),
    "pi_transform(f,2)": (pi_transform, ONES, 2.0),
    "pi_transform(f,[])": (pi_transform, ONES, []),
    "pi_transform(f,[2,1])": (pi_transform, ONES, [2.0, 1.0]),
    "pi_transform(f,[1,1])": (pi_transform, ONES, [1.0, 1.0]),
    "pi_transform(f,[[1,2]])": (pi_transform, ONES, [[1.0, 2.0]]),
    "pi_transform(node -0.5,[1,2])": (pi_transform, GridFunction.from_samples(
        np.linspace(-0.5, 0.4, 10), np.ones(10)), [1.0, 2.0]),
    "q_cutoff(nan)": (q_cutoff, NAN),
    "q_cutoff(inf)": (q_cutoff, INF),
    "tilde_phi(1,nan)": (tilde_phi, 1, NAN),
    "tilde_phi(1.5,0.3)": (tilde_phi, 1.5, 0.3),
    "tilde_phi(True,0.3)": (tilde_phi, True, 0.3),
    "tilde_phi_norm2(2.5)": (tilde_phi_norm2, 2.5),
    "tilde_phi_norm2(0)": (tilde_phi_norm2, 0),
    "tilde_phi_norm2(True)": (tilde_phi_norm2, True),
    "residual_norm(2.5)": (residual_norm, 2.5),
    "estimate_survival(nan,1)": (estimate_survival, NAN, 1.0, McConfig()),
    "refinement_study(nan,1)": (refinement_study, NAN, 1.0, McConfig()),
    "refinement_study(-1,1)": (refinement_study, -1.0, 1.0, McConfig()),
    "residual_norm(1,True)": (residual_norm, 1, True),
    "residual_norm(1,2.5)": (residual_norm, 1, 2.5),
    "residual_norm(1,0)": (residual_norm, 1, 0),
    "upper_bounds(True)": (upper_bounds, True),
    "upper_bounds(10.5)": (upper_bounds, 10.5),
    "upper_bounds(5,-1)": (upper_bounds, 5, -1),
    "lower_bounds(3,True)": (lower_bounds, 3, True),
    "lower_bounds(5,-1)": (lower_bounds, 5, -1),
    "lower_bounds(5,-3)": (lower_bounds, 5, -3),
    "bracket(0,5)": (bracket, 0, 5),
    "bracket(-1,5)": (bracket, -1, 5),
    "bracket(True,10)": (bracket, True, 10),
    "bracket(1.5,10)": (bracket, 1.5, 10),
    "assemble_intermediate(2.0)": (assemble_intermediate, 2.0),
    "sym_eig(0x0)": (sym_eig, np.zeros((0, 0))),
    "solve_spd(0x0)": (solve_spd, np.zeros((0, 0)), np.zeros(0)),
    "generalized_sym_eig(0x0)": (generalized_sym_eig, np.zeros((0, 0)), []),
    "rr_eigenfunction(1.0,10)": (rr_eigenfunction, 1.0, 10),
    "heat_kernel_spectral(1,1,1,tol=0)": (heat_kernel_spectral, 1.0, 1.0,
                                          1.0, 0.0),
    "heat_kernel_spectral(1,1,1,tol=inf)": (heat_kernel_spectral, 1.0, 1.0,
                                            1.0, INF),
    "heat_kernel_spectral(1e-300,1,1)": (heat_kernel_spectral, 1e-300, 1.0,
                                         1.0),
    "green_moment(1.5,0.5)": (green_moment, 1.5, 0.5),
    "green_moment(True,1)": (green_moment, True, 1),
    "green_moment(0,False)": (green_moment, 0, False),
    "exit_law(1,5)": (exit_law, 1.0, 5.0),
    "exit_law(1,[])": (exit_law, 1.0, []),
    "exit_law(1,[[1,2]])": (exit_law, 1.0, [[1.0, 2.0]]),
    "heat_kernel_table(1,0.5,[1])": (heat_kernel_table, 1.0, 0.5, [1.0]),
    "heat_kernel_table(1,[],[1])": (heat_kernel_table, 1.0, [], [1.0]),
    "heat_kernel_table(1,[0.5,nan],[1])": (heat_kernel_table, 1.0,
                                           [0.5, NAN], [1.0]),
    "heat_kernel_table(1,[0.5],[1,0])": (heat_kernel_table, 1.0, [0.5],
                                         [1.0, 0.0]),
    "heat_kernel_table(inf,[0.5],[1])": (heat_kernel_table, INF, [0.5],
                                         [1.0]),
    "heat_kernel(1,1,[1,nan])": (heat_kernel, 1.0, 1.0, [1.0, NAN]),
    "heat_kernel(1,1,[[1,2]])": (heat_kernel, 1.0, 1.0, [[1.0, 2.0]]),
    "GridFunction(node nan)": (GridFunction.from_samples, [0.0, NAN, 2.0],
                               [1.0, 1.0, 1.0]),
    "GridFunction(node inf)": (GridFunction.from_samples, [0.0, 1.0, INF],
                               [1.0, 1.0, 1.0]),
    "GridFunction(value nan)": (GridFunction.from_samples, [0.0, 1.0, 2.0],
                                [1.0, NAN, 1.0]),
    "GridFunction(value -inf)": (GridFunction.from_samples, [0.0, 1.0, 2.0],
                                 [1.0, -INF, 1.0]),
    "GridFunction(weight nan)": (GridFunction, [0.0, 1.0], [1.0, 1.0],
                                 [0.5, NAN]),
    "QuadratureSpec(max_subdivisions=2.5)": (QuadratureSpec, 1e-12, 1e-12,
                                             2.5),
    "QuadratureSpec(max_subdivisions=True)": (QuadratureSpec, 1e-12, 1e-12,
                                              True),
    "QuadratureSpec(abs_tol=inf)": (QuadratureSpec, INF),
}


@pytest.mark.parametrize("call", INVALID_CALLS.values(), ids=INVALID_CALLS)
def test_invalid_input_raises_domain_error(call):
    fn, *args = call
    with pytest.raises(DomainError):
        fn(*args)


@pytest.mark.parametrize("name", [k for k in INVALID_CALLS
                                  if k.startswith("heat_kernel")])
def test_heat_kernel_checks_every_point_before_integrating(name, monkeypatch):
    # a bad point anywhere in the batch is caught before the first integrand
    # evaluation, not when its own cell comes up
    def no_integrand(s):
        raise AssertionError("integrand evaluated before the input check")

    monkeypatch.setattr("cauchyspec.halfline._f", no_integrand)
    fn, *args = INVALID_CALLS[name]
    with pytest.raises(DomainError):
        fn(*args)


def test_survival_far_horizon_converges():
    # f(s/x)/s used to overflow to NaN far out, through eta, and the engine
    # raised NonConvergence on the NaN estimate; far starts and far horizons
    # now integrate with no numpy warning, to the 1e-12 tolerance
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert 0.0 <= survival(1.0, 1e300) <= 1e-12
        assert 0.0 <= survival(1e-300, 1.0) <= 1e-12
        dens, surv = exit_law(1e-300, [1.0, 2.0])
    assert np.all(np.isfinite(dens)) and np.all(np.abs(surv) <= 1e-10)
    assert np.all((0.0 <= surv) & (surv <= 1.0))


def test_survival_across_wide_time_steps():
    # the mass of (t_i, t_i+1) sits near t_i, where the nodes of one wide
    # panel see only rounded-off zeros, so survival needs its decades there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, surv = exit_law(1.0, [1.0, 5e99, 1e100])
        _, tiny = exit_law(1e-300, [1e-300, 5e7, 1e8])
    assert surv[0] == pytest.approx(survival(1.0, 1.0), abs=1e-10)
    assert np.all(surv[1:] <= 1e-10) and np.all(tiny[1:] <= 1e-10)


def test_free_kernel_formula_kept_in_range():
    # where t^2 and d^2 stay normal the closed form is the plain formula
    # bit for bit (perfbench's heat.below_free_kernel compares with it at
    # tolerance 0); the rescaled branch serves only underflow and overflow
    d = np.concatenate((np.linspace(-50.0, 50.0, 201), [1e-100, 1e100]))
    for t in (1e-3, 0.7, 1.0, 250.0):
        assert np.array_equal(_free_kernel(t, d),
                              t / (math.pi * (t * t + d ** 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        edge = _free_kernel(1e-300, np.array([0.0, 1e-300, 1.0, 1e300]))
    assert edge[0] == 1.0 / (math.pi * 1e-300)
    assert edge[1] == pytest.approx(0.5 / (math.pi * 1e-300), rel=1e-15)
    assert edge[2] == pytest.approx(1e-300 / math.pi, rel=1e-15)
    assert edge[3] == 0.0


def test_exit_kernel_finite_at_large_arguments():
    # a*a overflowed in log1p beyond |t| ~ 1.3e154: eta was +inf, so f and
    # the exit density were NaN.  Beyond 1e150, eta(t) is log(t)/2 plus
    # O(log(t)/t) and f(s) is e^{eta(s)}/(pi s) = 1/(pi sqrt(s))
    big = np.array([1e160, 1e200, 1e300, 1.7e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.allclose(eta(big), 0.5 * np.log(big), rtol=1e-15, atol=0)
        assert np.allclose(eta(-big), 0.5 * np.log(big), rtol=1e-15, atol=0)
        assert np.allclose(f_exit(big), 1.0 / (math.pi * np.sqrt(big)),
                           rtol=1e-13, atol=0)
        assert exit_density(1e-300, 1.0) == pytest.approx(f_exit(1e300),
                                                          rel=1e-15)


def test_total_monotonicity_spot_checks():
    xs = np.logspace(-3, 3, 25)
    assert np.all(remainder(xs) >= 0)


def test_psi_vanishes_off_halfline():
    assert psi(1.0, 0.0) == 0.0
    assert psi(1.0, -2.0) == 0.0


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
    val, rem = psi(2.0, 1.3), remainder(2.0 * 1.3)
    assert val == pytest.approx(math.sin(2.0 * 1.3 + math.pi / 8) - rem)
    assert rem > 0


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
        expect = SQ2 / 2.0 * np.exp(eta(t)) / (1 + t * t)
        assert laplace_psi(1.0, complex(t)).real == pytest.approx(expect, rel=1e-13)


def test_laplace_scaling_consistency():
    lam, z = 2.5, complex(1.0, 0.7)
    a = laplace_psi(lam, z)
    b = laplace_psi(1.0, z / lam) / lam  # L psi_lam(z) = L psi_1(z/lam)/lam
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


@pytest.mark.parametrize("block", [_TABLE_BLOCK, 1 << 15, 4])
def test_heat_kernel_spectral_uses_psi_unchanged(monkeypatch, block):
    # the spectral kernel evaluates psi through psi(1, lam*x); this is the
    # formula it used to inline, and the values must agree bit for bit, in
    # blocks of any size (4 points divides none of the integrand's batches)
    monkeypatch.setattr(halfline, "_TABLE_BLOCK", block)

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


def test_heat_kernel_spectral_loose_tolerance_gives_positive_zero():
    # at tol = 2 the truncation point log(...)/t is negative: the whole
    # expansion is below tol/2, and the reversed integral gave -0.0
    val = heat_kernel_spectral(1.0, 1.0, 1.0, tol=2.0)
    assert val == 0.0 and math.copysign(1.0, val) == 1.0
