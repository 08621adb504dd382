import math
import sys
import threading

import numpy as np
import pytest

from cauchyspec import (McConfig, estimate_survival, montecarlo,
                        refinement_study, sample_cauchy_increments, survival)
from cauchyspec.errors import _positive
from cauchyspec.montecarlo import _N_BATCHES, _survive_batches


def _survive_batches_reference(x: float, t: float, cfg: McConfig, strides=(1,)):
    """The step-by-step per-batch path loop, kept verbatim as an oracle for
    the counts of the block kernel."""
    _positive("x and t", x, t)
    nsteps = int(round(t / cfg.dt))
    if abs(nsteps * cfg.dt - t) > 1e-9 * t:
        raise ValueError("t must be a multiple of dt")
    strides = tuple(int(s) for s in strides)
    if any(nsteps % s for s in strides):
        raise ValueError("every stride must divide the step count")
    counts = np.zeros(len(strides), dtype=np.int64)
    used = 0
    root = np.random.SeedSequence(cfg.seed)
    children = root.spawn(_N_BATCHES)
    base = cfg.paths // _N_BATCHES
    for b, child in enumerate(children):
        npaths = base + (1 if b < cfg.paths % _N_BATCHES else 0)
        if npaths == 0:
            continue
        rng = np.random.default_rng(child)
        pos = np.full(npaths, float(x))
        alive = np.ones((len(strides), npaths), dtype=bool)
        for k in range(1, nsteps + 1):
            pos = pos + sample_cauchy_increments(cfg.dt, rng, npaths)
            neg = pos <= 0.0
            for i, s in enumerate(strides):
                if k % s == 0:
                    alive[i] &= ~neg
        counts += alive.sum(axis=1)
        used += npaths
    return counts, used


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(paths=0)
    with pytest.raises(ValueError):
        McConfig(dt=2.0, horizon=1.0)


@pytest.mark.parametrize("kwargs", [
    {"paths": 1e4}, {"paths": True}, {"paths": "100"}, {"seed": None},
    {"seed": -1}, {"seed": 1.0}, {"seed": False},
], ids=["paths-float", "paths-bool", "paths-str", "seed-none",
        "seed-negative", "seed-float", "seed-bool"])
def test_config_rejects_non_integer_paths_and_seed(kwargs):
    with pytest.raises(ValueError):
        McConfig(**kwargs)


def test_config_accepts_numpy_integers():
    cfg = McConfig(paths=np.int64(100), seed=np.uint32(7))
    assert cfg.paths == 100 and cfg.seed == 7


@pytest.mark.parametrize("call", [
    lambda: sample_cauchy_increments(math.nan, np.random.default_rng(1), 4),
    lambda: sample_cauchy_increments(math.inf, np.random.default_rng(1), 4),
    lambda: McConfig(dt=math.inf, horizon=math.inf),
], ids=["increments(nan)", "increments(inf)", "McConfig(dt=inf,horizon=inf)"])
def test_non_finite_parameters_rejected(call):
    with pytest.raises(ValueError):
        call()


def test_increment_median_and_quartiles():
    rng = np.random.default_rng(42)
    draws = sample_cauchy_increments(1.0, rng, 10**5)
    n = draws.size
    med = np.median(draws)
    iqr = np.subtract(*np.percentile(draws, [75, 25]))
    assert abs(med) <= 3 * iqr / math.sqrt(n)
    # P(|X| <= scale) = 1/2 for the standard Cauchy law
    p = np.mean(np.abs(draws) <= 1.0)
    se = math.sqrt(0.25 / n)
    assert abs(p - 0.5) <= 3 * se


def test_increment_scale_invariance():
    d1 = sample_cauchy_increments(1.0, np.random.default_rng(7), 1000)
    d2 = sample_cauchy_increments(2.5, np.random.default_rng(7), 1000)
    assert np.allclose(d2, 2.5 * d1)


def test_fixed_seed_reproducibility():
    cfg = McConfig(paths=2000, dt=0.01, horizon=0.5, seed=99)
    a = estimate_survival(1.0, 0.5, cfg)
    b = estimate_survival(1.0, 0.5, cfg)
    assert a == b


def test_survival_estimate_matches_closed_form():
    cfg = McConfig(paths=40_000, dt=1e-3, horizon=1.0, seed=11)
    est = estimate_survival(1.0, 1.0, cfg)
    closed = survival(1.0, 1.0)
    # upward-biased estimator: one-sided check plus a generous band
    assert est.value >= closed - 3 * est.std_error
    assert abs(est.value - closed) <= 0.01 + 5 * est.std_error


def test_scaling_of_the_process():
    cfg = McConfig(paths=30_000, dt=1e-3, horizon=2.0, seed=5)
    a = estimate_survival(2.0, 2.0, cfg)
    cfg2 = McConfig(paths=30_000, dt=5e-4, horizon=1.0, seed=6)
    b = estimate_survival(1.0, 1.0, cfg2)
    joint = math.hypot(a.std_error, b.std_error)
    assert abs(a.value - b.value) <= 3 * joint + 0.005


def test_estimates_monotone_in_time():
    cfg = McConfig(paths=20_000, dt=2e-3, horizon=1.0, seed=3)
    vals = [estimate_survival(1.0, t, cfg).value for t in (0.25, 0.5, 1.0)]
    # same seed => shared paths => exact monotonicity
    assert vals[0] >= vals[1] >= vals[2]


def test_short_horizon_goes_to_one():
    cfg = McConfig(paths=5000, dt=1e-3, horizon=1.0, seed=1)
    est = estimate_survival(50.0, 0.002, cfg)
    assert est.value >= 0.999


def test_refinement_study_monotone_and_toward_closed_form():
    cfg = McConfig(paths=50_000, dt=1e-3, horizon=1.0, seed=123)
    study = refinement_study(1.0, 1.0, cfg, factors=(4, 2, 1))
    assert [s for s, _ in study] == [4e-3, 2e-3, 1e-3]
    vals = [est.value for _, est in study]
    # shared paths at nested strides: finer monitoring can only kill more
    assert vals[0] >= vals[1] >= vals[2]
    closed = survival(1.0, 1.0)
    assert vals[-1] >= closed - 3 * study[-1][1].std_error
    # trend moves toward the closed form
    assert abs(vals[-1] - closed) <= abs(vals[0] - closed) + 1e-12


@pytest.mark.parametrize("paths, dt, strides, block", [
    (1003, 1e-2, (5, 1), None),
    (5, 1e-2, (1,), None),
    (700, 1e-2, (4, 2, 1), 100),
    (1003, 1e-2, (1,), 50),
    (700, 1e-2, (4, 2, 1), 300),
    (300, 1e-2, (4, 2, 1), 1),
], ids=["uneven-split", "empty-streams", "several-groups",
        "batch-above-group", "block-across-strides", "one-step-blocks"])
def test_grouped_paths_match_per_batch_loop(monkeypatch, paths, dt, strides,
                                            block):
    # each batch draws a block of steps at once, but moves its paths exactly
    # as the per-batch loop did, so the counts agree exactly, for any number
    # of worker threads (32 exceeds the non-empty batches); a block of 300
    # path-steps holds 6 or 7 steps here, which divides neither the 100
    # steps nor the strides
    if block is not None:
        monkeypatch.setattr(montecarlo, "_BLOCK", block)
    cfg = McConfig(paths=paths, dt=dt, horizon=1.0, seed=2024)
    ref_counts, ref_used = _survive_batches_reference(0.8, 1.0, cfg, strides)
    assert ref_used == paths
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)       # interleave the threads finely
    try:
        for workers in (1, 2, 3, 32):
            monkeypatch.setattr(montecarlo, "_available_cpus", lambda: workers)
            before = threading.active_count()
            counts = _survive_batches(0.8, 1.0, cfg, strides)
            assert threading.active_count() == before
            assert counts.tolist() == ref_counts.tolist(), workers
    finally:
        sys.setswitchinterval(switch)


@pytest.mark.parametrize("failing", [0, 3], ids=["first-batch", "later-batch"])
def test_failure_in_one_batch_reaches_caller_and_stops_the_others(
        monkeypatch, failing):
    # four workers, one step per block: the failing batch raises at its
    # first draw, while each batch running beside it, and each queued after
    # it, would draw 100k blocks if it did not stop
    class Stream:
        def __init__(self, rng, fail, stop):
            self.rng, self.fail, self.stop = rng, fail, stop
            self.draws = self.late = 0

        def random(self, out):
            if self.fail:
                raise RuntimeError("injected")
            self.draws += 1
            self.late += self.stop.is_set()
            self.rng.random(out=out)

    real = montecarlo._batch
    survivors = []

    def batch(rng, *args):
        # batch b's stream is the b-th child of the seed sequence; the stop
        # event is the last argument
        fail = rng.bit_generator.seed_seq.spawn_key == (failing,)
        stream = Stream(rng, fail, args[-1])
        if not fail:
            survivors.append(stream)
        return real(stream, *args)

    monkeypatch.setattr(montecarlo, "_batch", batch)
    monkeypatch.setattr(montecarlo, "_BLOCK", 1)
    monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 4)
    cfg = McConfig(paths=32, dt=1e-5, horizon=1.0, seed=3)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="injected"):
        _survive_batches(0.8, 1.0, cfg)
    assert threading.active_count() == before
    assert len(survivors) == _N_BATCHES - 1
    # each draws at most the block it had begun when the stop was set
    assert all(s.late <= 1 for s in survivors)
    assert all(s.draws < 50_000 for s in survivors), [
        s.draws for s in survivors]


@pytest.mark.parametrize("factors", [(), (0,), (-1,), (2.5,), (True,)],
                         ids=["empty", "zero", "negative", "fractional",
                              "bool"])
def test_refinement_study_rejects_bad_factors(monkeypatch, factors):
    def no_draws(*args, **kwargs):
        raise AssertionError("paths were simulated")
    monkeypatch.setattr(montecarlo, "_survive_batches", no_draws)
    cfg = McConfig(paths=100, dt=0.1, horizon=1.0, seed=1)
    with pytest.raises(ValueError):
        refinement_study(1.0, 1.0, cfg, factors=factors)


def test_refinement_study_rejects_time_beyond_horizon(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("paths were simulated")
    monkeypatch.setattr(montecarlo, "_survive_batches", no_draws)
    cfg = McConfig(paths=100, dt=0.01, horizon=0.02, seed=1)
    with pytest.raises(ValueError):
        refinement_study(1.0, 1.0, cfg)
    with pytest.raises(ValueError):
        estimate_survival(1.0, 1.0, cfg)
