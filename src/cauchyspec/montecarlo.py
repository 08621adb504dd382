"""Monte Carlo cross-check of the exit-time law.

Simulates the Cauchy process on a regular time grid (increments drawn by
inverse CDF, scale * tan(pi (U - 1/2))) and estimates survival probabilities
by the fraction of paths that stay positive at every grid time.  Discrete
monitoring misses excursions below zero between grid times, so the estimator
is biased upward; the refinement study therefore monitors one shared path
set at nested strides (1-stability makes stride monitoring exactly the
coarser-step estimator), which yields a deterministic, monotone trend toward
the closed-form value as the step shrinks.

Randomness comes from numpy's PCG64 generator seeded through SeedSequence.
The paths are split into a fixed number of batches, each drawing from its
own spawned child sequence.  Each batch is simulated alone, a block of time
steps at a time: one draw fills the block, and a few array passes turn it
into positions and update the alive masks.  The batches run on plain
``threading`` workers, one per CPU the process may run on (its affinity
mask), each taking the next batch until none is left and drawing every
batch it runs into one block of its own; the draws and array passes release
the interpreter lock, so the batches run in parallel.  Results depend only
on (seed, paths, batch count), not on the block length, the number of
workers or the order of execution.

The package executes this module on first use, not at import: only
``validate --level full`` and direct callers load it.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _integer, _positive

__all__ = ["McConfig", "McEstimate", "sample_cauchy_increments",
           "estimate_survival", "refinement_study"]

_N_BATCHES = 16
#: path-steps drawn at once by a batch (at least one step), which bounds
#: its block array
_BLOCK = 1 << 17


@dataclass(frozen=True)
class McConfig:
    """Path count, time step, longest simulated time and seed of a Monte
    Carlo run; survival is estimated only at times t <= horizon."""
    paths: int = 100_000
    dt: float = 1e-3
    horizon: float = 1.0
    seed: int = 20270405

    def __post_init__(self):
        _integer("paths", self.paths, 1)
        _integer("seed", self.seed, 0)
        _positive("dt and horizon", self.dt, self.horizon)
        if self.dt > self.horizon:
            raise DomainError("dt must not exceed horizon")


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_error: float
    paths_used: int


def _cauchy(u: np.ndarray, scale: float) -> np.ndarray:
    """Turn uniform draws U in [0, 1) into Cauchy increments
    scale * tan(pi (U - 1/2)), in place."""
    u -= 0.5
    u *= math.pi
    np.tan(u, out=u)
    u *= scale
    return u


def sample_cauchy_increments(scale: float, rng: np.random.Generator,
                             size=None) -> np.ndarray:
    """Cauchy increments with the density scale/(pi (scale^2 + x^2)),
    via inverse CDF."""
    _positive("scale", scale)
    return _cauchy(np.asarray(rng.random(size)), scale)[()]


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _batch(rng, n, x, dt, nsteps, strides, buf, stop):
    """Alive counts for each stride over n paths started at x, whose
    increments rng draws step by step.  A block of k steps is drawn at
    once into the front of the flat float array ``buf`` (k n floats at
    least), row j holding step j's increments, and summed down the rows
    into positions.  Calls only numpy between checks of ``stop``, once per
    block, and returns early, with partial counts, once it is set; an
    exception sets it before it propagates."""
    k = _steps_per_block(n)
    block = buf[:k * n].reshape(k, n)
    pos = np.full(n, x)
    alive = np.ones((len(strides), n), dtype=bool)
    try:
        for k0 in range(0, nsteps, k):
            if stop.is_set():
                break
            b = block[:min(k, nsteps - k0)]  # steps k0 + 1, ..., k0 + len(b)
            rng.random(out=b)
            _cauchy(b, dt)
            b[0] += pos
            for j in range(1, len(b)):
                b[j] += b[j - 1]
            pos[:] = b[-1]
            for i, s in enumerate(strides):
                alive[i] &= (b[(-(k0 + 1)) % s::s] > 0.0).all(axis=0)
    except BaseException:
        stop.set()
        raise
    return alive.sum(axis=1)


def _steps_per_block(n: int) -> int:
    """Time steps per block of a batch of n paths (one at least)."""
    return max(1, _BLOCK // n)


def _survive_batches(x: float, t: float, cfg: McConfig, strides=(1,)):
    """Alive counts at time t for each monitoring stride (multiples of
    cfg.dt), sharing one simulated path set, for x and t already checked.

    Batch b draws its paths' increments from its own spawned stream, step
    by step, exactly as if simulated alone, one block of steps at a time
    (_batch).  The non-empty batches are run by one thread per CPU in the
    affinity mask, capped at the number of batches, each taking the next
    batch not yet taken and allocating one block for all it runs; the
    counts are summed in batch order, so they do not depend on the workers.
    An exception in any batch, or an interrupt of the caller's wait, stops
    the others within one block, and the first failing batch's exception
    reaches the caller; every worker is joined before the call returns or
    raises."""
    nsteps = int(round(t / cfg.dt))
    if abs(nsteps * cfg.dt - t) > 1e-9 * t:
        raise DomainError("t must be a multiple of dt")
    if any(nsteps % s for s in strides):
        raise DomainError("every stride must divide the step count")
    base, extra = divmod(cfg.paths, _N_BATCHES)
    children = np.random.SeedSequence(cfg.seed).spawn(_N_BATCHES)
    batches = [(np.random.default_rng(child), base + (b < extra))
               for b, child in enumerate(children) if base + (b < extra)]
    size = max(_steps_per_block(n) * n for _, n in batches)
    results = [None] * len(batches)     # counts, or the exception raised
    todo, lock = iter(range(len(batches))), threading.Lock()
    stop = threading.Event()

    def work():
        buf = None
        while True:
            with lock:
                b = next(todo, None)
            if b is None:
                return
            rng, n = batches[b]
            try:
                if buf is None:     # in the worker's own malloc arena
                    buf = np.empty(size)
                results[b] = _batch(rng, n, float(x), cfg.dt, nsteps,
                                    strides, buf, stop)
            except BaseException as exc:    # re-raised by the caller
                stop.set()
                results[b] = exc

    workers = [threading.Thread(target=work)
               for _ in range(min(_available_cpus(), len(batches)))]
    started = []
    try:
        for w in workers:
            w.start()
            started.append(w)
        for w in started:
            w.join()
    finally:
        stop.set()          # else an interrupt here waits for every batch
        for w in started:
            w.join()
    for r in results:
        if isinstance(r, BaseException):
            raise r
    return sum(results)


def estimate_survival(x: float, t: float, cfg: McConfig) -> McEstimate:
    """Estimate P(exit time > t) for the process started at x > 0 and
    t <= cfg.horizon by discrete monitoring at multiples of cfg.dt:
    :func:`refinement_study` at the single step cfg.dt.  Biased upward; the
    standard error is the binomial sqrt(p(1-p)/paths)."""
    return refinement_study(x, t, cfg, factors=(1,))[0][1]


def refinement_study(x: float, t: float, cfg: McConfig,
                     factors=(4, 2, 1)) -> list[tuple[float, McEstimate]]:
    """Survival estimates at steps factor*cfg.dt on one shared path set.

    Because increments are stable, monitoring every k-th step of a dt-path
    reproduces the k*dt estimator exactly, coupled across factors; the
    returned estimates are non-increasing as the step shrinks, converging
    from above toward the closed-form survival.  ``factors`` must be a
    non-empty sequence of positive integers (a bool is not one) and t at
    most ``cfg.horizon``, and x and t positive and finite, all checked
    before any path is drawn (DomainError otherwise).
    """
    factors = tuple(factors)
    if not factors:
        raise DomainError("factors must not be empty")
    for f in factors:
        _integer("every factor", f, 1)
    _positive("x and t", x, t)
    if t > cfg.horizon:
        raise DomainError("t must not exceed cfg.horizon")
    used = cfg.paths
    out = []
    for f, c in zip(factors, _survive_batches(x, t, cfg, strides=factors)):
        p = c / used
        out.append((f * cfg.dt,
                    McEstimate(float(p), math.sqrt(max(p * (1 - p), 1e-12) / used),
                               used)))
    return out
