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
own spawned child sequence.  The non-empty batches are dealt, in order, into
one contiguous share per CPU the process may run on (its affinity mask),
capped at the number of batches; the calling thread advances the first share
and one helper thread each of the others, started and joined within the call.
Within a share, consecutive batches advance together, one time step at a
time, in groups of bounded size, so one step is a few array passes over the
whole group; the random draws and the array passes release the interpreter
lock, so the shares run in parallel.  Results depend only on (seed, paths,
batch count), not on the grouping, the number of threads or the order of
execution.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from dataclasses import dataclass

import numpy as np

from .halfline import _check_positive

__all__ = ["McConfig", "McEstimate", "sample_cauchy_increments",
           "estimate_survival", "refinement_study"]

_N_BATCHES = 16
#: most paths that advance together, which bounds the step arrays
_GROUP = 1 << 17


@dataclass(frozen=True)
class McConfig:
    """Path count, time step, longest simulated time and seed of a Monte
    Carlo run; survival is estimated only at times t <= horizon."""
    paths: int = 100_000
    dt: float = 1e-3
    horizon: float = 1.0
    seed: int = 20270405

    def __post_init__(self):
        # bool is an Integral, but True paths or seed is a mistake
        for name in ("paths", "seed"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        if self.paths < 1:
            raise ValueError("paths must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0 < self.dt <= self.horizon < math.inf:
            raise ValueError("need 0 < dt <= horizon < inf")


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_error: float
    paths_used: int


def sample_cauchy_increments(scale: float, rng: np.random.Generator,
                             size=None) -> np.ndarray:
    """Cauchy increments with the density scale/(pi (scale^2 + x^2)),
    via inverse CDF."""
    if not 0 < scale < math.inf:              # False for NaN too
        raise ValueError("scale must be positive and finite")
    u = rng.random(size)
    return scale * np.tan(math.pi * (u - 0.5))


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _groups(batches):
    """(stream, lo, hi) of each (seed sequence, paths) batch, consecutive
    batches grouped into arrays of at most _GROUP paths (a larger batch on
    its own)."""
    groups, size = [[]], 0
    for child, n in batches:
        if size and size + n > _GROUP:
            groups.append([])
            size = 0
        groups[-1].append((np.random.default_rng(child), size, size + n))
        size += n
    return groups


def _advance(groups, x, dt, nsteps, strides, stop):
    """Alive counts for each stride over the paths of ``groups``.  Calls
    only numpy, so that it can run on a helper thread.  Returns early, with
    partial counts, once ``stop`` is set."""
    counts = np.zeros(len(strides), dtype=np.int64)
    for group in groups:
        n = group[-1][2]
        pos = np.full(n, x)
        u = np.empty(n)
        up = np.empty(n, dtype=bool)
        alive = np.ones((len(strides), n), dtype=bool)
        for k in range(1, nsteps + 1):
            if stop.is_set():
                return counts
            for rng, lo, hi in group:
                rng.random(out=u[lo:hi])
            # the increment dt * tan(pi (U - 1/2)) of sample_cauchy_increments
            u -= 0.5
            u *= math.pi
            np.tan(u, out=u)
            u *= dt
            pos += u
            np.greater(pos, 0.0, out=up)
            for i, s in enumerate(strides):
                if k % s == 0:
                    alive[i] &= up
        counts += alive.sum(axis=1)
    return counts


def _helper(out, i, groups, x, dt, nsteps, strides, stop):
    """Thread body: share i's counts, or the exception that ended it, into
    out[i]; an exception also stops the other shares."""
    try:
        out[i] = _advance(groups, x, dt, nsteps, strides, stop)
    except BaseException as exc:      # handed to the caller, which raises it
        out[i] = exc
        stop.set()


def _survive_batches(x: float, t: float, cfg: McConfig, strides=(1,)):
    """Alive counts at time t for each monitoring stride (multiples of
    cfg.dt), sharing one simulated path set, for x and t already checked.

    Batch b draws its paths' increments from its own spawned stream, step
    by step, exactly as if simulated alone.  The non-empty batches are split
    into W contiguous shares of near-equal path count, W being the number of
    CPUs in the affinity mask capped at the number of batches.  The calling
    thread advances share 0 and W - 1 helper threads the others (none when
    W = 1); every helper is joined before the call returns or raises, an
    exception in any share stops the others within one step and reaches the
    caller, and the shares' counts are summed in order.  Within a share,
    consecutive batches advance together in one array of at most _GROUP
    paths (a larger batch on its own), so each step is a few whole-array
    passes.  The counts do not depend on W."""
    nsteps = int(round(t / cfg.dt))
    if abs(nsteps * cfg.dt - t) > 1e-9 * t:
        raise ValueError("t must be a multiple of dt")
    if any(nsteps % s for s in strides):
        raise ValueError("every stride must divide the step count")
    base, extra = divmod(cfg.paths, _N_BATCHES)
    children = np.random.SeedSequence(cfg.seed).spawn(_N_BATCHES)
    batches = [(child, base + (b < extra)) for b, child in enumerate(children)
               if base + (b < extra)]
    w = min(_available_cpus(), len(batches))
    shares = [_groups(batches[i * len(batches) // w:
                              (i + 1) * len(batches) // w])
              for i in range(w)]
    stop = threading.Event()
    args = (float(x), cfg.dt, nsteps, strides, stop)
    out = [None] * w
    helpers = []
    try:
        for i in range(1, w):
            th = threading.Thread(target=_helper,
                                  args=(out, i, shares[i], *args))
            th.start()
            helpers.append(th)
        out[0] = _advance(shares[0], *args)
    except BaseException:
        stop.set()
        raise
    finally:
        for th in helpers:
            th.join()
    counts = np.zeros(len(strides), dtype=np.int64)
    for c in out:
        if isinstance(c, BaseException):
            raise c
        counts += c
    return counts, cfg.paths


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
    non-empty sequence of positive integers and t at most ``cfg.horizon``
    (ValueError otherwise), and x and t positive and finite (DomainError
    otherwise), all checked before any path is drawn.
    """
    factors = tuple(factors)
    if not factors:
        raise ValueError("factors must not be empty")
    if not all(isinstance(f, numbers.Integral) and f > 0 for f in factors):
        raise ValueError("every factor must be a positive integer")
    _check_positive("x and t", x, t)
    if t > cfg.horizon:
        raise ValueError("t must not exceed cfg.horizon")
    counts, used = _survive_batches(x, t, cfg, strides=factors)
    out = []
    for f, c in zip(factors, counts):
        p = c / used
        out.append((f * cfg.dt,
                    McEstimate(float(p), math.sqrt(max(p * (1 - p), 1e-12) / used),
                               used)))
    return out
