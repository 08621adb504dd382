"""Host speed, sampled while a repetition runs.

The benchmark runs on shared machines whose speed for the same code changes
by up to a factor of two within seconds, as other tenants load the cores.  A
time measured on such a host says more about the neighbours than about the
program.  :class:`SpeedProbe` measures the host alongside the program: every
``interval`` seconds a ``SIGALRM`` handler runs a fixed mix of about 1 ms of
work that does not touch the package (a pure-Python loop, big-integer
arithmetic, ufuncs on 15-point and on 20k-point arrays: the kinds of work the
workloads do) and records how long it took.  A time ``t`` measured between
:meth:`start` and :meth:`stop` is then reported at the reference speed as
``t * REF_PROBE_S / d``, averaged over the samples ``d`` taken meanwhile.

The handler runs between bytecodes of the main thread, so a long call into C
delays the next sample; samples are weighted by the time since the previous
one, so the average is over time, not over samples.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: seconds one probe takes on the reference machine (2-core Xeon VM) when no
#: other tenant contends for the core
REF_PROBE_S = 0.00087
INTERVAL_S = 0.05
#: probes behind the factor of a time measured before sampling starts
BURST = 32


class SpeedProbe:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start, seconds)
        self._small = np.linspace(0.1, 1.0, 15)
        self._mid = np.linspace(0.0, 1.0, 20_000)
        self._big = (3**400, 7**300)
        self._previous = None

    def probe(self):
        """Run the fixed mix once; returns its start and duration."""
        small, mid = self._small, self._mid
        a, b = self._big
        t = time.perf_counter()
        acc = 0
        for k in range(3000):
            acc += k * k
        for k in range(200):
            acc += a * b + k
        for _ in range(60):
            float((np.exp(-small) * np.sin(small)).sum())
        float((np.exp(-mid) * np.cos(mid)).sum())
        return t, time.perf_counter() - t

    def factor_now(self):
        """Speed factor (reference probe time / probe time) from ``BURST``
        probes run back to back after one warm-up probe."""
        self.probe()
        return sum(REF_PROBE_S / self.probe()[1] for _ in range(BURST)) / BURST

    def _handler(self, signum, frame):
        self.samples.append(self.probe())

    def start(self):
        self.samples.clear()
        self._t0 = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def probe_seconds(self):
        """Time spent in the probes since :meth:`start`."""
        return sum(d for _, d in self.samples)

    def factor(self):
        """Time-weighted mean of reference probe time / probe time over the
        samples since :meth:`start`, or None without samples."""
        if not self.samples:
            return None
        num = den = 0.0
        last = self._t0
        for t, d in self.samples:
            num += (t - last) * REF_PROBE_S / d
            den += t - last
            last = t + d
        return num / den if den > 0 else None
