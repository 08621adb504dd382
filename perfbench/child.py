"""One repetition of a workload, in a fresh interpreter.

Reads a job (JSON on stdin: the generated steps, whether to trace, where to
write spans), times ``import cauchyspec.cli`` (set-up), runs the steps one
after another, checks every result with :mod:`gate`, and prints one JSON
object on stdout.  ``run.py`` starts one of these per repetition.

Set-up is timed in an interpreter that has loaded only the standard library
and the gate's ``jsonschema``, so numpy and scipy count towards it.  Wall time
is the time of the steps, from the end of the import until the last result is
checked.  Both are reported at the reference host speed (:mod:`speed`): probes
sampled during the steps give the factor for wall time, probes run just after
the import the one for set-up.  The probes' own time is left out of the wall
time.
With tracing on, the layer modules' public functions are wrapped from here
(see :mod:`tracer`) and the run reports calls, self times and counts instead
of being used for end-to-end numbers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import sys
import time

import gate as g
from tracer import Tracer

LAYERS = ("specialfun", "quadrature", "halfline", "interval", "linalg",
          "montecarlo", "cli")


# --------------------------------------------------------------------------
# counts taken at layer boundaries while tracing


def _size(a):
    return getattr(a, "size", 1)


def _count_first_arg(key):
    def hook(tr, args, kwargs):
        if args:
            tr.counts[key] += _size(args[0])
        return args, kwargs
    return hook


def _count_integrand_points(tr, args, kwargs):
    f = args[0] if args else None
    if f is not None and not getattr(f, "_bench_counted", False):
        def counted(x):
            tr.counts["quadrature.integrand_points"] += _size(x)
            return f(x)
        counted._bench_counted = True
        args = (counted,) + tuple(args[1:])
    return args, kwargs


def _distinct_heat_points(tr, args, kwargs):
    t, x, y = args[:3]
    tr.sets["halfline.heat_kernel.distinct"].add((t, min(x, y), max(x, y)))
    return args, kwargs


def _path_steps(tr, args, kwargs):
    _, t, cfg = args[:3]
    tr.counts["montecarlo.path_steps"] += cfg.paths * round(t / cfg.dt)
    return args, kwargs


HOOKS = {
    "quadrature.integrate": _count_integrand_points,
    "specialfun.ti2": _count_first_arg("specialfun.ti2.points"),
    "halfline.remainder": _count_first_arg("halfline.remainder.points"),
    "halfline.heat_kernel": _distinct_heat_points,
    "montecarlo.refinement_study": _path_steps,
}


# --------------------------------------------------------------------------
# workload steps


class Run:
    def __init__(self, cauchyspec):
        self.cs = cauchyspec
        self.gate = g.Gate()
        self.widths: list[float] = []
        self._schema = None

    def schema(self):
        if self._schema is None:
            self._schema = self.cs.cli.output_schema()
        return self._schema

    def cli(self, step):
        argv = step["argv"]
        cmd = argv[0]
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.cs.cli.main(argv)
        except SystemExit as exc:          # argparse usage errors
            rc = exc.code
        if not self.gate.require(f"{cmd}.exit_code", rc == 0, f"exit {rc}"):
            return
        doc = json.loads(buf.getvalue())
        g.check_schema(self.gate, f"{cmd}.schema", doc, self.schema())
        cfg = doc["meta"]["config"]
        if cmd == "eigs":
            self.widths.append(g.check_eigs(
                self.gate, doc, cfg["n_max"],
                self.cs.interval.REFERENCE_BRACKETS,
                step.get("in_ratio", True)))
        elif cmd == "heat":
            g.check_heat(self.gate, doc, cfg["t"])
        elif cmd == "exit":
            g.check_exit(self.gate, doc, cfg["x"])
        elif cmd == "psi":
            g.check_psi(self.gate, doc, cfg["lam"])
        elif cmd == "validate":
            g.check_validate(self.gate, doc)

    def residual(self, step):
        n = step["n"]
        val = self.cs.interval.residual_norm(
            n, nodes_per_piece=step["nodes_per_piece"])
        g.check_residual(self.gate, n, val)

    def spectral(self, step):
        hl = self.cs.halfline
        for k, (t, x, y) in enumerate(step["points"]):
            closed = hl.heat_kernel(t, x, y)
            spectral = hl.heat_kernel_spectral(t, x, y, tol=step["tol"])
            g.check_spectral(self.gate, k, closed, spectral)

    def mc(self, step):
        mc = self.cs.montecarlo
        cfg = mc.McConfig(paths=step["paths"], dt=step["dt"],
                          horizon=step["t"], seed=step["seed"])
        study = mc.refinement_study(step["x"], step["t"], cfg)
        closed = self.cs.halfline.survival(step["x"], step["t"])
        g.check_mc(self.gate, [est.value for _, est in study],
                   study[-1][1].std_error, closed)

    def transform(self, step):
        """Pi transform of the C-infinity bump on [a, a+1], Plancherel."""
        import numpy as np
        a = step["a"]
        lam = np.linspace(a, a + 1.0, step["nodes"])
        u = 2.0 * (lam - a) - 1.0
        with np.errstate(divide="ignore", over="ignore"):
            fv = np.where(np.abs(u) < 1.0,
                          np.exp(-1.0 / np.maximum(1.0 - u * u, 1e-300)), 0.0)
        f = self.cs.GridFunction.from_samples(lam, fv)
        dx = math.pi / 24.0
        pif = self.cs.halfline.pi_transform(f, np.arange(dx, step["xmax"], dx))
        g.check_plancherel(self.gate,
                           pif.norm2() ** 2 / (math.pi / 2.0 * f.norm2() ** 2))

    def step(self, index, step):
        try:
            getattr(self, step["kind"])(step)
        except Exception as exc:          # a failed step is a failed check
            self.gate.require(f"step{index}.{step['kind']}.raised", False,
                              f"{type(exc).__name__}: {exc}")


def environment():
    blas = {}
    for mod in ("numpy", "scipy"):
        cfg = sys.modules[mod].show_config(mode="dicts")
        blas[mod] = cfg["Build Dependencies"]["blas"].get("version", "unknown")
    return {"python": sys.version.split()[0],
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
            "openblas": blas}


def main():
    job = json.load(sys.stdin)
    t0 = time.perf_counter()
    import cauchyspec.cli                          # noqa: F401
    setup_s = time.perf_counter() - t0

    import cauchyspec
    from speed import SpeedProbe                   # numpy, loaded by now
    run = Run(cauchyspec)
    tracer = Tracer(LAYERS, HOOKS) if job["trace"] else None
    probe = SpeedProbe()
    setup_factor = probe.factor_now()
    probe.start()
    with tracer or contextlib.nullcontext():
        t1 = time.perf_counter()
        for i, step in enumerate(job["steps"]):
            run.step(i, step)
        elapsed = time.perf_counter() - t1
    probe.stop()
    wall_raw_s = elapsed - probe.probe_seconds()
    factor = probe.factor() or setup_factor

    out = {"setup_s": setup_s * setup_factor, "wall_s": wall_raw_s * factor,
           "setup_raw_s": setup_s, "wall_raw_s": wall_raw_s,
           "speed_factor": factor, "probes": len(probe.samples),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           / 1024.0,
           "checks": run.gate.checks,
           "bracket_width_max": max(run.widths, default=0.0),
           "env": environment()}
    if tracer is not None:
        out["spans"] = tracer.summary()
        counts = dict(tracer.counts)
        counts.update({k: len(v) for k, v in tracer.sets.items()})
        out["counts"] = counts
        if job.get("spans_path"):
            tracer.dump(job["spans_path"])
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
