"""Workload inputs, generated from the benchmark seed.

The seed fixes the Monte Carlo seed and small perturbations of the evaluation
grids (heat and exit ranges, bump placement, psi frequency).  The perturbations are kept small so that the amount of work, and
hence the timing, hardly depends on the seed; the package only ever sees the
generated inputs.  ``eigs`` has no grid or random input and is the same for
every seed.

Sizes are scaled down from the full-size cases (heat table 20 x 20,
residual_norm with 32 nodes per piece, transform grid to 320) so that one
repetition takes a few seconds and a run of ``run_seconds`` holds several
repetitions: see README.md for the reasons behind each workload.
"""

from __future__ import annotations

import random

#: eigs step appended to kernels and transform, so that every workload
#: reports bracket_width_max; at N = 25 it costs milliseconds.  Its checks
#: pass or fail but stay out of check_ratio_max, which on these workloads
#: reads the checks of their own steps.
SMALL_EIGS = ["eigs", "--n-max", "5", "--basis", "25", "--method", "both",
              "--format", "json"]
SMALL_EIGS_STEP = {"kind": "cli", "argv": SMALL_EIGS, "in_ratio": False}
#: (t, x, y) of the spectral-vs-closed check; fixed, because its relative
#: error (0.3e-8 to 0.7e-8 here) can set check_ratio_max on kernels, which
#: must not move with the seed
SPECTRAL_POINTS = [[1.0, 0.6, 1.4], [0.9, 1.2, 1.9], [1.1, 1.8, 0.7]]


def _num(v):
    return repr(float(v))


def eigs(rng):
    return [{"kind": "cli",
             "argv": ["eigs", "--n-max", "10", "--basis", "200",
                      "--method", "both", "--format", "json"]}]


def kernels(rng):
    u = rng.uniform
    return [
        {"kind": "cli",
         "argv": ["heat", "--t", "1", "--xmin", _num(0.3 + u(0, 0.02)),
                  "--xmax", _num(2.0 + u(0, 0.05)), "--points", "12",
                  "--format", "json"]},
        {"kind": "cli",
         "argv": ["exit", "--x", _num(1.0 + u(-0.05, 0.05)),
                  "--tmin", _num(0.1 + u(0, 0.01)),
                  "--tmax", _num(10.0 + u(0, 0.5)), "--points", "50",
                  "--format", "json"]},
        {"kind": "cli", "argv": ["validate", "--level", "quick",
                                 "--format", "json"]},
        {"kind": "residual", "n": 1, "nodes_per_piece": 16},
        {"kind": "spectral", "tol": 1e-8, "points": SPECTRAL_POINTS},
        {"kind": "mc", "x": round(1.0 + u(-0.05, 0.05), 6), "t": 1.0,
         "dt": 1e-3, "paths": 100_000, "seed": rng.randrange(2**32)},
        SMALL_EIGS_STEP,
    ]


def transform(rng):
    u = rng.uniform
    return [
        {"kind": "transform", "a": round(1.0 + u(0, 0.05), 6), "nodes": 201,
         "xmax": 120.0},
        {"kind": "cli",
         "argv": ["psi", "--lam", _num(1.0 + u(0, 0.1)), "--xmax", "20",
                  "--points", "400", "--format", "json"]},
        SMALL_EIGS_STEP,
    ]


WORKLOADS = {"eigs": eigs, "kernels": kernels, "transform": transform}


def build(name: str, seed: int) -> list[dict]:
    """The steps of workload ``name`` for ``seed``."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
