"""cauchyspec benchmark runner.

    python3 perfbench/run.py --workload {eigs,kernels,transform} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout.  Closed loop, one client: the runner
starts one fresh interpreter (``child.py``) per repetition, waits for it, and
starts the next until ``--seconds`` have passed (at least three repetitions
of each kind).  Every repetition checks its results (``gate.py``).

With ``--trace 0`` the last line of stdout is a JSON object holding every
end-to-end metric of BENCHMARK.json (times at the reference host speed, see
``speed.py``); with ``--trace 1`` traced and untraced
repetitions alternate and it holds every per-layer metric, taken from the
traced ones.  The lines before it give the same numbers with their units and
the environment record; the full record, with every repetition, is written to
``perfbench/results/``.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: BLAS / OpenMP threads in every child; at most nproc (2 on the reference
#: machine), and 1 keeps a closed loop on a shared 2-core machine steady
BLAS_THREADS = 1
MIN_REPS = 3
#: every run must end within 180 s; children get what is left of this
HARD_LIMIT_S = 170.0


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(job, timeout):
    """One repetition; returns its result dict, or a failure record."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py")],
                              input=json.dumps(job), capture_output=True,
                              text=True, env=child_env(), cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"failed": f"timed out after {timeout:.0f} s",
                "duration_s": time.perf_counter() - t0}
    duration = time.perf_counter() - t0
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"failed": f"exit {proc.returncode}: {' | '.join(tail)}",
                "duration_s": duration}
    try:
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
    except (json.JSONDecodeError, IndexError):
        return {"failed": "no result line", "duration_s": duration}
    rep["duration_s"] = duration
    return rep


def git_commit():
    """HEAD of the checkout, or ``unknown`` outside a git checkout (the
    search for a repository stops at the checkout, so that an enclosing
    repository is not reported)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _ratio(num, den):
    return num / den if den else 0.0


def layer_value(name, rep):
    """A per-layer metric from one traced repetition.  ``<f>.calls`` and
    ``<f>.self_s`` read the span summary of function ``<f>``;
    ``cli.<cmd>.wall_s`` is the inclusive time of ``cli.cmd_<cmd>``."""
    spans, counts = rep["spans"], rep["counts"]

    def field(fn, key):
        return spans.get(fn, {}).get(key, 0.0)

    derived = {
        "quadrature.points_per_integral": lambda: _ratio(
            counts.get("quadrature.integrand_points", 0),
            field("quadrature.integrate", "calls")),
        "halfline.remainder.us_per_point": lambda: 1e6 * _ratio(
            field("halfline.remainder", "self_s"),
            counts.get("halfline.remainder.points", 0)),
        "halfline.heat_kernel.distinct_fraction": lambda: _ratio(
            counts.get("halfline.heat_kernel.distinct", 0),
            field("halfline.heat_kernel", "calls")),
        "montecarlo.path_steps_per_s": lambda: _ratio(
            counts.get("montecarlo.path_steps", 0),
            field("montecarlo.refinement_study", "incl_s")),
    }
    if name in derived:
        return derived[name]()
    if name.endswith("points"):
        return counts.get(name, 0)
    fn, _, key = name.rpartition(".")
    if fn.startswith("cli.") and key == "wall_s":
        return field("cli.cmd_" + fn[4:], "incl_s")
    if key not in ("calls", "self_s"):
        raise KeyError(f"no rule for per-layer metric {name!r}")
    return field(fn, key)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cauchyspec" / "__init__.py").is_file():
        sys.stderr.write(f"no package source under {SRC}; run from the root "
                         "of a cauchyspec checkout\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    steps = workloads.build(args.workload, args.seed)
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    start = time.perf_counter()
    deadline = start + args.seconds
    reps = {False: [], True: []}
    durations = []
    failures = []
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        k += 1
        left = HARD_LIMIT_S - (time.perf_counter() - start)
        job = {"steps": steps, "trace": traced,
               "spans_path": str(RESULTS / f"spans-{tag}.jsonl") if traced
               else None}
        rep = run_child(job, timeout=max(left, 1.0))
        durations.append(rep["duration_s"])
        if "failed" in rep:
            failures.append(rep["failed"])
            sys.stderr.write(f"repetition {k} failed: {rep['failed']}\n")
        else:
            reps[traced].append(rep)
        sys.stderr.write(f"rep {k} traced={int(traced)} "
                         f"{rep['duration_s']:.2f}s\n")
        now = time.perf_counter()
        need = [False, True] if args.trace else [False]
        short = any(len(reps[t]) < MIN_REPS for t in need)
        est = statistics.median(durations)
        if (now - start + est > HARD_LIMIT_S or len(failures) >= MIN_REPS
                or (failures and not short)):
            break
        if not short and now + est > deadline:
            break

    plain, traced_reps = reps[False], reps[True]
    if not plain or (args.trace and not traced_reps):
        sys.stderr.write("no repetition completed: " + "; ".join(failures)
                         + "\n")
        return 1

    attempted, failed, ratio_max = gate.summarize(
        [c for r in plain + traced_reps for c in r["checks"]])
    attempted += len(failures)
    failed += len(failures)
    med = statistics.median

    if args.trace:
        values = {m["name"]: med([layer_value(m["name"], r)
                                  for r in traced_reps])
                  for m in spec["per_layer"] if m["name"] != "trace.overhead_frac"}
        untraced_wall = med([r["wall_s"] for r in plain])
        values["trace.overhead_frac"] = (
            med([r["wall_s"] for r in traced_reps]) - untraced_wall) / untraced_wall
        declared = spec["per_layer"]
    else:
        values = {
            "wall_s": med([r["wall_s"] for r in plain]),
            "setup_s": med([r["setup_s"] for r in plain]),
            "peak_rss_mb": med([r["peak_rss_mb"] for r in plain]),
            "pass_frac": 1.0 - failed / attempted,
            "check_ratio_max": ratio_max,
            "bracket_width_max": max(r["bracket_width_max"]
                                     for r in plain + traced_reps),
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    env = dict(plain[-1]["env"])
    env.update({"nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)),
                "cpu_model": cpu_model(), "blas_threads": BLAS_THREADS,
                "git_commit": git_commit(), "workload": args.workload,
                "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "repetitions": len(plain),
                "traced_repetitions": len(traced_reps)})
    record = {"env": env, "steps": steps, "metrics": metrics,
              "attempted": attempted, "failed": failed,
              "failures": failures + [c for r in plain + traced_reps
                                      for c in r["checks"] if not c["passed"]],
              "repetitions": plain + traced_reps}
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(env, sort_keys=True))
    print(f"fail_frac {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} checks failed)")
    if args.trace:
        top = max(traced_reps[-1]["spans"].items(),
                  key=lambda kv: kv[1]["self_s"])
        print(f"top self time: {top[0]} {top[1]['self_s']:.4f} s")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for key in ("wall_raw_s", "setup_raw_s"):
        print(f"{key} {med([r[key] for r in plain]):.6g} s (not normalized)")
    print(f"speed_factor {med([r['speed_factor'] for r in plain]):.4g} "
          "(reference probe time / probe time; 1 = reference host speed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
