"""Self-tests of the benchmark's correctness gate, tracer and speed probe.

    python3 -m pytest perfbench -q

The gate must pass the package's real outputs and must fail (fail_frac > 0)
on a deliberately corrupted copy of them.
"""

import contextlib
import copy
import io
import json
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cauchyspec.cli  # noqa: E402

import child  # noqa: E402
import gate  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SMALL_EIGS  # noqa: E402

HEAT = ["heat", "--t", "1", "--xmin", "0.3", "--xmax", "2", "--points", "3",
        "--format", "json"]
EXIT = ["exit", "--x", "1", "--tmin", "0.1", "--tmax", "10", "--points", "5",
        "--format", "json"]
PSI = ["psi", "--lam", "1", "--xmax", "20", "--points", "50", "--format",
       "json"]


def fail_frac(checks):
    attempted, failed, _ = gate.summarize(checks)
    assert attempted > 0
    return failed / attempted


def cli_doc(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cauchyspec.cli.main(argv) == 0
    return json.loads(buf.getvalue())


def test_clean_results_pass():
    run = child.Run(cauchyspec)
    for i, argv in enumerate((SMALL_EIGS, HEAT, EXIT, PSI)):
        run.step(i, {"kind": "cli", "argv": argv})
    assert fail_frac(run.gate.checks) == 0.0
    assert 0.0 < gate.summarize(run.gate.checks)[2] < 1.0
    assert 0.0 < max(run.widths) < 1e-3


def _swap_bracket(doc):
    row = doc["rows"][0]
    row[1], row[2] = row[2], row[1]


def _asymmetric_heat(doc):
    doc["rows"][1][2] += 1e-9


def _rising_survival(doc):
    doc["rows"][-1][2] = doc["rows"][0][2] + 1e-3


def _large_remainder(doc):
    doc["rows"][-1][2] = 0.5


@pytest.mark.parametrize("argv,check,corrupt", [
    (SMALL_EIGS, lambda g, d: gate.check_eigs(
        g, d, 5, cauchyspec.interval.REFERENCE_BRACKETS), _swap_bracket),
    (HEAT, lambda g, d: gate.check_heat(g, d, 1.0), _asymmetric_heat),
    (EXIT, lambda g, d: gate.check_exit(g, d, 1.0), _rising_survival),
    (PSI, lambda g, d: gate.check_psi(g, d, 1.0), _large_remainder),
], ids=["eigs", "heat", "exit", "psi"])
def test_corrupted_result_raises_fail_frac(argv, check, corrupt):
    doc = cli_doc(argv)
    clean = gate.Gate()
    check(clean, doc)
    assert fail_frac(clean.checks) == 0.0

    bad = copy.deepcopy(doc)
    corrupt(bad)
    corrupted = gate.Gate()
    check(corrupted, bad)
    assert fail_frac(corrupted.checks) > 0.0


def test_failed_steps_count_as_failures():
    run = child.Run(cauchyspec)
    run.step(0, {"kind": "cli", "argv": ["eigs", "--n-max", "0", "--basis",
                                         "5", "--format", "json"]})
    run.step(1, {"kind": "residual", "n": 0, "nodes_per_piece": 4})
    assert [c["id"] for c in run.gate.checks] == ["eigs.exit_code",
                                                  "step1.residual.raised"]
    assert fail_frac(run.gate.checks) == 1.0


def test_statistical_check_stays_out_of_ratio():
    g = gate.Gate()
    gate.check_mc(g, [0.7, 0.69, 0.68], 0.001, 0.681)
    assert fail_frac(g.checks) == 0.0
    assert gate.summarize(g.checks)[2] == 0.0


def test_eigs_ratio_is_containment_slack():
    """Only containment enters the ratio; it nears 1 as the lower bound
    erodes towards the reference value and passes 1 when it crosses it."""
    ref = {1: (1.0, 1.0 + 1e-12)}
    mid = 1.0 + 5e-13

    def ratio(lo, up, in_ratio=True):
        g = gate.Gate()
        gate.check_eigs(g, {"rows": [[1, lo, up, mid, True]]}, 1, ref,
                        in_ratio)
        return fail_frac(g.checks), gate.summarize(g.checks)[2]

    ff, r = ratio(1.0 - 1e-9, 1.0 + 1e-9)
    assert ff == 0.0 and r == pytest.approx(0.0, abs=1e-3)
    ff, r = ratio(1.0 - 1e-11, 1.0 + 1e-9)
    assert ff == 0.0 and 0.9 < r < 1.0
    ff, r = ratio(1.0 + 1e-11, 1.0 + 1e-9)
    assert ff > 0.0 and r > 1.0
    assert ratio(1.0 - 1e-11, 1.0 + 1e-9, in_ratio=False) == (0.0, 0.0)


def test_tracer_wraps_every_binding_and_restores():
    halfline, cli = cauchyspec.halfline, cauchyspec.cli
    originals = (halfline.heat_kernel, cauchyspec.quadrature.integrate,
                 halfline.integrate, cli._COMMANDS["heat"])
    tr = Tracer(child.LAYERS, child.HOOKS)
    with tr:
        assert halfline.integrate is not originals[2]
        assert cli._COMMANDS["heat"] is not originals[3]
        halfline.heat_kernel_table(1.0, [0.5, 1.0], [0.5, 1.0])
    assert (halfline.heat_kernel, cauchyspec.quadrature.integrate,
            halfline.integrate, cli._COMMANDS["heat"]) == originals

    spans = tr.summary()
    assert spans["halfline.heat_kernel_table"]["calls"] == 1
    assert spans["halfline.heat_kernel"]["calls"] == 4
    assert spans["quadrature.integrate"]["calls"] == 4
    assert len(tr.sets["halfline.heat_kernel.distinct"]) == 3
    assert tr.counts["quadrature.integrand_points"] > 0
    assert tr.counts["quadrature.integrand_points"] % 15 == 0
    table = spans["halfline.heat_kernel_table"]
    assert 0.0 <= table["self_s"] < table["incl_s"]
    parents = {s[0]: s[3] for s in tr.spans}
    assert tr.spans[parents["halfline.heat_kernel"]][0] == \
        "halfline.heat_kernel_table"


def test_speed_factor_is_time_weighted():
    probe = speed.SpeedProbe()
    assert probe.factor() is None
    ref = speed.REF_PROBE_S
    probe._t0 = 10.0
    # speed 1 for 1 s, then twice the reference speed for 2 s
    probe.samples = [(11.0, ref), (13.0 + ref, ref / 2.0)]
    assert probe.factor() == pytest.approx(5.0 / 3.0)
    assert probe.probe_seconds() == pytest.approx(1.5 * ref)


def test_speed_probe_samples_while_running_and_restores_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe()
    probe.start()
    t = time.perf_counter()
    while time.perf_counter() - t < 0.4:
        sum(range(1000))
    probe.stop()
    assert signal.getsignal(signal.SIGALRM) == before
    assert len(probe.samples) >= 4
    assert 0.0 < probe.probe_seconds() < 0.2
    assert probe.factor() > 0.0 and probe.factor_now() > 0.0
