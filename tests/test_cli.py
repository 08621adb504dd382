import json
import math
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from cauchyspec.checks import CHECKS
from cauchyspec.cli import main, output_schema

SCHEMA = output_schema()


def run_cli(args, tmp_path, name="out"):
    path = tmp_path / name
    code = main([*args, "--output", str(path)])
    return code, path.read_text() if path.exists() else ""


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "cauchyspec.cli", "eigs", "--n-max", "5",
         "--basis", "3"], capture_output=True, text=True)
    assert proc.returncode == 64


@pytest.mark.parametrize("args", [
    ["psi", "--lam", "1", "--xmax", "5", "--frobnicate"],
    ["eigs", "--n-max", "2", "--basis", "10", "--digits", "50"],
    ["eigs", "--n-max", "2", "--basis", "10", "--precision-mode", "machine"],
], ids=["frobnicate", "digits", "precision-mode"])
def test_unknown_flag_rejected(args):
    proc = subprocess.run([sys.executable, "-m", "cauchyspec.cli", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 64


def test_eigs_csv_contains_references(tmp_path):
    code, text = run_cli(["eigs", "--n-max", "5", "--basis", "30",
                          "--method", "both", "--format", "csv"], tmp_path)
    assert code == 0
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert lines[0] == "n,lower,upper,midpoint,reference_contained"
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 5
    assert all(r[4] == "true" for r in rows)
    assert float(rows[0][1]) <= 1.157773883697 <= float(rows[0][2])


def test_eigs_upper_only(tmp_path):
    code, text = run_cli(["eigs", "--n-max", "1", "--basis", "1",
                          "--method", "upper"], tmp_path)
    assert code == 0
    row = [l for l in text.splitlines() if not l.startswith("#")][1].split(",")
    assert float(row[2]) == pytest.approx(4.0 / math.pi, rel=1e-12)


def test_eigs_json_validates_against_schema(tmp_path):
    code, text = run_cli(["eigs", "--n-max", "3", "--basis", "20",
                          "--format", "json"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    jsonschema.validate(doc, SCHEMA)
    assert doc["meta"]["command"] == "eigs"
    assert "timestamp" not in doc["meta"]


def test_byte_determinism(tmp_path):
    args = ["psi", "--lam", "2", "--xmax", "10", "--points", "50",
            "--format", "json"]
    _, a = run_cli(args, tmp_path, "a")
    _, b = run_cli(args, tmp_path, "b")
    assert a == b
    assert "\r" not in a


def test_psi_table_properties(tmp_path):
    code, text = run_cli(["psi", "--lam", "1", "--xmin", "0", "--xmax", "40",
                          "--points", "400"], tmp_path)
    assert code == 0
    rows = [l.split(",") for l in text.splitlines() if not l.startswith("#")][1:]
    xs = np.array([float(r[0]) for r in rows])
    ps = np.array([float(r[1]) for r in rows])
    rem = np.array([float(r[2]) for r in rows])
    assert ps[0] == 0.0                       # x = 0
    assert np.abs(ps).max() <= 1.14
    inner = rem[xs > 0]
    assert np.all(inner > 0)
    assert np.all(np.diff(inner) < 0)         # totally monotone remainder


def test_heat_table_symmetric(tmp_path):
    code, text = run_cli(["heat", "--t", "1", "--xmin", "0.3", "--xmax", "2",
                          "--points", "4", "--format", "json"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    jsonschema.validate(doc, SCHEMA)
    vals = {}
    for x, y, v in doc["rows"]:
        vals[(x, y)] = v
        assert 0.0 <= v <= 1.0 / math.pi + 1e-12   # 1/(pi t) cap at t = 1
    for (x, y), v in vals.items():
        assert v == pytest.approx(vals[(y, x)], abs=1e-12)


def test_exit_table_consistency(tmp_path):
    code, text = run_cli(["exit", "--x", "1", "--tmin", "0.25", "--tmax", "4",
                          "--points", "12", "--format", "json"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    rows = np.array(doc["rows"])
    assert np.all(np.diff(rows[:, 2]) < 0)            # survival decreasing
    assert rows[0, 2] >= rows[-1, 2]
    from cauchyspec import QuadratureSpec, exit_density, integrate
    # survival equals the density complement (quadrature-consistent)
    spec = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9)
    for k in (0, 6, 11):
        t = rows[k, 0]
        mass = integrate(lambda s: exit_density(1.0, s), (1e-12, t), spec)
        assert rows[k, 2] == pytest.approx(1.0 - mass, abs=1e-6)
    # density(1,1)-ish spot value: f_exit at the grid point
    from cauchyspec import f_exit
    k = int(np.argmin(np.abs(rows[:, 0] - 1.0)))
    t = rows[k, 0]
    assert rows[k, 1] == pytest.approx(f_exit(t / 1.0) / t, rel=1e-12)


def test_validate_quick(tmp_path):
    import time
    t0 = time.perf_counter()
    code, text = run_cli(["validate", "--level", "quick", "--format", "json"],
                         tmp_path)
    elapsed = time.perf_counter() - t0
    doc = json.loads(text)
    jsonschema.validate(doc, SCHEMA)
    assert code == 0
    assert doc["passed"] is True
    assert elapsed < 60.0
    assert [c["id"] for c in doc["checks"]] == [
        c.id for c in CHECKS.values() if c.level == "quick"]


def test_timestamp_flag(tmp_path):
    _, a = run_cli(["psi", "--lam", "1", "--xmax", "2", "--points", "5",
                    "--format", "json", "--timestamp"], tmp_path, "ts")
    assert "timestamp" in json.loads(a)["meta"]


def test_bracket_inversion_exit_code(monkeypatch, tmp_path):
    from cauchyspec.errors import BracketInversion
    import cauchyspec.interval

    def broken(n_max, N):
        raise BracketInversion("synthetic")

    monkeypatch.setattr(cauchyspec.interval, "bracket", broken)
    code = main(["eigs", "--n-max", "2", "--basis", "10",
                 "--output", str(tmp_path / "x")])
    assert code == 2
