import json
import math
import subprocess
import sys
import warnings

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


def test_cli_import_leaves_heavy_modules_unloaded():
    # the subcommands import what they need; loading the CLI alone keeps
    # every process's start-up cost down
    lazy = ("scipy.integrate", "scipy.fft", "scipy.special", "numpy.fft",
            "numpy.random", "cauchyspec.checks")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, cauchyspec.cli; "
         f"print([m for m in {lazy!r} if m in sys.modules])"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


#: one small call of each subcommand, and of each eigs method
SUBCOMMANDS = [
    ["eigs", "--n-max", "3", "--basis", "8"],
    ["eigs", "--n-max", "3", "--basis", "8", "--method", "upper"],
    ["eigs", "--n-max", "3", "--basis", "8", "--method", "lower"],
    ["psi", "--lam", "1", "--xmax", "5"],
    ["heat", "--t", ".5", "--xmin", ".3", "--xmax", "2", "--points", "3"],
    ["exit", "--x", "1", "--tmin", ".1", "--tmax", "1"],
    ["validate", "--level", "quick"],
]


def test_every_subcommand_loads_no_scipy_subpackage():
    # Cholesky, solve and FFT come from numpy, quadrature and the special
    # functions from the package itself; scipy.special's erfc is read only
    # for r below x = 5e-8, off every default subcommand's path
    proc = subprocess.run(
        [sys.executable, "-c",
         "import contextlib, io, sys, cauchyspec.cli\n"
         "def loaded():\n"
         "    # the public subpackages, scipy.X with X a package\n"
         "    return sorted(m[6:] for m, mod in list(sys.modules.items())\n"
         "                  if m.count('.') == 1 and m.startswith('scipy.')\n"
         "                  and not m[6:].startswith('_')\n"
         "                  and hasattr(mod, '__path__'))\n"
         "seen = [loaded()]\n"
         f"for argv in {SUBCOMMANDS!r}:\n"
         "    with contextlib.redirect_stdout(io.StringIO()):\n"
         "        assert cauchyspec.cli.main(argv) == 0, argv\n"
         "    seen.append(loaded())\n"
         "print(seen)"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == repr([[]] * 8)


def run_refusing(module):
    """Stdout of every subcommand above and the Pi transform on the
    benchmark's transform grid, in a process whose import hook refuses
    ``module`` and its submodules."""
    script = f"""
import contextlib, importlib, io, math, sys
class Refuse:
    def find_spec(self, name, path=None, target=None):
        if (name + ".").startswith({module!r} + "."):
            raise ImportError(name + " refused")
sys.meta_path.insert(0, Refuse())
import numpy as np
import cauchyspec.cli
from cauchyspec import GridFunction, pi_transform
from cauchyspec.checks import bump
for argv in {SUBCOMMANDS!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cauchyspec.cli.main(argv) == 0, argv
lam, dx = np.linspace(1.0, 2.0, 201), math.pi / 24.0
pif = pi_transform(GridFunction.from_samples(lam, bump(lam)),
                   np.arange(dx, 120.0, dx))
try:                                    # the hook does refuse it
    importlib.import_module({module!r})
except ImportError:
    print(pif.values.size, {module!r} in sys.modules, "refused")
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True)
    return proc.stdout.split()


def test_subcommands_and_pi_transform_run_with_scipy_special_refused():
    # no step here reads erfc, the one scipy.special function r uses
    assert run_refusing("scipy.special") == ["916", "False", "refused"]


def test_subcommands_and_pi_transform_run_with_numpy_fft_refused():
    # the Fejer weights are a direct cosine sum, and the remainder tables,
    # whose build takes an FFT, are read from their files
    assert run_refusing("numpy.fft") == ["916", "False", "refused"]


def test_validate_leaves_scipy_integrate_unloaded():
    # the checks take their reference integrals from the package's own
    # quadrature, so validating never pays for importing scipy.integrate
    proc = subprocess.run(
        [sys.executable, "-c",
         "import contextlib, io, sys, cauchyspec.cli\n"
         "with contextlib.redirect_stdout(io.StringIO()):\n"
         "    code = cauchyspec.cli.main(['validate', '--level', 'quick'])\n"
         "print(code, 'scipy.integrate' in sys.modules)"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "0 False"


@pytest.mark.parametrize("argv", [["--help"], ["eigs", "--help"]])
def test_help_does_not_depend_on_the_terminal(argv, monkeypatch, capsys):
    # the help formatter has a fixed width of 78, argparse's width when
    # stdout is no terminal, so COLUMNS does not reach the text
    text = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        text.append(capsys.readouterr().out)
    assert text[0] == text[1]


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "cauchyspec.cli", "eigs", "--n-max", "5",
         "--basis", "3"], capture_output=True, text=True)
    assert proc.returncode == 64
    assert proc.stderr.startswith("error: n_max")


# every rule the CLI's parameters must follow, whether the grid helper or
# the library enforces it; each must exit 64 with the DomainError message
USAGE_CASES = {
    "psi-lam": ["psi", "--lam", "inf", "--xmax", "5"],
    "psi-xmax": ["psi", "--lam", "1", "--xmax", "inf"],
    "heat-t": ["heat", "--t", "inf", "--xmin", ".3", "--xmax", "2",
               "--points", "2"],
    "exit-x": ["exit", "--x", "inf", "--tmin", ".1", "--tmax", "1"],
    "exit-tmax": ["exit", "--x", "1", "--tmin", ".1", "--tmax", "inf"],
    "eigs-n-max-0": ["eigs", "--n-max", "0", "--basis", "5",
                     "--method", "upper"],
    "eigs-n-max-over-basis": ["eigs", "--n-max", "5", "--basis", "3"],
    "eigs-lower-n-max-over-basis": ["eigs", "--n-max", "4", "--basis", "3",
                                    "--method", "lower"],
    "eigs-basis-0": ["eigs", "--n-max", "1", "--basis", "0"],
    "psi-lam-0": ["psi", "--lam", "0", "--xmax", "5"],
    "psi-xmin-negative": ["psi", "--lam", "1", "--xmin", "-1", "--xmax", "5"],
    "psi-empty-range": ["psi", "--lam", "1", "--xmin", "5", "--xmax", "5"],
    "psi-points-1": ["psi", "--lam", "1", "--xmax", "5", "--points", "1"],
    "psi-points-negative": ["psi", "--lam", "1", "--xmax", "5",
                            "--points", "-1"],
    "psi-xmax-nan": ["psi", "--lam", "1", "--xmax", "nan"],
    "heat-t-0": ["heat", "--t", "0", "--xmin", ".3", "--xmax", "2"],
    "heat-xmin-0": ["heat", "--t", "1", "--xmin", "0", "--xmax", "2"],
    "heat-reversed": ["heat", "--t", "1", "--xmin", "2", "--xmax", "1"],
    "heat-points-1": ["heat", "--t", "1", "--xmin", ".3", "--xmax", "2",
                      "--points", "1"],
    "heat-xmin-nan": ["heat", "--t", "1", "--xmin", "nan", "--xmax", "2"],
    "exit-x-0": ["exit", "--x", "0", "--tmin", ".1", "--tmax", "1"],
    "exit-tmin-0": ["exit", "--x", "1", "--tmin", "0", "--tmax", "1"],
    "exit-reversed": ["exit", "--x", "1", "--tmin", "1", "--tmax", ".1"],
    "exit-points-1": ["exit", "--x", "1", "--tmin", ".1", "--tmax", "1",
                      "--points", "1"],
    "exit-tmin-nan": ["exit", "--x", "1", "--tmin", "nan", "--tmax", "1"],
    # lam*x and t/x that overflow: rejected by the finite rule, no warning
    "psi-lam-x-overflow": ["psi", "--lam", "1e300", "--xmax", "1e10"],
    "exit-t-over-x-overflow": ["exit", "--x", "1e-300", "--tmin", "1e-300",
                               "--tmax", "1e300", "--points", "3"],
    "exit-subnormal-x": ["exit", "--x", "1e-320", "--tmin", "1e-5",
                         "--tmax", "1", "--points", "3"],
    # 1/(pi t) overflows on the diagonal: JSON has no inf (CSV writes it)
    "heat-json-inf": ["heat", "--t", "1e-320", "--xmin", "1", "--xmax", "2",
                      "--points", "2", "--format", "json"],
}


@pytest.mark.parametrize("args", USAGE_CASES.values(), ids=USAGE_CASES)
def test_domain_error_is_usage_error(args, tmp_path, capsys):
    # rejected before any output: no traceback, no warning, no file
    path = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([*args, "--output", str(path)])
    assert code == 64
    assert capsys.readouterr().err.startswith("error:")
    assert not path.exists()


def test_csv_writes_an_infinite_result(tmp_path):
    code, text = run_cli(["heat", "--t", "1e-320", "--xmin", "1", "--xmax",
                          "2", "--points", "2"], tmp_path)
    assert code == 0
    assert text.splitlines()[4:] == ["1.0,1.0,inf", "1.0,2.0,3.18e-321",
                                     "2.0,1.0,3.18e-321", "2.0,2.0,inf"]


@pytest.mark.parametrize("args", [
    ["psi", "--lam", "1", "--xmax", "5", "--frobnicate"],
    ["eigs", "--n-max", "2", "--basis", "10", "--digits", "50"],
    ["eigs", "--n-max", "2", "--basis", "10", "--precision-mode", "machine"],
], ids=["frobnicate", "digits", "precision-mode"])
def test_unknown_flag_rejected(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 64
    assert "unrecognized arguments" in capsys.readouterr().err


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


@pytest.mark.parametrize("method", ["upper", "lower"])
def test_eigs_one_side(method, tmp_path):
    args = ["eigs", "--n-max", "10", "--basis", "25", "--format", "json"]
    _, both = run_cli(args, tmp_path, "both")
    code, text = run_cli([*args, "--method", method], tmp_path, method)
    assert code == 0
    rows, ref = json.loads(text)["rows"], json.loads(both)["rows"]
    col, other = (2, 1) if method == "upper" else (1, 2)
    assert [r[col] for r in rows] == [r[col] for r in ref]
    # the side not computed and the midpoint are empty; containment holds
    assert all(r[other] is None and r[3] is None and r[4] is True
               for r in rows)


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


def test_psi_remainder_at_origin(tmp_path):
    # psi vanishes at x = 0, but r(0) = sin(pi/8) is reported there
    code, text = run_cli(["psi", "--lam", "1", "--xmin", "0", "--xmax", "1",
                          "--points", "3", "--format", "csv"], tmp_path)
    assert code == 0
    rows = [l for l in text.splitlines() if not l.startswith("#")]
    assert rows[1] == "0.0,0.0,0.3826834323650898"


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


def test_heat_tiny_t_finite(tmp_path):
    # t*t underflows to 0 on the diagonal and (x-y)^2 overflows far off it;
    # the kernel stays finite and at most 1/(pi t), with no numpy warning
    t = 1e-300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli(["heat", "--t", repr(t), "--xmin", "1",
                              "--xmax", "1e300", "--points", "3",
                              "--format", "json"], tmp_path)
    assert code == 0
    rows = json.loads(text)["rows"]
    assert len(rows) == 9
    for x, y, v in rows:
        assert math.isfinite(v) and 0.0 <= v <= 1.0 / (math.pi * t)
        if x == y:
            assert v == 1.0 / (math.pi * t)


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
