"""The package exports exactly what the numerical modules declare, and
its error types form one hierarchy."""
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import cauchyspec
from cauchyspec import errors

MODULES = ("quadrature", "linalg", "specialfun", "halfline", "interval",
           "montecarlo")


def test_package_all_is_union_of_module_all():
    declared = set()
    for name in MODULES:
        mod = importlib.import_module(f"cauchyspec.{name}")
        for entry in mod.__all__:
            assert hasattr(mod, entry), f"{name}.{entry}"
        declared.update(mod.__all__)
    error_types = {n for n, v in vars(errors).items()
                   if isinstance(v, type) and issubclass(v, Exception)}
    expected = declared | error_types | {"__version__"}
    assert sorted(cauchyspec.__all__) == sorted(expected)
    assert all(hasattr(cauchyspec, entry) for entry in cauchyspec.__all__)


def test_public_names_resolve_in_a_fresh_process():
    # the Monte Carlo names load their module on first use, through the
    # package's __getattr__; a fresh process sees that first use
    script = """
import cauchyspec
names = cauchyspec.__all__
assert "McConfig" in dir(cauchyspec) and "montecarlo" in dir(cauchyspec)
assert not hasattr(cauchyspec, "nope")
try:
    cauchyspec.nope
except AttributeError as exc:
    assert str(exc) == "module 'cauchyspec' has no attribute 'nope'", exc
resolved = [n for n in names if getattr(cauchyspec, n, None) is not None]
star = {}
exec("from cauchyspec import *", star)
import cauchyspec.montecarlo as mc
print(resolved == names, sorted(set(star) - {"__builtins__"}) == sorted(names),
      cauchyspec.montecarlo is mc, type(mc).__name__,
      cauchyspec.McConfig is mc.McConfig,
      cauchyspec.refinement_study is mc.refinement_study)
"""
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["True", "True", "True", "module", "True",
                                   "True"]


def test_error_hierarchy():
    # every check of a caller-supplied value raises DomainError, which an
    # ``except ValueError`` still catches
    assert issubclass(errors.DomainError, ValueError)
    assert issubclass(errors.DomainError, errors.CauchySpecError)
    assert issubclass(errors.PoleError, errors.DomainError)
    error_types = [v for v in vars(errors).values()
                   if isinstance(v, type) and issubclass(v, Exception)
                   and not issubclass(v, Warning)]
    assert errors.NonConvergence in error_types
    assert all(issubclass(e, errors.CauchySpecError) for e in error_types)


def test_every_data_file_is_package_data():
    # a wheel holds the modules and only the data files that package-data
    # names, while tests run from src/ see every file: the coefficient
    # tables must not go missing from an install
    tomllib = pytest.importorskip("tomllib")      # Python 3.11 on
    root = Path(__file__).resolve().parents[1]
    globs = tomllib.loads((root / "pyproject.toml").read_text())[
        "tool"]["setuptools"]["package-data"]["cauchyspec"]
    pkg = root / "src" / "cauchyspec"
    data = {p for p in pkg.rglob("*")
            if p.is_file() and p.suffix not in (".py", ".pyc")}
    assert any(p.suffix == ".npy" for p in data)
    assert data <= {p for g in globs for p in pkg.glob(g)}
