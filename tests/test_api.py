"""The package exports exactly what the numerical modules declare, and
its error types form one hierarchy."""
import importlib

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
