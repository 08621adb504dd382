"""Spectral toolkit for the one-dimensional Cauchy process killed outside a
domain: generalized eigenfunctions, heat kernel and exit-time law on the
half-line (0, inf), and certified two-sided eigenvalue brackets with
eigenfunction approximations on the interval (-1, 1).  Invalid arguments
raise DomainError, a ValueError, by the input rules of :mod:`.errors`.

The package imports every module whose names it re-exports except the
Monte Carlo cross-check, :mod:`.montecarlo`, which only ``validate --level
full`` and its own callers use.  ``cauchyspec.montecarlo`` is bound to a lazily
loaded module, registered in ``sys.modules`` at import, which executes on
its first attribute access; the five names it exports resolve through it
on first use.  It runs its batches on plain ``threading`` workers, so it
loads no thread-pool module (``concurrent.futures`` and the ``logging`` it
imports) when it does execute.
"""

import importlib.util
import sys

__version__ = "0.1.0"

from .errors import (BracketInversion, CauchySpecError, DegeneratePencil,
                     DomainError, GridTooCoarse, NonConvergence,
                     NotPositiveDefinite, PoleError)
from .halfline import (exit_density, exit_law, f_exit, heat_kernel,
                       heat_kernel_spectral, heat_kernel_table, laplace_psi,
                       pi_transform, psi, remainder, survival)
from .interval import (REFERENCE_BRACKETS, EigBound, assemble_intermediate,
                       assemble_rayleigh_ritz, bracket, generator_apply,
                       green_moment, lower_bounds, mu_asymptotic, q_cutoff,
                       residual_norm, rr_eigenfunction, tilde_phi,
                       tilde_phi_norm2, upper_bounds)
from .linalg import generalized_sym_eig, solve_spd, sym_eig
from .quadrature import GridFunction, QuadratureSpec, integrate, integrate_many
from .specialfun import CATALAN, b_complex, eta, ti2

#: what :mod:`.montecarlo` exports, resolved on first use
_MONTECARLO_NAMES = ("McConfig", "McEstimate", "sample_cauchy_increments",
                     "estimate_survival", "refinement_study")

__all__ = [
    "__version__",
    # errors
    "CauchySpecError", "NonConvergence", "DomainError", "PoleError",
    "NotPositiveDefinite", "GridTooCoarse", "BracketInversion",
    "DegeneratePencil",
    # numerics
    "QuadratureSpec", "GridFunction", "integrate", "integrate_many",
    "sym_eig", "solve_spd", "generalized_sym_eig",
    # special functions
    "CATALAN", "ti2", "eta", "b_complex",
    # half-line
    "remainder", "psi", "laplace_psi", "f_exit", "exit_density", "survival",
    "heat_kernel", "heat_kernel_spectral", "heat_kernel_table", "exit_law",
    "pi_transform",
    # interval
    "REFERENCE_BRACKETS", "EigBound", "mu_asymptotic", "q_cutoff",
    "tilde_phi", "generator_apply", "residual_norm", "tilde_phi_norm2",
    "green_moment", "assemble_rayleigh_ritz", "upper_bounds",
    "assemble_intermediate", "lower_bounds", "bracket", "rr_eigenfunction",
    # Monte Carlo
    *_MONTECARLO_NAMES,
]


def _lazy_submodule(name):
    """The submodule ``name`` in ``sys.modules``, executed on first
    attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


montecarlo = _lazy_submodule("montecarlo")


def __getattr__(name):
    if name in _MONTECARLO_NAMES:
        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
