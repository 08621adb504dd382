"""Spectral toolkit for the one-dimensional Cauchy process killed outside a
domain: generalized eigenfunctions, heat kernel and exit-time law on the
half-line (0, inf), and certified two-sided eigenvalue brackets with
eigenfunction approximations on the interval (-1, 1).  Invalid arguments
raise DomainError, a ValueError, by the input rules of :mod:`.errors`.
"""

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
from .montecarlo import (McConfig, McEstimate, estimate_survival,
                         refinement_study, sample_cauchy_increments)
from .quadrature import GridFunction, QuadratureSpec, integrate, integrate_many
from .specialfun import CATALAN, b_complex, eta, ti2

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
    "McConfig", "McEstimate", "sample_cauchy_increments", "estimate_survival",
    "refinement_study",
]
