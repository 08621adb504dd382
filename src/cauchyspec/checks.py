"""Named validation checks: the one definition of every acceptance criterion
that reduces to a measured value against a tolerance.

Each :class:`Check` has an id, a level, a tolerance and a measuring
function, and passes when the measured value is at most the tolerance.
``cauchyspec validate --level quick`` runs the ``quick`` checks and
``--level full`` all of them, in registry order; the acceptance tests run
each check once.  The CLI imports this module only when it validates, and
only the full-level Monte Carlo check imports :mod:`.montecarlo`.
Reference integrals use the package's own adaptive quadrature, so
validating never loads ``scipy.integrate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .halfline import (heat_kernel, heat_kernel_spectral, laplace_psi,
                       pi_transform, psi, remainder, remainder_weight,
                       survival)
from .interval import (bracket, gram_entry, green_moment, mu_asymptotic,
                       q_cutoff, reference_excess)
from .quadrature import GridFunction, QuadratureSpec, integrate
from .specialfun import CATALAN, b_complex, eta

__all__ = ["Check", "CHECKS", "run_checks", "spectral_rel_error",
           "residual_bound", "bump", "bump_transform"]


@dataclass(frozen=True)
class Check:
    """One named criterion.  ``measure`` returns the measured value; a
    statistical check, whose tolerance depends on its sample, has
    ``tolerance`` None and returns a dict with ``measured``, ``tolerance``,
    ``passed`` and ``detail`` instead."""
    id: str
    level: str                     # "quick" | "full"
    tolerance: float | None
    detail: str
    measure: Callable[[], float | dict]

    def run(self) -> dict:
        out = self.measure()
        rec = out if isinstance(out, dict) else {"measured": out}
        measured = float(rec["measured"])
        tolerance = float(rec.get("tolerance", self.tolerance))
        return {"id": self.id,
                "passed": bool(rec.get("passed", measured <= tolerance)),
                "measured": measured, "tolerance": tolerance,
                "detail": rec.get("detail", self.detail)}


#: every check by id, in the order ``validate`` reports them
CHECKS: dict[str, Check] = {}


def _check(cid: str, level: str, tolerance: float | None, detail: str = ""):
    def register(measure):
        CHECKS[cid] = Check(cid, level, tolerance, detail, measure)
        return measure
    return register


def run_checks(level: str) -> list[dict]:
    """Results of the ``quick`` checks, or of every check for ``full``."""
    return [c.run() for c in CHECKS.values()
            if level == "full" or c.level == "quick"]


# ---------------------------------------------------------------------------
# helpers shared with the acceptance tests


def spectral_rel_error(t: float, x: float, y: float) -> float:
    """Relative gap between the eigenfunction expansion (tol 1e-8) and the
    closed form of the killed heat kernel at (t, x, y)."""
    hc = heat_kernel(t, x, y)
    return abs(heat_kernel_spectral(t, x, y, tol=1e-8) - hc) / hc


def residual_bound(n: int) -> float:
    """Criterion 10's bound on the generator residual of tilde_phi_n."""
    mu = mu_asymptotic(n)
    return math.sqrt(1.21 + 8.00 / mu + 13.66 / mu**2) / mu


def bump(lam):
    """The C-infinity bump exp(-1/(1-u^2)), u = 2 lam - 3, on [1, 2]."""
    u = (lam - 1.0) * 2.0 - 1.0
    with np.errstate(divide="ignore", over="ignore"):
        return np.where((u > -1) & (u < 1), np.exp(-1.0 / (1.0 - u * u)), 0.0)


def bump_transform() -> tuple[GridFunction, GridFunction]:
    """The bump on 201 nodes of [1, 2] and its Pi transform at spacing
    pi/24 up to 320."""
    lam = np.linspace(1.0, 2.0, 201)
    f = GridFunction.from_samples(lam, bump(lam))
    dx = math.pi / 24.0
    return f, pi_transform(f, np.arange(dx, 320.0, dx))


def _reference_excess(brackets) -> float:
    """How far the worst of the brackets misses containing its reference."""
    return max(reference_excess(b.n, b.lower, b.upper) for b in brackets)


# ---------------------------------------------------------------------------
# quick checks


@_check("b_at_i", "quick", 1e-11, "log-potential at i vs closed form")
def _b_at_i():
    return abs(b_complex(1j) - complex(math.log(2.0) / 2.0, math.pi / 8.0))


@_check("remainder_origin", "quick", 1e-12, "r(0) = sin(pi/8)")
def _remainder_origin():
    return abs(remainder(0.0) - math.sin(math.pi / 8.0))


@_check("remainder_weight_forms", "quick", 1e-9,
        "two integrand forms of r(1) agree")
def _remainder_weight_forms():
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
    forms = [integrate(lambda t, f=f: remainder_weight(t, f) * np.exp(-t),
                       (0.0, math.inf), spec, points=(0.5, 1, 2, 5))
             for f in ("eta", "ti2")]
    return abs(forms[0] - forms[1])


@_check("laplace_identity", "quick", 1e-8,
        "transform of psi_1 vs closed form at t=0.5,1,2")
def _laplace_identity():
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=8000)
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        quad = integrate(lambda x: psi(1.0, x) * np.exp(-t * x),
                         (0.0, math.inf), spec, points=(1.0 / t,))
        closed = laplace_psi(1.0, complex(t)).real
        worst = max(worst, abs(quad - closed) / abs(closed))
    return worst


@_check("eta_symmetry", "quick", 1e-12, "eta(t)+eta(-t) = log sqrt(1+t^2)")
def _eta_symmetry():
    ts = np.array([0.5, 1.0, 3.0])
    return np.abs(eta(ts) + eta(-ts) - 0.5 * np.log1p(ts * ts)).max()


@_check("cutoff_partition", "quick", 1e-14, "q(x)+q(-x) = 1")
def _cutoff_partition():
    xs = np.linspace(-1, 1, 101)
    return np.abs(q_cutoff(xs) + q_cutoff(-xs) - 1.0).max()


@_check("green_moments", "quick", 1e-13, "G(0,0)=pi/2, G(1,1)=pi/16")
def _green_moments():
    return max(abs(green_moment(0, 0) - math.pi / 2.0),
               abs(green_moment(1, 1) - math.pi / 16.0))


@_check("gram_vs_quadrature", "quick", 1e-10,
        "Gram entries vs direct quadrature")
def _gram_vs_quadrature():
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13)
    worst = 0.0
    for (m, n) in ((1, 1), (1, 3), (2, 4)):
        # f_m f_n = 4 (1+cos x) g_m g_n with g_k = sqrt(2/pi) sin(k(x+pi/2))
        ref = integrate(
            lambda x: (8.0 / math.pi * (1 + np.cos(x))
                       * np.sin(m * (x + math.pi / 2))
                       * np.sin(n * (x + math.pi / 2))),
            (-math.pi / 2, math.pi / 2), spec)
        worst = max(worst, abs(gram_entry(m, n) - ref))
    return worst


@_check("heat_symmetry", "quick", 1e-12, "p_t(x,y) = p_t(y,x)")
def _heat_symmetry():
    return abs(heat_kernel(1.0, 0.3, 2.0) - heat_kernel(1.0, 2.0, 0.3))


@_check("survival_bounds", "quick", 1e-12,
        "2/pi arctan(x/t) <= survival <= 1")
def _survival_bounds():
    s11 = survival(1.0, 1.0)
    return max(2.0 / math.pi * math.atan(1.0) - s11, s11 - 1.0, 0.0)


@_check("brackets_contain_reference_n25", "quick", 0.0,
        "N=25 brackets contain the reference values")
def _brackets_n25():
    return _reference_excess(bracket(5, 25))


# ---------------------------------------------------------------------------
# full checks


@_check("exit_density_mass", "full", 1e-6,
        "exit density integrates to 1 (tail certified)")
def _exit_density_mass():
    # f(s)/s <= e^{C/pi}/pi s^{-3/2}, so the mass beyond T is at most
    # c/sqrt(T), c = 2 e^{C/pi}/pi; T puts that bound at 1e-8
    c_tail = 2.0 * math.exp(CATALAN / math.pi) / math.pi
    horizon = (c_tail / 1e-8) ** 2
    return abs(survival(1.0, horizon)) + c_tail / math.sqrt(horizon)


@_check("heat_mass_balance", "full", 1e-7, "int p_1(1,y) dy = survival(1,1)")
def _heat_mass_balance():
    inner = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-11)
    total = integrate(
        lambda ys: heat_kernel(1.0, 1.0, ys, inner), (0.0, math.inf),
        QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9, max_subdivisions=4000))
    return abs(total - survival(1.0, 1.0))


@_check("spectral_vs_closed", "full", 1e-6,
        "eigenfunction expansion vs closed form at (1,.5,.5)")
def _spectral_vs_closed():
    return spectral_rel_error(1.0, 0.5, 0.5)


@_check("brackets_contain_reference_n150", "full", 0.0,
        "N=150 brackets contain all ten reference values")
def _brackets_n150():
    return _reference_excess(bracket(10, 150))


@_check("plancherel", "full", 1e-2,
        "||Pi f||^2 = (pi/2)||f||^2 for a bump on [1,2]")
def _plancherel():
    f, pif = bump_transform()
    return abs((pif.norm2() ** 2) / (math.pi / 2.0 * f.norm2() ** 2) - 1.0)


@_check("mc_refinement", "full", None)
def _mc_refinement():
    # the upward-biased estimates decrease as dt shrinks (shared paths make
    # this exact), none falls more than 3 standard errors below the closed
    # form, and the excess above it shrinks
    from .montecarlo import McConfig, refinement_study
    s11 = survival(1.0, 1.0)
    cfg = McConfig(paths=100_000, dt=1e-3, horizon=1.0, seed=20270405)
    study = refinement_study(1.0, 1.0, cfg)
    vals = [est.value for _, est in study]
    se = study[-1][1].std_error
    monotone = all(b <= a for a, b in zip(vals, vals[1:]))
    above = all(v >= s11 - 3.0 * se for v in vals)
    toward = max(vals[-1] - s11, 0.0) <= max(vals[0] - s11, 0.0) + 1e-12
    return {"measured": vals[-1] - s11, "tolerance": 3.0 * se,
            "passed": monotone and above and toward,
            "detail": f"survival estimates {[round(v, 5) for v in vals]} "
                      f"vs closed {s11:.5f}"}
