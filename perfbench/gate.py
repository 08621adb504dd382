"""Correctness gate: seed-independent invariants checked on every result.

Each check records ``measured`` and ``tolerance`` and passes when
``measured <= tolerance`` (NaN fails).  Tolerances are the ones the package's
acceptance suite and validation checks already use; none is loosened here.

* ``fail_frac`` is failed checks / attempted checks.  A nonzero CLI exit code,
  an exception raised by a step (typed package errors and ``NonConvergence``
  included) or a crashed repetition each count as a failed check.
* ``check_ratio_max`` is the largest measured / tolerance over the checks
  with a positive tolerance whose measured value is an error of the program,
  deterministic for given inputs.  Checks kept out of it (``in_ratio=False``)
  still pass or fail: the Monte Carlo check, which is statistical, and the
  localization of the eigenvalues, whose value is a property of the exact
  eigenvalues that no error of the program could move.

The functions take plain data (parsed CLI documents, numbers), so a test can
feed them a corrupted result without running the package.
"""

from __future__ import annotations

import math

import jsonschema

SQ2 = math.sqrt(2.0)
SIN_PI8 = math.sin(math.pi / 8.0)
#: documented uniform bound on |psi| (tests/test_halfline.py)
PSI_SUP = 1.14


class Gate:
    def __init__(self):
        self.checks: list[dict] = []

    def check(self, cid, measured, tolerance, in_ratio=True, detail=""):
        measured = float(measured)
        ok = measured <= tolerance            # False for NaN
        self.checks.append({"id": cid, "measured": measured,
                            "tolerance": float(tolerance), "passed": bool(ok),
                            "in_ratio": in_ratio, "detail": detail})
        return ok

    def require(self, cid, ok, detail=""):
        return self.check(cid, 0.0 if ok else 1.0, 0.0, detail=detail)


def summarize(checks):
    """(attempted, failed, check_ratio_max) over a list of check records."""
    failed = sum(1 for c in checks if not c["passed"])
    ratios = [c["measured"] / c["tolerance"] for c in checks
              if c["tolerance"] > 0 and c["in_ratio"]
              and math.isfinite(c["measured"])]
    return len(checks), failed, max(ratios, default=0.0)


def check_schema(gate, cid, doc, schema):
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        return gate.require(cid, False, exc.message)
    return gate.require(cid, True)


def mu_asymptotic(n):
    return n * math.pi / 2.0 - math.pi / 8.0


def check_eigs(gate, doc, n_max, reference, in_ratio=True):
    """Brackets from ``eigs --method both``: one row per n, lower <= upper,
    containment of the reference brackets, and the localization of
    criterion 9 (n |midpoint - mu_n| <= 1, |midpoint - mu_n| <= pi/10 for
    n >= 4), which stays out of the ratio.  Returns the largest bracket width.

    Containment is checked in the equivalent form |mid - ref_mid| <=
    (width - ref_width) / 2, so that its ratio says how much of the bracket's
    slack around the reference is used: 1 - 2 min(margin) / (sum of the two
    margins), which reaches 1 as either bound erodes to the reference value.
    ``in_ratio=False`` keeps the whole step out of the ratio."""
    rows = doc.get("rows", [])
    gate.require("eigs.rows", [r[0] for r in rows] == list(range(1, n_max + 1)))
    width = 0.0
    for n, lo, up, mid, _ in rows:
        gate.check(f"eigs.ordered.{n}", lo - up, 0.0)
        ref = reference.get(n)
        if ref is not None:
            gate.check(f"eigs.contains.{n}",
                       abs((lo + up) / 2.0 - (ref[0] + ref[1]) / 2.0),
                       ((up - lo) - (ref[1] - ref[0])) / 2.0, in_ratio)
        gate.check(f"eigs.localization.{n}", n * abs(mid - mu_asymptotic(n)),
                   1.0, in_ratio=False)
        if n >= 4:
            gate.check(f"eigs.window.{n}", abs(mid - mu_asymptotic(n)),
                       math.pi / 10.0, in_ratio=False)
        width = max(width, up - lo)
    return width


def check_heat(gate, doc, t):
    """Heat table on xs x xs: symmetric to 1e-12 and 0 <= p <= p_free."""
    rows = doc.get("rows", [])
    table = {(x, y): p for x, y, p in rows}
    gate.require("heat.rows", len(rows) > 0 and len(table) == len(rows))
    asym = max((abs(p - table.get((y, x), math.nan)) for (x, y), p
                in table.items()), default=math.nan)
    gate.check("heat.symmetry", asym, 1e-12)
    low = max((-p for p in table.values()), default=math.nan)
    gate.check("heat.nonnegative", low, 0.0)
    over = max((p - t / (math.pi * (t * t + (x - y) ** 2))
                for (x, y), p in table.items()), default=math.nan)
    gate.check("heat.below_free_kernel", over, 0.0)


def check_exit(gate, doc, x):
    """Exit law: density >= 0, survival non-increasing and between
    (2/pi) arctan(x/t) and 1 (the 1e-12 of the survival_bounds check)."""
    rows = doc.get("rows", [])
    gate.require("exit.rows", len(rows) >= 2)
    gate.check("exit.density_nonnegative",
               max((-d for _, d, _ in rows), default=math.nan), 0.0)
    surv = [s for _, _, s in rows]
    gate.check("exit.survival_monotone",
               max((b - a for a, b in zip(surv, surv[1:])), default=math.nan),
               0.0)
    gate.check("exit.survival_bounds",
               max((max(2.0 / math.pi * math.atan(x / t) - s, s - 1.0, 0.0)
                    for t, _, s in rows), default=math.nan), 1e-12)


def check_psi(gate, doc, lam):
    """psi grid: |psi| <= PSI_SUP; for x > 0 (the CLI reports 0 at x = 0) the
    remainder column is in [0, sin(pi/8)], non-increasing (to 1e-18) and
    below sqrt(2)/(2 pi (lam x)^2)."""
    rows = doc.get("rows", [])
    gate.require("psi.rows", len(rows) >= 2)
    gate.check("psi.sup", max((abs(v) - PSI_SUP for _, v, _ in rows),
                              default=math.nan), 0.0)
    rem = [r for x, _, r in rows if x > 0]
    gate.check("psi.remainder_range",
               max((max(-r, r - SIN_PI8) for r in rem), default=math.nan), 0.0)
    gate.check("psi.remainder_monotone",
               max((b - a for a, b in zip(rem, rem[1:])), default=math.nan),
               1e-18)
    gate.check("psi.remainder_decay",
               max((r - SQ2 / (2.0 * math.pi * (lam * x) ** 2)
                    for x, _, r in rows if x > 0), default=math.nan), 0.0)


def check_validate(gate, doc):
    """Every check the CLI's validation suite reports, at its own tolerance,
    plus the suite's overall flag."""
    gate.require("validate.passed", doc.get("passed") is True)
    for c in doc.get("checks", []):
        gate.check(f"validate.{c['id']}", c["measured"], c["tolerance"])


def residual_bound(n):
    """Criterion 10: ||(generator + mu_n) tilde_phi_n|| <= this."""
    mu = mu_asymptotic(n)
    return math.sqrt(1.21 + 8.00 / mu + 13.66 / mu**2) / mu + 1e-4


def check_residual(gate, n, value):
    gate.check(f"residual_norm.{n}", value, residual_bound(n))


def check_spectral(gate, key, closed, spectral):
    """Closed-form and spectral heat kernels agree to relative 1e-6."""
    gate.check(f"spectral_vs_closed.{key}", abs(spectral - closed) / closed,
               1e-6)


def check_mc(gate, values, std_error, closed):
    """Refinement study (criterion 12): estimates non-increasing as the step
    shrinks, all within 3 standard errors above the closed form, and the
    excess over it shrinking."""
    gate.require("mc.monotone", all(b <= a + 1e-12
                                    for a, b in zip(values, values[1:])))
    gate.check("mc.within_3se", max(closed - v for v in values),
               3.0 * std_error, in_ratio=False)
    gate.require("mc.toward_closed",
                 max(values[-1] - closed, 0.0)
                 <= max(values[0] - closed, 0.0) + 1e-12)


def check_plancherel(gate, ratio):
    """||Pi f||^2 / ((pi/2) ||f||^2) within 1e-2 of 1 (criterion 7)."""
    gate.check("plancherel", abs(ratio - 1.0), 1e-2)
