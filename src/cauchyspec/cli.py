"""Command-line front end.

Subcommands evaluate the public quantities onto grids (``psi``, ``heat``,
``exit``), run the bound pipeline (``eigs``), or run the validation suite
(``validate``); results are emitted as CSV or JSON with a metadata block
echoing the configuration.  Output is byte-deterministic for a fixed
configuration: floats are serialized in shortest-round-trip decimal with '.'
as the separator, lines end in a bare newline, and timestamps are only
included when explicitly requested with --timestamp.

Exit codes: 0 success, 1 check failure, 2 mathematical inconsistency
(bracket inversion), 3 precision exhaustion (no current computation raises
it: all assembly is float64 without cancellation), 64 usage error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import BracketInversion, PrecisionExhausted
from .precision import PrecisionContext, default_digits

USAGE_EXIT = 64


def output_schema() -> dict:
    """The JSON schema every CLI JSON document validates against."""
    import importlib.resources as resources
    ref = resources.files("cauchyspec").joinpath("schema/output.schema.json")
    return json.loads(ref.read_text())


@dataclass
class RunConfig:
    """Validated parameters of one CLI invocation."""
    command: str
    params: dict
    fmt: str = "csv"
    output: str = "-"
    timestamp: bool = False
    digits: int = field(default_factory=default_digits)


class _Parser(argparse.ArgumentParser):
    def error(self, message):     # usage errors exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_EXIT)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if v is None:
        return ""
    return str(v)


def _meta(cfg: RunConfig) -> dict:
    meta = {"tool": "cauchyspec", "version": __version__,
            "command": cfg.command, "config": cfg.params}
    if cfg.timestamp:
        meta["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return meta


def _emit(cfg: RunConfig, payload: dict) -> None:
    if cfg.fmt == "json":
        text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    else:
        lines = [f"# cauchyspec {__version__}",
                 f"# command: {cfg.command}",
                 f"# config: {json.dumps(cfg.params, sort_keys=True)}"]
        if cfg.timestamp:
            lines.append(f"# timestamp: {payload['meta']['timestamp']}")
        if "columns" in payload:
            lines.append(",".join(payload["columns"]))
            for row in payload["rows"]:
                lines.append(",".join(_fmt(v) for v in row))
        else:
            lines.append("id,passed,measured,tolerance,detail")
            for c in payload["checks"]:
                lines.append(",".join(_fmt(c[k]) for k in
                             ("id", "passed", "measured", "tolerance", "detail")))
        text = "\n".join(lines) + "\n"
    if cfg.output == "-":
        sys.stdout.write(text)
    else:
        with open(cfg.output, "w", newline="\n") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_eigs(cfg: RunConfig) -> int:
    from .interval import REFERENCE_BRACKETS, bracket, lower_bounds, upper_bounds
    p = cfg.params
    n_max, N, method = p["n_max"], p["basis"], p["method"]
    ctx = PrecisionContext(cfg.digits, p.get("precision_mode", "extended"))
    cols = ["n", "lower", "upper", "midpoint", "reference_contained"]
    rows = []
    if method == "both":
        brackets = bracket(n_max, N, ctx)
        for b in brackets:
            ref = REFERENCE_BRACKETS.get(b.n)
            contained = (b.lower <= ref[0] and ref[1] <= b.upper) if ref else None
            rows.append([b.n, b.lower, b.upper, b.midpoint, contained])
    elif method == "upper":
        for n, up in enumerate(upper_bounds(N, n_max, ctx), start=1):
            ref = REFERENCE_BRACKETS.get(n)
            rows.append([n, None, float(up), None,
                         (ref[1] <= up) if ref else None])
    else:
        for n, lo in enumerate(lower_bounds(N, n_max), start=1):
            ref = REFERENCE_BRACKETS.get(n)
            rows.append([n, float(lo), None, None,
                         (lo <= ref[0]) if ref else None])
    _emit(cfg, {"meta": _meta(cfg), "columns": cols, "rows": rows})
    return 0


def cmd_psi(cfg: RunConfig) -> int:
    from .halfline import psi, remainder
    p = cfg.params
    xs = np.linspace(p["xmin"], p["xmax"], p["points"])
    lam = p["lam"]
    vals = psi(lam, xs)
    rem = np.where(xs > 0, remainder(np.maximum(lam * xs, 0.0)), 0.0)
    rows = [[float(x), float(v), float(r)] for x, v, r in zip(xs, vals, rem)]
    _emit(cfg, {"meta": _meta(cfg), "columns": ["x", "psi", "remainder"],
                "rows": rows})
    return 0


def cmd_heat(cfg: RunConfig) -> int:
    from .halfline import heat_kernel_table
    p = cfg.params
    xs = np.linspace(p["xmin"], p["xmax"], p["points"])
    tab = heat_kernel_table(p["t"], xs, xs)
    rows = [[float(x), float(y), float(tab.values[i, j])]
            for i, x in enumerate(tab.xs) for j, y in enumerate(tab.ys)]
    _emit(cfg, {"meta": _meta(cfg), "columns": ["x", "y", "p_killed"],
                "rows": rows})
    return 0


def cmd_exit(cfg: RunConfig) -> int:
    from .halfline import exit_law
    p = cfg.params
    ts = np.linspace(p["tmin"], p["tmax"], p["points"])
    law = exit_law(p["x"], ts)
    rows = [[float(t), float(d), float(s)]
            for t, d, s in zip(law.ts, law.density, law.survival)]
    _emit(cfg, {"meta": _meta(cfg), "columns": ["t", "density", "survival"],
                "rows": rows})
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    checks = run_checks(cfg.params["level"])
    passed = all(c["passed"] for c in checks)
    _emit(cfg, {"meta": _meta(cfg), "level": cfg.params["level"],
                "passed": passed, "checks": checks})
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# named validation checks


def _check(cid, measured, tolerance, detail=""):
    return {"id": cid, "passed": bool(measured <= tolerance),
            "measured": float(measured), "tolerance": float(tolerance),
            "detail": detail}


def run_checks(level: str) -> list[dict]:
    import scipy.integrate

    from .halfline import (exit_mass, heat_kernel, heat_kernel_spectral,
                           laplace_psi, psi, remainder, remainder_weight,
                           survival)
    from .interval import (REFERENCE_BRACKETS, bracket, gram_entry,
                           green_moment, q_cutoff)
    from .quadrature import GridFunction, QuadratureSpec, integrate
    from .specialfun import b_complex, eta

    out = []

    val = b_complex(1j)
    out.append(_check("b_at_i",
                      abs(val - complex(math.log(2.0) / 2.0, math.pi / 8.0)),
                      1e-11, "log-potential at i vs closed form"))

    out.append(_check("remainder_origin",
                      abs(remainder(0.0) - math.sin(math.pi / 8.0)), 1e-12,
                      "r(0) = sin(pi/8)"))

    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
    forms = [integrate(lambda t, f=f: remainder_weight(t, f) * np.exp(-t),
                       (0.0, math.inf), spec, points=(0.5, 1, 2, 5))
             for f in ("eta", "ti2")]
    out.append(_check("remainder_weight_forms", abs(forms[0] - forms[1]),
                      1e-9, "two integrand forms of r(1) agree"))

    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        quad = integrate(lambda x: psi(1.0, x) * np.exp(-t * x),
                         (0.0, math.inf), spec, points=(1.0 / t,))
        closed = laplace_psi(1.0, complex(t)).real
        worst = max(worst, abs(quad - closed) / abs(closed))
    out.append(_check("laplace_identity", worst, 1e-8,
                      "transform of psi_1 vs closed form at t=0.5,1,2"))

    ts = np.array([0.5, 1.0, 3.0])
    sym_err = np.abs(eta(ts) + eta(-ts) - 0.5 * np.log1p(ts * ts)).max()
    out.append(_check("eta_symmetry", sym_err, 1e-12,
                      "eta(t)+eta(-t) = log sqrt(1+t^2)"))

    xs = np.linspace(-1, 1, 101)
    out.append(_check("cutoff_partition",
                      np.abs(q_cutoff(xs) + q_cutoff(-xs) - 1.0).max(), 1e-14,
                      "q(x)+q(-x) = 1"))

    out.append(_check("green_moments",
                      max(abs(green_moment(0, 0) - math.pi / 2.0),
                          abs(green_moment(1, 1) - math.pi / 16.0)), 1e-13,
                      "G(0,0)=pi/2, G(1,1)=pi/16"))

    worst = 0.0
    for (m, n) in ((1, 1), (1, 3), (2, 4)):
        # f_m f_n = 4 (1+cos x) g_m g_n with g_k = sqrt(2/pi) sin(k(x+pi/2))
        ref = scipy.integrate.quad(
            lambda x: (8.0 / math.pi * (1 + math.cos(x))
                       * math.sin(m * (x + math.pi / 2))
                       * math.sin(n * (x + math.pi / 2))),
            -math.pi / 2, math.pi / 2, limit=200)[0]
        worst = max(worst, abs(gram_entry(m, n) - ref))
    out.append(_check("gram_vs_quadrature", worst, 1e-10,
                      "Gram entries vs direct quadrature"))

    out.append(_check("heat_symmetry",
                      abs(heat_kernel(1.0, 0.3, 2.0) - heat_kernel(1.0, 2.0, 0.3)),
                      1e-12, "p_t(x,y) = p_t(y,x)"))

    s11 = survival(1.0, 1.0)
    lo = 2.0 / math.pi * math.atan(1.0)
    out.append(_check("survival_bounds", max(lo - s11, s11 - 1.0, 0.0), 1e-12,
                      "2/pi arctan(x/t) <= survival <= 1"))

    n_small = 5
    brs = bracket(n_small, 25)
    worst = 0.0
    for b in brs:
        rl, ru = REFERENCE_BRACKETS[b.n]
        worst = max(worst, rl - b.upper, b.lower - ru, 0.0)
    out.append(_check("brackets_contain_reference_n25", worst, 0.0,
                      "N=25 brackets contain the reference values"))

    if level == "quick":
        return out

    mass, tail = exit_mass(1.0, tol=1e-7)
    out.append(_check("exit_density_mass", abs(mass - 1.0) + tail, 1e-6,
                      "exit density integrates to 1 (tail certified)"))

    big = integrate(lambda y: np.array([heat_kernel(1.0, 1.0, float(v), QuadratureSpec(abs_tol=1e-12, rel_tol=1e-11))
                                        for v in np.atleast_1d(y)]),
                    (0.0, math.inf), QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9,
                                                    max_subdivisions=4000))
    out.append(_check("heat_mass_balance", abs(big - s11), 1e-7,
                      "int p_1(1,y) dy = survival(1,1)"))

    hc = heat_kernel(1.0, 0.5, 0.5)
    hs = heat_kernel_spectral(1.0, 0.5, 0.5, tol=1e-8)
    out.append(_check("spectral_vs_closed", abs(hs - hc) / hc, 1e-6,
                      "eigenfunction expansion vs closed form at (1,.5,.5)"))

    brs = bracket(10, 150)
    worst = 0.0
    for b in brs:
        rl, ru = REFERENCE_BRACKETS[b.n]
        worst = max(worst, rl - b.upper, b.lower - ru, 0.0)
    out.append(_check("brackets_contain_reference_n150", worst, 0.0,
                      "N=150 brackets contain all ten reference values"))

    from .halfline import pi_transform
    lam = np.linspace(1.0, 2.0, 201)
    u = (lam - 1.0) * 2.0 - 1.0
    with np.errstate(divide="ignore", over="ignore"):
        fv = np.where((u > -1) & (u < 1), np.exp(-1.0 / (1.0 - u * u)), 0.0)
    f = GridFunction.from_samples(lam, fv)
    dx = math.pi / 24.0
    xg = np.arange(dx, 320.0, dx)
    pif = pi_transform(f, xg)
    ratio = (pif.norm2() ** 2) / (math.pi / 2.0 * f.norm2() ** 2)
    out.append(_check("plancherel", abs(ratio - 1.0), 1e-2,
                      "||Pi f||^2 = (pi/2)||f||^2 for a bump on [1,2]"))

    from .montecarlo import McConfig, refinement_study
    cfgmc = McConfig(paths=100_000, dt=1e-3, horizon=1.0, seed=20270405)
    study = refinement_study(1.0, 1.0, cfgmc)
    vals = [est.value for _, est in study]
    se = study[-1][1].std_error
    monotone = all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))
    above = all(v >= s11 - 3.0 * se for v in vals)
    toward = max(vals[-1] - s11, 0.0) <= max(vals[0] - s11, 0.0) + 1e-12
    out.append({"id": "mc_refinement",
                "passed": bool(monotone and above and toward),
                "measured": float(vals[-1] - s11), "tolerance": float(3.0 * se),
                "detail": f"survival estimates {[round(v, 5) for v in vals]} "
                          f"vs closed {s11:.5f}"})
    return out


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    ap = _Parser(prog="cauchyspec",
                 description="Spectral toolkit for the killed Cauchy process: "
                             "half-line eigenfunctions and kernels, interval "
                             "eigenvalue brackets, validation suite.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default="-", help="file path or - for stdout")
        p.add_argument("--digits", type=int, default=None,
                       help="accepted for compatibility (>= 15; default "
                            "CAUCHYSPEC_DIGITS or 50); no longer changes "
                            "the numbers")
        p.add_argument("--timestamp", action="store_true",
                       help="include a timestamp (breaks byte-determinism)")

    p = sub.add_parser("eigs", help="two-sided eigenvalue bounds")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--basis", type=int, required=True)
    p.add_argument("--method", choices=("upper", "lower", "both"),
                   default="both")
    p.add_argument("--precision-mode", choices=("extended", "machine"),
                   default="extended",
                   help="accepted for compatibility; both modes use the "
                        "same float64 assembly and give the same numbers")
    common(p)

    p = sub.add_parser("psi", help="generalized eigenfunction on a grid")
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--xmin", type=float, default=0.0)
    p.add_argument("--xmax", type=float, required=True)
    p.add_argument("--points", type=int, default=200)
    common(p)

    p = sub.add_parser("heat", help="killed heat kernel table")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--xmin", type=float, required=True)
    p.add_argument("--xmax", type=float, required=True)
    p.add_argument("--points", type=int, default=20)
    common(p)

    p = sub.add_parser("exit", help="exit-time density and survival")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--tmin", type=float, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--points", type=int, default=50)
    common(p)

    p = sub.add_parser("validate", help="run the validation suite")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    common(p)
    return ap


_VALIDATORS = {
    "eigs": lambda p: (p["n_max"] >= 1 and p["basis"] >= 1
                       and p["n_max"] <= p["basis"]),
    "psi": lambda p: p["lam"] > 0 and p["xmin"] >= 0
                     and p["xmax"] > p["xmin"] and p["points"] >= 2,
    "heat": lambda p: p["t"] > 0 and 0 < p["xmin"] < p["xmax"]
                      and p["points"] >= 2,
    "exit": lambda p: p["x"] > 0 and 0 < p["tmin"] < p["tmax"]
                      and p["points"] >= 2,
    "validate": lambda p: True,
}

_COMMANDS = {"eigs": cmd_eigs, "psi": cmd_psi, "heat": cmd_heat,
             "exit": cmd_exit, "validate": cmd_validate}


def main(argv=None) -> int:
    ap = build_parser()
    ns = vars(ap.parse_args(argv))
    command = ns.pop("command")
    fmt = ns.pop("format")
    output = ns.pop("output")
    digits = ns.pop("digits")
    if digits is None:
        digits = default_digits()
    elif digits < 15:
        ap.error("--digits must be at least 15")
    timestamp = ns.pop("timestamp")
    if not _VALIDATORS[command](ns):
        ap.error(f"invalid parameters for {command}: {ns}")
    cfg = RunConfig(command, ns, fmt, output, timestamp, digits)
    try:
        return _COMMANDS[command](cfg)
    except BracketInversion as exc:
        sys.stderr.write(f"mathematical inconsistency: {exc}\n")
        return 2
    except PrecisionExhausted as exc:
        sys.stderr.write(f"precision exhausted: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
