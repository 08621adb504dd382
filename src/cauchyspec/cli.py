"""Command-line front end.

Subcommands evaluate the public quantities onto grids (``psi``, ``heat``,
``exit``), run the bound pipeline (``eigs``), or run the validation suite
(``validate``); results are emitted as CSV or JSON with a metadata block
echoing the configuration.  Output is byte-deterministic for a fixed
configuration: floats are serialized in shortest-round-trip decimal with '.'
as the separator, lines end in a bare newline, and timestamps are only
included when explicitly requested with --timestamp.

Exit codes: 0 success, 1 check failure, 2 mathematical inconsistency
(bracket inversion), 64 usage error (including parameters the library
rejects with DomainError).
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import BracketInversion, DomainError

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
    from .interval import bracket, lower_bounds, reference_excess, upper_bounds
    p = cfg.params
    n_max, N, method = p["n_max"], p["basis"], p["method"]
    # one sequence per side, None where the method does not compute that side
    if method == "both":
        brackets = bracket(n_max, N)
        los = [b.lower for b in brackets]
        ups = [b.upper for b in brackets]
    else:
        none = [None] * n_max
        los = lower_bounds(N, n_max).tolist() if method == "lower" else none
        ups = upper_bounds(N, n_max).tolist() if method == "upper" else none
    cols = ["n", "lower", "upper", "midpoint", "reference_contained"]
    rows = []
    for n, lo, up in zip(range(1, n_max + 1), los, ups):
        excess = reference_excess(n, lo, up)
        contained = None if excess is None else excess == 0.0
        mid = 0.5 * (lo + up) if lo is not None and up is not None else None
        rows.append([n, lo, up, mid, contained])
    _emit(cfg, {"meta": _meta(cfg), "columns": cols, "rows": rows})
    return 0


def cmd_psi(cfg: RunConfig) -> int:
    from .halfline import _psi_with_remainder
    p = cfg.params
    xs = np.linspace(p["xmin"], p["xmax"], p["points"])
    vals, rem = _psi_with_remainder(p["lam"], xs)
    rows = [[float(x), float(v), float(r)] for x, v, r in zip(xs, vals, rem)]
    _emit(cfg, {"meta": _meta(cfg), "columns": ["x", "psi", "remainder"],
                "rows": rows})
    return 0


def cmd_heat(cfg: RunConfig) -> int:
    from .halfline import heat_kernel_table
    p = cfg.params
    xs = np.linspace(p["xmin"], p["xmax"], p["points"])
    tab = heat_kernel_table(p["t"], xs, xs)
    rows = [[float(x), float(y), float(tab[i, j])]
            for i, x in enumerate(xs) for j, y in enumerate(xs)]
    _emit(cfg, {"meta": _meta(cfg), "columns": ["x", "y", "p_killed"],
                "rows": rows})
    return 0


def cmd_exit(cfg: RunConfig) -> int:
    from .halfline import exit_law
    p = cfg.params
    ts = np.linspace(p["tmin"], p["tmax"], p["points"])
    dens, surv = exit_law(p["x"], ts)
    rows = [[float(t), float(d), float(s)]
            for t, d, s in zip(ts, dens, surv)]
    _emit(cfg, {"meta": _meta(cfg), "columns": ["t", "density", "survival"],
                "rows": rows})
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    from .checks import run_checks
    checks = run_checks(cfg.params["level"])
    passed = all(c["passed"] for c in checks)
    _emit(cfg, {"meta": _meta(cfg), "level": cfg.params["level"],
                "passed": passed, "checks": checks})
    return 0 if passed else 1


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
        p.add_argument("--timestamp", action="store_true",
                       help="include a timestamp (breaks byte-determinism)")

    p = sub.add_parser("eigs", help="two-sided eigenvalue bounds")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--basis", type=int, required=True)
    p.add_argument("--method", choices=("upper", "lower", "both"),
                   default="both")
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
    timestamp = ns.pop("timestamp")
    if not _VALIDATORS[command](ns):
        ap.error(f"invalid parameters for {command}: {ns}")
    cfg = RunConfig(command, ns, fmt, output, timestamp)
    try:
        return _COMMANDS[command](cfg)
    except BracketInversion as exc:
        sys.stderr.write(f"mathematical inconsistency: {exc}\n")
        return 2
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
