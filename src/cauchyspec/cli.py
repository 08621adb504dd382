"""Command-line front end.

Subcommands evaluate the public quantities onto grids (``psi``, ``heat``,
``exit``), run the bound pipeline (``eigs``), or run the validation suite
(``validate``); results are emitted as CSV or JSON with a metadata block
echoing the configuration.  Output is byte-deterministic for a fixed
configuration: floats are serialized in shortest-round-trip decimal with '.'
as the separator, lines end in a bare newline, and timestamps are only
included when explicitly requested with --timestamp.

Each ``cmd_<name>`` takes the parsed parameters and returns the document
body; ``main`` adds the metadata and writes the document, once.  Parameter
values are checked only by the rules of :mod:`cauchyspec.errors`: the grid
and ``n_max`` here, everything else by the library call itself.

Exit codes: 0 success, 1 check failure, 2 mathematical inconsistency
(bracket inversion), 64 usage error: an unknown flag, any parameter value
that raises DomainError or an inf or NaN result in JSON, which cannot hold
it, reported as ``error: <message>`` without output.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys

import numpy as np

from . import __version__
from .errors import (BracketInversion, DomainError, _finite, _increasing,
                     _integer)

USAGE_EXIT = 64


def output_schema() -> dict:
    """The JSON schema every CLI JSON document validates against."""
    import importlib.resources as resources
    ref = resources.files("cauchyspec").joinpath("schema/output.schema.json")
    return json.loads(ref.read_text())


class _Help(argparse.HelpFormatter):
    def __init__(self, prog):     # argparse's width off a terminal, fixed
        super().__init__(prog, width=78)


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):     # no formatter probes the terminal
        super().__init__(formatter_class=_Help, **kwargs)

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


def _emit(doc: dict, fmt: str, output: str) -> None:
    meta = doc["meta"]
    if fmt == "json":
        try:
            text = json.dumps(doc, indent=1, sort_keys=True,
                              allow_nan=False) + "\n"
        except ValueError:
            raise DomainError("an inf or NaN result has no JSON form; "
                              "use --format csv") from None
    else:
        lines = [f"# cauchyspec {__version__}",
                 f"# command: {meta['command']}",
                 f"# config: {json.dumps(meta['config'], sort_keys=True)}"]
        if "timestamp" in meta:
            lines.append(f"# timestamp: {meta['timestamp']}")
        if "columns" in doc:
            lines.append(",".join(doc["columns"]))
            for row in doc["rows"]:
                lines.append(",".join(_fmt(v) for v in row))
        else:
            lines.append("id,passed,measured,tolerance,detail")
            for c in doc["checks"]:
                lines.append(",".join(_fmt(c[k]) for k in
                             ("id", "passed", "measured", "tolerance", "detail")))
        text = "\n".join(lines) + "\n"
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", newline="\n") as fh:
            fh.write(text)


def _grid(p: dict, lo: str, hi: str) -> np.ndarray:
    """p["points"] evenly spaced points from p[lo] to p[hi]; DomainError
    unless there are at least two, strictly increasing and finite."""
    name = f"the {lo}..{hi} grid"
    _integer("points", p["points"], 2)
    _finite(name, [p[lo], p[hi]])
    return _increasing(name, np.linspace(p[lo], p[hi], p["points"]), 2)


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed parameters and returns the document body


def cmd_eigs(p: dict) -> dict:
    from .interval import bracket, lower_bounds, reference_excess, upper_bounds
    n_max, N, method = p["n_max"], p["basis"], p["method"]
    _integer("n_max", n_max, 1, N)
    # one sequence per side, None where the method does not compute that side
    if method == "both":
        brackets = bracket(n_max, N)
        los = [b.lower for b in brackets]
        ups = [b.upper for b in brackets]
    else:
        none = [None] * n_max
        los = lower_bounds(N, n_max).tolist() if method == "lower" else none
        ups = upper_bounds(N, n_max).tolist() if method == "upper" else none
    rows = []
    for n, lo, up in zip(range(1, n_max + 1), los, ups):
        excess = reference_excess(n, lo, up)
        contained = None if excess is None else excess == 0.0
        mid = 0.5 * (lo + up) if lo is not None and up is not None else None
        rows.append([n, lo, up, mid, contained])
    return {"columns": ["n", "lower", "upper", "midpoint",
                        "reference_contained"], "rows": rows}


def cmd_psi(p: dict) -> dict:
    from .halfline import psi, remainder
    xs = _grid(p, "xmin", "xmax")
    vals, rem = psi(p["lam"], xs), remainder(p["lam"] * xs)
    return {"columns": ["x", "psi", "remainder"],
            "rows": [[float(x), float(v), float(r)]
                     for x, v, r in zip(xs, vals, rem)]}


def cmd_heat(p: dict) -> dict:
    from .halfline import heat_kernel_table
    xs = _grid(p, "xmin", "xmax")
    tab = heat_kernel_table(p["t"], xs, xs)
    return {"columns": ["x", "y", "p_killed"],
            "rows": [[float(x), float(y), float(tab[i, j])]
                     for i, x in enumerate(xs) for j, y in enumerate(xs)]}


def cmd_exit(p: dict) -> dict:
    from .halfline import exit_law
    ts = _grid(p, "tmin", "tmax")
    dens, surv = exit_law(p["x"], ts)
    return {"columns": ["t", "density", "survival"],
            "rows": [[float(t), float(d), float(s)]
                     for t, d, s in zip(ts, dens, surv)]}


def cmd_validate(p: dict) -> dict:
    from .checks import run_checks
    checks = run_checks(p["level"])
    return {"level": p["level"], "passed": all(c["passed"] for c in checks),
            "checks": checks}


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    ap = _Parser(prog="cauchyspec",
                 description="Spectral toolkit for the killed Cauchy process: "
                             "half-line eigenfunctions and kernels, interval "
                             "eigenvalue brackets, validation suite.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eigs", help="two-sided eigenvalue bounds")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--basis", type=int, required=True)
    p.add_argument("--method", choices=("upper", "lower", "both"),
                   default="both")

    p = sub.add_parser("psi", help="generalized eigenfunction on a grid")
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--xmin", type=float, default=0.0)
    p.add_argument("--xmax", type=float, required=True)
    p.add_argument("--points", type=int, default=200)

    p = sub.add_parser("heat", help="killed heat kernel table")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--xmin", type=float, required=True)
    p.add_argument("--xmax", type=float, required=True)
    p.add_argument("--points", type=int, default=20)

    p = sub.add_parser("exit", help="exit-time density and survival")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--tmin", type=float, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--points", type=int, default=50)

    p = sub.add_parser("validate", help="run the validation suite")
    p.add_argument("--level", choices=("quick", "full"), default="quick")

    for p in sub.choices.values():
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default="-", help="file path or - for stdout")
        p.add_argument("--timestamp", action="store_true",
                       help="include a timestamp (breaks byte-determinism)")
    return ap


_COMMANDS = {"eigs": cmd_eigs, "psi": cmd_psi, "heat": cmd_heat,
             "exit": cmd_exit, "validate": cmd_validate}


def main(argv=None) -> int:
    params = vars(build_parser().parse_args(argv))
    command, fmt, output, timestamp = map(
        params.pop, ("command", "format", "output", "timestamp"))
    meta = {"tool": "cauchyspec", "version": __version__,
            "command": command, "config": params}
    if timestamp:
        meta["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    try:
        body = _COMMANDS[command](params)
        _emit({"meta": meta, **body}, fmt, output)
    except BracketInversion as exc:
        sys.stderr.write(f"mathematical inconsistency: {exc}\n")
        return 2
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_EXIT
    return 0 if body.get("passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
