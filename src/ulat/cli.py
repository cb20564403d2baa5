"""Command line entry point.

Subcommands:

* ``ulat suite run NAME...``   run named check suites, print a report
* ``ulat lattice check FILE``  validate a finite lattice description
* ``ulat example NAME``        run one of the worked example suites

Settings resolve in precedence order: command line flags, then the
``ULAT_SEED`` / ``ULAT_HORIZON`` environment variables, then a ``key=value``
config file given with ``--config``, then built-in defaults.

Exit status: 0 when every requested check passes, 1 when any suite fails or
is inconclusive (or a checked lattice is rejected), 2 for usage errors such
as unknown suite names or unreadable input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Optional

from .carriers import NotALattice, load_finite_lattice
from .convergence import DEFAULT_EPS_GRID, DEFAULT_HORIZON
from .suites import SuiteConfig, render_json, render_markdown, run_suites, suite_names

EXAMPLE_SUITES = ("ex-r", "ex", "o1o2")

_DEFAULTS = {
    "seed": 0,
    "horizon": DEFAULT_HORIZON,
    "eps_grid": DEFAULT_EPS_GRID,
    "format": "json",
    "timings": False,
}


class UsageError(Exception):
    pass


def _parse_eps_grid(text: str) -> tuple:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise UsageError("--eps-grid needs at least one value")
    grid = []
    for part in items:
        try:
            q = Fraction(part)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad eps value {part!r}: {exc}") from exc
        if q <= 0:
            raise UsageError(f"eps values must be positive, got {part!r}")
        grid.append(q)
    return tuple(grid)


def _parse_bool(text: str, key: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"config key {key!r} needs a boolean, got {text!r}")


def _read_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    settings = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key == "seed":
            settings["seed"] = _parse_int(value, "seed")
        elif key == "horizon":
            settings["horizon"] = _parse_int(value, "horizon")
        elif key == "eps_grid":
            settings["eps_grid"] = _parse_eps_grid(value)
        elif key == "format":
            settings["format"] = _check_format(value)
        elif key == "timings":
            settings["timings"] = _parse_bool(value, key)
        else:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
    return settings


def _parse_int(text: str, key: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise UsageError(f"{key} needs an integer, got {text!r}") from exc
    if value < 0 and key == "seed":
        return value
    if value < 1 and key == "horizon":
        raise UsageError(f"horizon must be at least 1, got {value}")
    return value


def _check_format(text: str) -> str:
    if text not in ("json", "md"):
        raise UsageError(f"format must be 'json' or 'md', got {text!r}")
    return text


def _resolve_settings(args) -> dict:
    settings = dict(_DEFAULTS)
    if getattr(args, "config", None):
        settings.update(_read_config(args.config))
    env_seed = os.environ.get("ULAT_SEED")
    if env_seed is not None:
        settings["seed"] = _parse_int(env_seed, "ULAT_SEED")
    env_horizon = os.environ.get("ULAT_HORIZON")
    if env_horizon is not None:
        settings["horizon"] = _parse_int(env_horizon, "ULAT_HORIZON")
    if getattr(args, "seed", None) is not None:
        settings["seed"] = args.seed
    if getattr(args, "horizon", None) is not None:
        if args.horizon < 1:
            raise UsageError(f"horizon must be at least 1, got {args.horizon}")
        settings["horizon"] = args.horizon
    if getattr(args, "eps_grid", None) is not None:
        settings["eps_grid"] = _parse_eps_grid(args.eps_grid)
    if getattr(args, "format", None) is not None:
        settings["format"] = _check_format(args.format)
    if getattr(args, "timings", False):
        settings["timings"] = True
    return settings


def _add_suite_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None,
                     help="base seed for the deterministic generators")
    sub.add_argument("--horizon", type=int, default=None,
                     help="prefix length for horizon-bounded checks")
    sub.add_argument("--eps-grid", dest="eps_grid", default=None,
                     help="comma separated positive rationals, e.g. 1,1/2,1/4")
    sub.add_argument("--format", choices=("json", "md"), default=None,
                     help="report format (default json)")
    sub.add_argument("--config", default=None,
                     help="key=value settings file")
    sub.add_argument("--timings", action="store_true",
                     help="include wall-clock timings in the report")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ulat",
        description="exact checks for lattice uniformities and unbounded convergence")
    commands = parser.add_subparsers(dest="command")

    suite = commands.add_parser("suite", help="run named check suites")
    suite_cmds = suite.add_subparsers(dest="suite_command")
    run = suite_cmds.add_parser("run", help="run suites and print a report")
    run.add_argument("names", nargs="+", metavar="SUITE",
                     help=f"one of: {', '.join(suite_names())}")
    _add_suite_options(run)

    lattice = commands.add_parser("lattice", help="finite lattice utilities")
    lattice_cmds = lattice.add_subparsers(dest="lattice_command")
    check = lattice_cmds.add_parser("check", help="validate a lattice JSON file")
    check.add_argument("path", help="JSON file with elements and covers")

    example = commands.add_parser("example", help="run a worked example suite")
    example.add_argument("name", choices=EXAMPLE_SUITES)
    _add_suite_options(example)
    return parser


def _run_suites_command(names, args) -> int:
    settings = _resolve_settings(args)
    unknown = sorted(set(names) - set(suite_names()))
    if unknown:
        raise UsageError(
            f"unknown suite(s): {', '.join(unknown)}; known: {', '.join(suite_names())}")
    cfg = SuiteConfig(seed=settings["seed"], horizon=settings["horizon"],
                      eps_grid=settings["eps_grid"], timings=settings["timings"])
    report = run_suites(names, cfg)
    if settings["format"] == "json":
        sys.stdout.write(render_json(report))
    else:
        sys.stdout.write(render_markdown(report))
    return 0 if all(rec["status"] == "pass" for rec in report["suites"]) else 1


def _lattice_check_command(path: str) -> int:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path!r} is not valid JSON: {exc}")
    try:
        L = load_finite_lattice(doc, name=os.path.basename(path))
    except NotALattice as exc:
        out = {"ok": False, "error": str(exc)}
        if exc.pair is not None:
            out["pair"] = list(exc.pair)
        if exc.missing is not None:
            out["missing"] = exc.missing
        sys.stdout.write(json.dumps(out, separators=(",", ":")) + "\n")
        return 1
    dist = L.distributivity
    out = {
        "ok": True,
        "name": L.name,
        "elements": len(L.elements()),
        "bottom": str(L.bottom),
        "top": str(L.top),
        "distributive": dist.holds,
    }
    if not dist.holds:
        out["distributivity-witness"] = [str(v) for v in dist.witness]
    sys.stdout.write(json.dumps(out, separators=(",", ":")) + "\n")
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "suite":
            if args.suite_command != "run":
                parser.error("usage: ulat suite run SUITE [SUITE ...]")
            return _run_suites_command(args.names, args)
        if args.command == "lattice":
            if args.lattice_command != "check":
                parser.error("usage: ulat lattice check FILE")
            return _lattice_check_command(args.path)
        if args.command == "example":
            return _run_suites_command([args.name], args)
        parser.print_help(sys.stderr)
        return 2
    except UsageError as exc:
        print(f"ulat: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
