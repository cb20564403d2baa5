"""Command line entry point.

Subcommands:

* ``ulat suite run NAME...``   run named check suites, print a report
* ``ulat lattice check FILE``  validate a finite lattice description

Settings resolve in precedence order: command line flags, then the
``ULAT_SEED`` / ``ULAT_HORIZON`` environment variables, then a ``key=value``
config file given with ``--config``, then built-in defaults.  A value is
validated by the same parser wherever it comes from.

Exit status: 0 when every requested check passes, 1 when any suite fails or
is inconclusive (or a checked lattice is rejected), 2 for usage errors such
as unknown suite names, bad settings, unreadable input or too large a lattice.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from functools import cache
from typing import Optional

from .carriers import NotALattice, load_finite_lattice
from .exact import rat


class UsageError(Exception):
    pass


def _parse_int(text: str, least: Optional[int] = None, most: Optional[int] = None) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"needs an integer, got {text!r}") from None
    if least is not None and value < least:
        raise ValueError(f"must be at least {least}, got {value}")
    if most is not None and value > most:
        raise ValueError(f"must be at most {most}, got {value}")
    return value


def _parse_eps_grid(text: str) -> tuple:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ValueError("needs at least one value")
    grid = []
    for part in items:
        try:
            q = rat(part)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"has a bad value {part!r}: {exc}") from None
        if q <= 0:
            raise ValueError(f"values must be positive, got {part!r}")
        grid.append(q)
    return tuple(grid)


def _parse_format(text: str) -> str:
    if text not in ("json", "md"):
        raise ValueError(f"must be 'json' or 'md', got {text!r}")
    return text


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"needs a boolean, got {text!r}")


MAX_HORIZON = 100_000  # suite run time grows linearly with the horizon (README)

# one parser per setting, for flags, environment and config file alike
_PARSERS = {
    "seed": _parse_int,
    "horizon": lambda text: _parse_int(text, least=1, most=MAX_HORIZON),
    "eps_grid": _parse_eps_grid,
    "format": _parse_format,
    "timings": _parse_bool,
}


def _parse_setting(key: str, text: str, origin: str):
    try:
        return _PARSERS[key](text)
    except ValueError as exc:
        raise UsageError(f"{origin}: {key} {exc}") from None


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {what} {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"{what} {path!r} is not UTF-8 text: {exc}") from exc


def _read_config(path: str) -> dict:
    settings = {}
    for lineno, raw in enumerate(_read_text(path, "config file").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _PARSERS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        settings[key] = _parse_setting(key, value.strip(), f"{path}:{lineno}")
    return settings


def _resolve_settings(args, defaults: dict) -> dict:
    settings = dict(defaults)
    if args.config:
        settings.update(_read_config(args.config))
    for key, var in (("seed", "ULAT_SEED"), ("horizon", "ULAT_HORIZON")):
        text = os.environ.get(var)
        if text is not None:
            settings[key] = _parse_setting(key, text, var)
    for key in ("seed", "horizon", "eps_grid", "format"):
        text = getattr(args, key)
        if text is not None:
            settings[key] = _parse_setting(key, text, "--" + key.replace("_", "-"))
    if args.timings:
        settings["timings"] = True
    return settings


@cache
def _build_parser(suite_help: bool) -> argparse.ArgumentParser:
    """The parser; the suite names in the help of ``suite run`` are listed
    only when suite_help asks for them, since listing them loads the suite
    runner."""
    names_help = None
    if suite_help:
        from .suites import suite_names
        names_help = f"one of: {', '.join(suite_names())}"
    parser = argparse.ArgumentParser(
        prog="ulat",
        description="exact checks for lattice uniformities and unbounded convergence")
    commands = parser.add_subparsers(dest="command")

    suite = commands.add_parser("suite", help="run named check suites")
    suite_cmds = suite.add_subparsers(dest="suite_command")
    run = suite_cmds.add_parser("run", help="run suites and print a report")
    run.add_argument("names", nargs="+", metavar="SUITE",
                     help=names_help)
    run.add_argument("--seed", default=None,
                     help="base seed for the deterministic generators")
    run.add_argument("--horizon", default=None,
                     help=f"prefix length for horizon-bounded checks, 1 to {MAX_HORIZON}")
    run.add_argument("--eps-grid", dest="eps_grid", default=None,
                     help="comma separated positive rationals, e.g. 1,1/2,1/4")
    run.add_argument("--format", default=None,
                     help="report format, json (default) or md")
    run.add_argument("--config", default=None,
                     help="key=value settings file")
    run.add_argument("--timings", action="store_true",
                     help="include wall-clock timings in the report")

    lattice = commands.add_parser("lattice", help="finite lattice utilities")
    lattice_cmds = lattice.add_subparsers(dest="lattice_command")
    check = lattice_cmds.add_parser("check", help="validate a lattice JSON file")
    check.add_argument("path", help="JSON file with elements and covers")
    return parser


def _run_suites_command(names, args) -> int:
    from .suites import SuiteConfig, render_json, render_markdown, run_suites, suite_names

    # every suite setting defaults as SuiteConfig does; format is the CLI's own
    settings = _resolve_settings(
        args, {**{f.name: f.default for f in fields(SuiteConfig)}, "format": "json"})
    unknown = sorted(set(names) - set(suite_names()))
    if unknown:
        raise UsageError(
            f"unknown suite(s): {', '.join(unknown)}; known: {', '.join(suite_names())}")
    cfg = SuiteConfig(**{f.name: settings[f.name] for f in fields(SuiteConfig)})
    report = run_suites(names, cfg)
    if settings["format"] == "json":
        sys.stdout.write(render_json(report))
    else:
        sys.stdout.write(render_markdown(report))
    return 0 if all(rec["status"] == "pass" for rec in report["suites"]) else 1


def _lattice_check_command(path: str) -> int:
    text = _read_text(path, "lattice file")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path!r} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer with more digits than int() converts
        raise UsageError(f"{path!r} cannot be parsed: {exc}") from None
    except RecursionError:
        raise UsageError(f"{path!r} nests too deeply to parse") from None
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
    except ValueError as exc:  # a lattice too large to build
        raise UsageError(f"{path!r}: {exc}") from None
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
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser("suite" in argv)
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
        parser.print_help(sys.stderr)
        return 2
    except UsageError as exc:
        print(f"ulat: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
