"""Command-line front end.

Two subcommands:

    linkage-lab run <file> [--json] [--bound B] [--cache-dir D]
                           [--fail-fast] [--strict]
    linkage-lab check <THEOREM_ID> <file> --bind name=value ...

`run` executes a script; `check` parses the script for its declarations
and then runs a single named theorem check, with --bind values written
as script expressions (module names, operator calls, integers, or
bracketed ideal lists).  Exit codes: 0 pass or partial, 1 refuted claim
or failed assertion, 2 parse or usage error (a --bound below 1
included), 3 budget exhausted, 4 an Inapplicable verdict under --strict.

The resolution cache directory comes from --cache-dir or the
LINKAGE_LAB_CACHE environment variable.
"""

from __future__ import annotations

import argparse
import sys

from .cache import install_cache, resolve_cache_dir
from .dsl import DslError, parse
from .runner import (
    EXIT_PARSE,
    RunConfig,
    ScriptError,
    execute,
    report_json,
    report_text,
)


def positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is below 1")
    return value


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--json", action="store_true",
                   help="emit the deterministic JSON report on stdout")
    p.add_argument("--bound", type=positive_int, default=None,
                   help="vanishing-scan bound, at least 1 "
                   "(default: ring-derived)")
    p.add_argument("--cache-dir", default=None,
                   help="resolution cache directory")
    p.add_argument("--fail-fast", action="store_true",
                   help="stop at the first failing statement")
    p.add_argument("--strict", action="store_true",
                   help="exit 4 when any check is Inapplicable")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="linkage-lab",
        description="linkage workbench for graded modules")
    sub = ap.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute a script file")
    runp.add_argument("file", help="script path")
    _add_run_flags(runp)

    checkp = sub.add_parser("check", help="run one theorem check")
    checkp.add_argument("theorem_id", help="e.g. THM_MS")
    checkp.add_argument("file", help="script with the declarations")
    checkp.add_argument("--bind", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="theorem binding, repeatable")
    _add_run_flags(checkp)

    return ap


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _config(args) -> RunConfig:
    return RunConfig(
        bound=args.bound,
        fail_fast=args.fail_fast,
        strict=args.strict,
    )


def _run_source(source: str, args) -> int:
    install_cache(resolve_cache_dir(args.cache_dir))
    try:
        script = parse(source)
        result = execute(script, _config(args))
    except DslError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ScriptError as e:
        print(f"script error: {e}", file=sys.stderr)
        return EXIT_PARSE
    sys.stdout.write(report_json(result) if args.json
                     else report_text(result))
    return result.exit_code()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        source = _read(args.file)
    except OSError as e:
        print(f"cannot read {args.file}: {e}", file=sys.stderr)
        return EXIT_PARSE

    if args.command == "run":
        return _run_source(source, args)

    bindings = []
    for b in args.bind:
        name, eq, value = b.partition("=")
        if not eq or not name.strip() or not value.strip():
            print(f"bad --bind {b!r}: expected NAME=VALUE", file=sys.stderr)
            return EXIT_PARSE
        bindings.append(f"{name.strip()} = {value.strip()}")
    stmt = f"check {args.theorem_id}({', '.join(bindings)});\n"
    if not source.endswith("\n"):
        source += "\n"
    return _run_source(source + stmt, args)


if __name__ == "__main__":
    sys.exit(main())
