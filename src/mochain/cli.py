"""Command-line surface: evolve, region, compare, verify.

Every data-producing subcommand reads a JSON run configuration and writes a
CSV (default) or JSON table to --out or stdout; verify runs the built-in
property suite and exits nonzero when any check fails. A configuration error,
an unreadable config file included, exits with 2 and any other library error,
or an output that cannot be written, with 3, each as one `config error:` or
`error:` line on stderr.

One argparse parser serves every main call of a process: it is built on the
first call and kept, and each call parses its own arguments into a fresh
namespace, so a process that runs many commands (a job loop) does not
rebuild it per command.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .config import FORMATS, load_config
from .errors import ConfigError, MochainError
from .sweep import run_compare, run_evolve, run_region, write_output
from .verify import run_and_format


def _add_io_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", choices=FORMATS, default=None,
                        help="output format (default: config outputs.format, else csv)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (cached)."""
    parser = argparse.ArgumentParser(
        prog="mochain",
        description="Microwave-optical quantum resources in chain-coupled hybrid systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("evolve", "resource time series for one parameter set"),
                       ("region", "two-axis regime and steering map"),
                       ("compare", "closed form vs full dynamics along one axis")):
        _add_io_arguments(sub.add_parser(name, help=text))
    verify = sub.add_parser("verify", help="run the invariant suite, nonzero exit on failure")
    verify.add_argument("--out", default=None, help="also write the report to this path")
    return parser


def _cannot_write(path: str, exc: OSError) -> int:
    print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
    return 3


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        report, status = run_and_format()
        print(report)
        if args.out:
            try:
                Path(args.out).write_text(report + "\n", encoding="utf-8", newline="\n")
            except OSError as exc:
                return _cannot_write(args.out, exc)
        return status

    try:
        cfg = load_config(args.config)
        run = {"evolve": run_evolve, "region": run_region, "compare": run_compare}[args.command]
        table = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MochainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    out_path = args.out if args.out is not None else cfg.outputs.path
    try:
        write_output(table, out_path, args.format or cfg.outputs.format)
    except OSError as exc:
        return _cannot_write("stdout" if out_path is None else out_path, exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
