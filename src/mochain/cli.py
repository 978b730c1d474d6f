"""Command-line surface: evolve, region, compare, verify.

Every data-producing subcommand reads a JSON run configuration and writes a
CSV (default) or JSON table to --out or stdout; verify runs the built-in
property suite and exits nonzero when any check fails. A configuration error
exits with 2 and any other library error with 3, each as one `config error:`
or `error:` line on stderr.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config
from .errors import ConfigError, MochainError
from .sweep import run_compare, run_evolve, run_region, write_output
from .verify import run_and_format


def _add_io_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (default: config outputs.format, else csv)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mochain",
        description="Microwave-optical quantum resources in chain-coupled hybrid systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    evolve = sub.add_parser("evolve", help="resource time series for one parameter set")
    _add_io_arguments(evolve)

    region = sub.add_parser("region", help="two-axis regime and steering map")
    _add_io_arguments(region)

    compare = sub.add_parser("compare", help="closed form vs full dynamics along one axis")
    _add_io_arguments(compare)

    verify = sub.add_parser("verify", help="run the invariant suite, nonzero exit on failure")
    verify.add_argument("--out", default=None, help="also write the report to this path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        report, status = run_and_format()
        print(report)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(report + "\n")
        return status

    try:
        cfg = load_config(args.config)
        if args.command == "evolve":
            table = run_evolve(cfg)
        elif args.command == "region":
            table = run_region(cfg)
        else:
            table = run_compare(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MochainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    out_path = args.out if args.out is not None else cfg.outputs.path
    fmt = args.format if args.format is not None else cfg.outputs.format
    write_output(table, out_path, fmt)
    return 0


if __name__ == "__main__":
    sys.exit(main())
