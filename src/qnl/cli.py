"""Command-line interface.

Subcommands:
  qnl budget <config>       compute a noise-budget table
  qnl verify <config>       run the invariant suite at config scale
  qnl spin-figure <config>  emit the three-series back-action sweep

Exit codes: 0 success, 1 configuration error, 2 verification failure.
Set QNL_LOG=debug|info|warning|error to control log verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .budget import load_config, run_budget, run_spin_figure, verify
from .errors import ConfigError, QnlError
from .tables import _emit_csv, _emit_json


def _configure_logging() -> None:
    level_name = os.environ.get("QNL_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _add_common(parser: argparse.ArgumentParser, output: bool) -> None:
    parser.add_argument("config", help="path to the JSON sweep configuration")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="accepted for compatibility; sweeps run serially")
    if output:
        parser.add_argument("--output", metavar="PATH",
                            help="write the table here instead of stdout")
        parser.add_argument("--format", choices=("csv", "json"), dest="fmt",
                            help="output format (default: config setting or csv)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnl",
        description="Quantum noise limits of stationary linear force sensors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("budget", help="compute a noise-budget table")
    _add_common(p, output=True)

    p = sub.add_parser("verify", help="run the invariant suite at config scale")
    _add_common(p, output=False)
    p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    p.add_argument("--samples", type=int, default=6, help="number of sampled working points")
    p.add_argument("--golden", metavar="PATH", help="compare against a previously emitted table")

    p = sub.add_parser("spin-figure", help="emit the three-series back-action sweep")
    _add_common(p, output=True)
    return parser


def _emit(table, args, cfg) -> None:
    """Write the table block by block, the bytes of its to_csv()/to_json()."""
    fmt = args.fmt or cfg.output_format or "csv"
    blocks = _emit_json(table) if fmt == "json" else _emit_csv(table)
    path = args.output or cfg.output_path
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(blocks)
    else:
        sys.stdout.writelines(blocks)


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "budget":
            _emit(run_budget(cfg, jobs=args.jobs), args, cfg)
        elif args.command == "spin-figure":
            _emit(run_spin_figure(cfg, jobs=args.jobs), args, cfg)
        else:
            report = verify(cfg, seed=args.seed, samples=args.samples,
                            golden_path=args.golden, jobs=args.jobs)
            print(report.render())
            if not report.passed:
                return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (OSError, QnlError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
