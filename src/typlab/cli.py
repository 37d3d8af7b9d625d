"""Command-line interface.

Subcommands::

    typlab run    --config cfg.json [--out DIR] [--seed U64]
    typlab verify --config cfg.json
    typlab plot   --stats stats.csv [--trajectories trajectories.csv] --out fig.svg

``--seed`` overrides the config's base seed, ``--out`` its output
directory.  Every failure, a bad config or an unwritable output path
included, ends in one ``error:`` line on stderr and exit status 1; a
warning, such as trajectories that start outside the start band, is one
``warning:`` line on stderr.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import load_config
from .csvio import read_stats_csv, read_trajectories_csv
from .errors import TyplabError
from .experiment import _write_atomically, execute_run
from .svgplot import render_figure
from .verify import format_report, run_verification


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="typlab",
        description="Numerical laboratory for dynamical typicality of quantum "
        "expectation values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment and write its outputs")
    run.add_argument("--config", required=True, help="JSON config path")
    run.add_argument("--out", default=None, help="output directory (overrides config)")
    run.add_argument("--seed", type=int, default=None, help="base seed (overrides config)")

    verify = sub.add_parser("verify", help="run the verification suite")
    verify.add_argument("--config", required=True, help="JSON config path")

    plot = sub.add_parser("plot", help="render a run's CSV outputs as SVG")
    plot.add_argument("--stats", required=True, help="stats.csv path")
    plot.add_argument("--trajectories", default=None, help="trajectories.csv path")
    plot.add_argument("--out", required=True, help="output SVG path")

    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config)
    # replace re-runs the config's checks, so an override fails as at parse.
    if args.out is not None:
        config = replace(config, output=replace(config.output, directory=args.out))
    if args.seed is not None:
        config = replace(config, base_seed=args.seed)
    for path in execute_run(config):
        print(f"wrote {path}")
    return 0


def _cmd_verify(args) -> int:
    config = load_config(args.config)
    results = run_verification(config)
    print(format_report(results))
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"verification failed: {failed[0].name}", file=sys.stderr)
        return 1
    return 0


def _cmd_plot(args) -> int:
    out = Path(args.out)
    # "", ".", "/", a path ending in a separator and an existing directory name no file.
    if not out.name or args.out[-1:] in (os.sep, os.altsep) or out.is_dir():
        raise TyplabError(f"--out {args.out!r} names no file")
    stats = read_stats_csv(args.stats)
    trajectories = None
    if args.trajectories is not None:
        trajectories = read_trajectories_csv(args.trajectories)
        # Both files round-trip binary64, so a shared grid compares equal.
        if not np.array_equal(trajectories[0], stats["t"]):
            raise TyplabError(f"t of {args.trajectories} differs from t of {args.stats}")
    _write_atomically(out, Path.write_text, render_figure(stats, trajectories))
    print(f"wrote {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "verify": _cmd_verify,
        "plot": _cmd_plot,
    }[args.command]
    # A run's warnings reach stderr as one "warning:" line each, as failures
    # reach it as one "error:" line.
    warnings = logging.StreamHandler(sys.stderr)
    warnings.setLevel(logging.WARNING)
    warnings.setFormatter(logging.Formatter("warning: %(message)s"))
    logger = logging.getLogger("typlab")
    logger.addHandler(warnings)
    try:
        return handler(args)
    except (TyplabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        logger.removeHandler(warnings)


if __name__ == "__main__":
    sys.exit(main())
