"""Command-line entry point for the experiment harness.

``sweep`` runs the full grid and writes the four CSVs (estimates, MSE, key
rates, coherence) and ``run.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .harness import ExperimentConfig, load_config, preset_config, run_sweep, write_reports


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        config = load_config(args.config)
    else:
        config = preset_config(args.preset)
    if args.seed is not None:
        config = dataclasses.replace(config, seeds=(args.seed,))
    if args.out is not None:
        config = dataclasses.replace(config, out_dir=args.out)
    return config


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="experiment config file")
    parser.add_argument(
        "--preset",
        choices=("desk", "paper"),
        default="desk",
        help="built-in config used when --config is omitted (default: desk)",
    )
    parser.add_argument("--out", metavar="DIR", help="output directory override")
    parser.add_argument("--seed", type=int, metavar="N", help="replace the seed list with N")


def _check_out_dir(out_dir: str) -> None:
    """Refuse an output directory that could not be made, before any work:
    the path is empty (it would name the working directory), or it or its
    nearest existing ancestor is not a directory."""
    if not out_dir:
        raise ValueError("output directory must not be empty")
    for path in (Path(out_dir), *Path(out_dir).parents):
        if path.exists():
            if not path.is_dir():
                raise ValueError(f"output directory {out_dir}: {path} is not a directory")
            return


def cmd_sweep(config: ExperimentConfig) -> int:
    """run the full grid; write the four CSVs and run.json"""
    _check_out_dir(config.out_dir)
    report = run_sweep(config)
    for path in write_reports(report, config.out_dir).values():
        print(path)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="csqkd",
        description="Sub-channel parameter estimation and key-rate experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("sweep", help=cmd_sweep.__doc__))
    args = parser.parse_args(argv)
    try:
        return cmd_sweep(_resolve_config(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
