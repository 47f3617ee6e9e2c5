"""Command-line entry points for the experiment harness.

``simulate`` dumps the quadrature datasets; ``sweep`` runs the full grid and
writes the four CSVs (estimates, MSE, key rates, coherence) and ``run.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .channel import dataset_to_csv, ensemble_means, simulate_block
from .harness import (
    ExperimentConfig,
    load_config,
    preset_config,
    run_sweep,
    write_reports,
    _derived_seed,
    _ensemble_for,
)


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


def cmd_simulate(config: ExperimentConfig) -> int:
    """write one simulated dataset CSV per distance"""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    distances = config.distances_km if config.source == "sampler" else (0.0,)
    for d_idx, distance in enumerate(distances):
        ensemble = _ensemble_for(config, d_idx)
        dataset = simulate_block(
            ensemble, config.protocol, seed=_derived_seed(config.seeds[0], d_idx)
        )
        path = out / f"dataset_{distance:g}km.csv"
        dataset_to_csv(dataset, path)
        t_mean, sqrt_t_mean, eps_mean = ensemble_means(ensemble)
        print(
            f"{path}  M={ensemble.count} m={config.block_length} "
            f"<T>={t_mean:.4f} <sqrt T>={sqrt_t_mean:.4f} <eps>={eps_mean:.4f}"
        )
    return 0


def cmd_sweep(config: ExperimentConfig) -> int:
    """run the full grid; write the four CSVs and run.json"""
    report = run_sweep(config)
    for path in write_reports(report, config.out_dir).values():
        print(path)
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="csqkd",
        description="Sub-channel parameter estimation and key-rate experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        _add_common(sub.add_parser(name, help=command.__doc__))
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        return COMMANDS[args.command](config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
