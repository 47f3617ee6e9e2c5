"""Experiment driver: config ingestion, Monte-Carlo sweeps, CSV reporting.

A sweep walks the grid (distance label) x (sampling fraction) x (seed),
simulates quadrature data on a fresh ensemble per distance, runs the selected
estimators, and records per-sub-channel estimates, per-cell mean squared
errors, sensing-matrix coherence diagnostics, and secret key rates under the
true and estimated channel summaries.  Output is plot-ready CSV:

    estimates.csv  distance,subchannel,fraction,seed,estimator,T_true,T_hat,eps_true,eps_hat,residual,flags
    mse.csv        distance,fraction,estimator,seeds,MSE_T,MSE_eps
    keyrate.csv    distance,detection,source,I_AB,chi_BE,K
    mip.csv        distance,subchannel,fraction,model,mip,subsampled

plus a ``run.json`` manifest carrying the echoed config and its hash so any
row can be reproduced exactly.  All randomness derives from the configured
seeds, so reruns are byte-identical.  The sampling plans of a (seed,
distance, fraction < 1) cell are drawn in sub-channel order from one
generator seeded ``(seed, distance index, index in the sorted fractions)``;
fraction 1 keeps every row and draws nothing.

Estimator policy: the statistics estimator runs the one-atom closed-form DC
projection with the residual constraint active at the model-exact
disturbance scale (eta*T_i*eps_i, known here because the harness owns the
simulation ground truth); the variable-based estimator uses the configured
``k_max``: the closed-form DC projection at 1, for which the stop tolerance
is immaterial, and OMP above it.  Each (seed, fraction, estimator) cell is one
call into the cell fit over all sub-channels
(:func:`~csqkd.estimators.fit_cell_variables`,
:func:`~csqkd.estimators.fit_cell_statistics`), whatever the atom budget.
Measured variances are taken once per seed.  The coherence diagnostic builds
the row-sampled IDFT operator of each model.

A (fraction, estimator) cell with no usable estimate over all seeds keeps its
``mse.csv`` row with NaN errors, and an estimator with no usable estimate in
the key-rate cell (largest fraction, first seed) gets NaN key-rate columns,
so every grid writes the same row counts.  Each table is written with one
``%`` template per row type: ``%.12g`` for float fields, ``%s`` otherwise.

Configs are validated on construction, so a bad grid fails before any
simulation starts.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import io
import json
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .channel import (
    DETECTIONS,
    ProtocolParams,
    QuadratureDataset,
    SubChannelEnsemble,
    build_ensemble,
    ensemble_from_csv,
    ensemble_means,
    sample_lognormal_transmittances,
    simulate_block,
)
# perfbench/tracing.py wraps names in this module, so block_variances and
# both estimate_subchannel_* stay importable here though the sweep does not
# call them
from .estimators import (  # noqa: F401
    AggregateEstimate,
    SubChannelEstimate,
    aggregate_estimates,
    block_variances,
    estimate_subchannel_statistics,
    estimate_subchannel_variables,
    fit_cell_statistics,
    fit_cell_variables,
    measured_variance,
    subblock_variances,
)
from .sensing import OmpConfig, RowSampledIdftOperator, make_sampling_plan, mutual_incoherence
from .security import secret_key_rate, summary_from_means

ESTIMATOR_CHOICES = ("variables", "statistics", "both")
SOURCE_CHOICES = ("sampler", "file")
VARIANCE_MODE_CHOICES = ("replicated", "blockwise")


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, fully-defaulted description of one sweep."""

    source: str = "sampler"
    ensemble_file: str | None = None
    distances_km: tuple[float, ...] = (5.0, 10.0)
    subchannels: int = 20
    block_length: int = 2000
    excess_noise: float = 0.01
    sampler_seed: int = 7
    attenuation_per_km: float = 0.15
    sigma_log: float = 0.3
    fractions: tuple[float, ...] = (0.1, 0.4, 1.0)
    seeds: tuple[int, ...] = (1, 2, 3)
    estimators: str = "both"
    variance_mode: str = "replicated"
    variance_blocks: int = 100
    k_max: int = 1
    modulation_variance: float = 4.0
    detector_efficiency: float = 0.6
    electronic_noise: float = 0.05
    reconciliation_efficiency: float = 0.95
    detections: tuple[str, ...] = ("homodyne", "heterodyne")
    out_dir: str = "out"

    def __post_init__(self) -> None:
        if self.source not in SOURCE_CHOICES:
            raise ValueError(f"ensemble.source must be one of {SOURCE_CHOICES}, got {self.source!r}")
        if self.source == "file" and not self.ensemble_file:
            raise ValueError("ensemble.file is required when ensemble.source = file")
        if self.subchannels < 1:
            raise ValueError(f"ensemble.subchannels must be >= 1, got {self.subchannels}")
        if self.block_length < 2:
            raise ValueError(f"ensemble.block_length must be >= 2, got {self.block_length}")
        if self.source == "sampler" and not self.distances_km:
            raise ValueError("ensemble.distances_km must not be empty when ensemble.source = sampler")
        for key, value in (
            ("ensemble.excess_noise", self.excess_noise),
            ("ensemble.attenuation_per_km", self.attenuation_per_km),
            ("ensemble.sigma_log", self.sigma_log),
            *(("ensemble.distances_km entries", d) for d in self.distances_km),
        ):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{key} must be finite and >= 0, got {value}")
        if not self.fractions:
            raise ValueError("estimation.fractions must not be empty")
        for f in self.fractions:
            if not 0 < f <= 1:
                raise ValueError(f"estimation.fractions entries must be in (0, 1], got {f}")
        if not self.seeds:
            raise ValueError("estimation.seeds must not be empty")
        for key, value in (
            ("ensemble.sampler_seed", self.sampler_seed),
            *(("estimation.seeds entries", s) for s in self.seeds),
        ):
            if value < 0:
                raise ValueError(f"{key} must be >= 0, got {value}")
        for key, values in (
            ("ensemble.distances_km", self.distances_km),
            ("estimation.fractions", self.fractions),
            ("estimation.seeds", self.seeds),
            ("security.detections", self.detections),
        ):
            if len(set(values)) != len(values):
                raise ValueError(f"{key} must not repeat entries, got {_fmt_seq(values)}")
        if self.estimators not in ESTIMATOR_CHOICES:
            raise ValueError(
                f"estimation.estimators must be one of {ESTIMATOR_CHOICES}, got {self.estimators!r}"
            )
        if self.variance_mode not in VARIANCE_MODE_CHOICES:
            raise ValueError(
                f"estimation.variance_mode must be one of {VARIANCE_MODE_CHOICES}, "
                f"got {self.variance_mode!r}"
            )
        if self.variance_mode == "blockwise" and (
            self.variance_blocks < 1
            or self.block_length % self.variance_blocks
            or self.block_length // self.variance_blocks < 2
        ):
            raise ValueError(
                f"estimation.variance_blocks must divide ensemble.block_length = {self.block_length} "
                f"into sub-blocks of at least 2 samples, got {self.variance_blocks}"
            )
        if self.k_max < 1:
            raise ValueError(f"estimation.k_max must be >= 1, got {self.k_max}")
        if not self.detections:
            raise ValueError("security.detections must not be empty")
        for d in self.detections:
            if d not in DETECTIONS:
                raise ValueError(f"security.detections entries must be in {DETECTIONS}, got {d!r}")
        try:
            self.protocol
        except ValueError as exc:
            # building the protocol validates it; its messages begin with the field name
            raise ValueError(f"protocol.{exc}") from exc

    @property
    def protocol(self) -> ProtocolParams:
        return ProtocolParams(
            modulation_variance=self.modulation_variance,
            detector_efficiency=self.detector_efficiency,
            electronic_noise=self.electronic_noise,
            reconciliation_efficiency=self.reconciliation_efficiency,
        )

    @property
    def estimator_names(self) -> tuple[str, ...]:
        if self.estimators == "both":
            return ("variables", "statistics")
        return (self.estimators,)


# config file schema: section -> key -> (parser, formatter, field name)
def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _strs(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _fmt_seq(values: Sequence) -> str:
    return ",".join(repr(v) if isinstance(v, float) else str(v) for v in values)


_SCHEMA: dict[str, dict[str, tuple]] = {
    "ensemble": {
        "source": (str, str, "source"),
        "file": (str, str, "ensemble_file"),
        "distances_km": (_floats, _fmt_seq, "distances_km"),
        "subchannels": (int, str, "subchannels"),
        "block_length": (int, str, "block_length"),
        "excess_noise": (float, repr, "excess_noise"),
        "sampler_seed": (int, str, "sampler_seed"),
        "attenuation_per_km": (float, repr, "attenuation_per_km"),
        "sigma_log": (float, repr, "sigma_log"),
    },
    "protocol": {
        "modulation_variance": (float, repr, "modulation_variance"),
        "detector_efficiency": (float, repr, "detector_efficiency"),
        "electronic_noise": (float, repr, "electronic_noise"),
        "reconciliation_efficiency": (float, repr, "reconciliation_efficiency"),
    },
    "estimation": {
        "fractions": (_floats, _fmt_seq, "fractions"),
        "seeds": (_ints, _fmt_seq, "seeds"),
        "estimators": (str, str, "estimators"),
        "variance_mode": (str, str, "variance_mode"),
        "variance_blocks": (int, str, "variance_blocks"),
        "k_max": (int, str, "k_max"),
    },
    "security": {
        "detections": (_strs, _fmt_seq, "detections"),
    },
    "output": {
        "directory": (str, str, "out_dir"),
    },
}


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a flat key-value config file; unknown keys are an error."""
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    with path.open() as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            # headerless lines, repeated keys or sections, keys without a value
            raise ValueError(f"{path}: {' '.join(str(exc).split())}") from exc
    unknown: list[str] = []
    values: dict[str, object] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            keys = list(parser[section]) or [""]
            unknown.extend(f"{section}.{k}".rstrip(".") for k in keys)
            continue
        for key, raw in parser[section].items():
            spec = _SCHEMA[section].get(key)
            if spec is None:
                unknown.append(f"{section}.{key}")
                continue
            parse, _, attr = spec
            try:
                values[attr] = parse(raw)
            except ValueError as exc:
                raise ValueError(f"{path}: bad value for {section}.{key}: {raw!r}") from exc
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(sorted(unknown))}")
    config = ExperimentConfig(**values)
    if config.source == "file":
        target = Path(config.ensemble_file)
        if not target.is_absolute():
            target = path.parent / target
        try:
            found = target.exists()
        except OSError:  # e.g. a name too long to look up
            found = False
        if not found:
            raise ValueError(f"{path}: ensemble file does not exist: {target}")
        config = dataclasses.replace(config, ensemble_file=str(target))
    return config


def write_config(config: ExperimentConfig, path: str | Path | None = None) -> str:
    """Serialize a config so that load(write(x)) == x; optionally write it."""
    parser = configparser.ConfigParser(interpolation=None)
    for section, keys in _SCHEMA.items():
        parser[section] = {}
        for key, (_, fmt, attr) in keys.items():
            value = getattr(config, attr)
            if value is None:
                continue
            parser[section][key] = fmt(value)
    buf = io.StringIO()
    parser.write(buf)
    text = buf.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text


def config_hash(config: ExperimentConfig) -> str:
    """Hash of the serialized config with the output directory blanked:
    where results are written does not change them."""
    text = write_config(dataclasses.replace(config, out_dir=""))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def compute_mse(estimates: Sequence[float], truth: Sequence[float]) -> float:
    """Mean squared error between aligned estimate and truth lists."""
    a = np.asarray(estimates, dtype=float)
    b = np.asarray(truth, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError(f"estimates and truth must be equal-length 1-d, got {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


@dataclass
class EstimateRow:
    distance: float
    subchannel: int
    fraction: float
    seed: int
    estimator: str
    t_true: float
    t_hat: float
    eps_true: float
    eps_hat: float
    residual: float
    flags: str


@dataclass
class MseRow:
    distance: float
    fraction: float
    estimator: str
    seeds: int
    mse_t: float
    mse_eps: float


@dataclass
class KeyrateRow:
    distance: float
    detection: str
    source: str
    i_ab: float
    chi_be: float
    k: float


@dataclass
class MipRow:
    distance: float
    subchannel: int
    fraction: float
    model: str
    mip: float
    subsampled: bool


@dataclass
class RunReport:
    config: ExperimentConfig
    config_hash: str
    estimate_rows: list[EstimateRow] = field(default_factory=list)
    mse_rows: list[MseRow] = field(default_factory=list)
    keyrate_rows: list[KeyrateRow] = field(default_factory=list)
    mip_rows: list[MipRow] = field(default_factory=list)


def _ensemble_for(config: ExperimentConfig, distance_index: int) -> SubChannelEnsemble:
    if config.source == "file":
        return ensemble_from_csv(
            config.ensemble_file,
            excess_noise=config.excess_noise,
            block_length=config.block_length,
        )
    seed = int(np.random.SeedSequence((config.sampler_seed, distance_index)).generate_state(1)[0])
    t = sample_lognormal_transmittances(
        config.subchannels,
        config.distances_km[distance_index],
        seed=seed,
        attenuation_per_km=config.attenuation_per_km,
        sigma_log=config.sigma_log,
    )
    return build_ensemble(t, excess_noise=config.excess_noise, block_length=config.block_length)


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(tuple(parts)).generate_state(1)[0])


def _cell_estimates(
    estimator: str,
    dataset: QuadratureDataset,
    measured: list,
    plans: list,
    config: ExperimentConfig,
    statistics_configs: list[OmpConfig],
) -> list[SubChannelEstimate]:
    """Estimates of every sub-channel of one (seed, fraction, estimator) cell."""
    params = config.protocol
    if estimator == "statistics":
        return fit_cell_statistics(measured, params, plans, omp=statistics_configs)
    return fit_cell_variables(
        dataset.alice, dataset.bob, plans, params, OmpConfig(k_max=config.k_max)
    )


def run_sweep(config: ExperimentConfig) -> RunReport:
    """Execute the full experiment grid described by ``config``."""
    report = RunReport(config=config, config_hash=config_hash(config))
    params = config.protocol
    fractions = sorted(config.fractions)
    keyrate_fraction = fractions[-1]
    keyrate_seed = config.seeds[0]

    for d_idx, distance in enumerate(config.distances_km if config.source == "sampler" else (0.0,)):
        ensemble = _ensemble_for(config, d_idx)
        t_true = ensemble.transmittances.tolist()
        eps_true = ensemble.excess_noises.tolist()
        t_mean, sqrt_t_mean, eps_mean = ensemble_means(ensemble)
        # the statistics fit keeps its residual bound at the model-exact
        # disturbance scale eta*T_i*eps_i of each sub-channel
        statistics_configs = [
            OmpConfig(
                k_max=1,
                noise_scale=params.detector_efficiency * sub.transmittance * sub.excess_noise,
                shrink_to_delta=True,
            )
            for sub in ensemble.channels
        ]

        # per-seed estimates
        keyrate_aggregates: dict[str, AggregateEstimate | None] = {}
        per_cell: dict[tuple[float, str], list[tuple[np.ndarray, np.ndarray]]] = {}
        for seed in config.seeds:
            dataset = simulate_block(ensemble, params, seed=_derived_seed(seed, d_idx))
            measured: list = []
            if "statistics" in config.estimator_names:
                if config.variance_mode == "replicated":
                    measured = [measured_variance(y) for y in dataset.bob]
                else:
                    measured = [subblock_variances(y, config.variance_blocks) for y in dataset.bob]
            for f_idx, fraction in enumerate(fractions):
                # fraction 1 keeps every row without a draw, so it needs no generator
                rng = np.random.default_rng((seed, d_idx, f_idx)) if fraction < 1 else 0
                plans = [
                    make_sampling_plan(ensemble.channels[i].block_length, fraction, rng)
                    for i in range(ensemble.count)
                ]
                for estimator in config.estimator_names:
                    estimates = _cell_estimates(
                        estimator, dataset, measured, plans, config, statistics_configs
                    )
                    report.estimate_rows.extend(
                        EstimateRow(
                            distance, i, fraction, seed, estimator, t_true[i], est.t_hat,
                            eps_true[i], est.eps_hat, est.residual_norm, ";".join(est.flags),
                        )
                        for i, est in enumerate(estimates)
                    )
                    usable = [e for e in estimates if e.usable]
                    cell = per_cell.setdefault((fraction, estimator), [])
                    if usable:
                        cell.append(
                            (
                                np.array([(e.t_hat, e.eps_hat) for e in usable]),
                                np.array([(t_true[e.index], eps_true[e.index]) for e in usable]),
                            )
                        )
                    if seed == keyrate_seed and fraction == keyrate_fraction:
                        keyrate_aggregates[estimator] = (
                            aggregate_estimates(estimates, ensemble.probabilities) if usable else None
                        )
                # coherence diagnostics, once per (fraction, channel, model)
                if seed == config.seeds[0]:
                    for estimator in config.estimator_names:
                        for i in range(ensemble.count):
                            if estimator == "variables":
                                op = RowSampledIdftOperator(dataset.alice[i], plans[i].indices)
                            else:
                                op = RowSampledIdftOperator(
                                    np.full(
                                        ensemble.channels[i].block_length,
                                        params.modulation_variance,
                                    ),
                                    plans[i].indices,
                                )
                            report.mip_rows.append(
                                MipRow(
                                    distance=distance,
                                    subchannel=i,
                                    fraction=fraction,
                                    model=estimator,
                                    mip=mutual_incoherence(op),
                                    subsampled=False,
                                )
                            )

        for (fraction, estimator), pairs in sorted(per_cell.items(), key=lambda kv: (kv[0][0], kv[0][1])):
            # a cell with no usable estimate over all seeds keeps its row, as NaN
            mse_t = mse_eps = math.nan
            if pairs:
                hat = np.vstack([p[0] for p in pairs])
                true = np.vstack([p[1] for p in pairs])
                mse_t = compute_mse(hat[:, 0], true[:, 0])
                mse_eps = compute_mse(hat[:, 1], true[:, 1])
            report.mse_rows.append(
                MseRow(
                    distance=distance,
                    fraction=fraction,
                    estimator=estimator,
                    seeds=len(config.seeds),
                    mse_t=mse_t,
                    mse_eps=mse_eps,
                )
            )

        # key rates under true and estimated summaries; an estimator with no
        # usable estimate in the key-rate cell gets NaN rates
        summaries = {"true": summary_from_means(t_mean, sqrt_t_mean, eps_mean, source="true")}
        for estimator, aggregate in keyrate_aggregates.items():
            source = f"estimated-{estimator}"
            summaries[source] = None if aggregate is None else summary_from_means(
                aggregate.t_mean_clamped,
                aggregate.sqrt_t_mean,
                aggregate.eps_mean_clamped,
                source=source,
            )
        for detection in config.detections:
            det_params = dataclasses.replace(params, detection=detection)
            for source, summary in summaries.items():
                if summary is None:
                    report.keyrate_rows.append(
                        KeyrateRow(distance, detection, source, math.nan, math.nan, math.nan)
                    )
                    continue
                rate = secret_key_rate(summary, det_params)
                report.keyrate_rows.append(
                    KeyrateRow(
                        distance=distance,
                        detection=detection,
                        source=source,
                        i_ab=rate.i_ab,
                        chi_be=rate.chi_be,
                        k=rate.key_rate,
                    )
                )
    return report


def _row_template(row_type: type) -> str:
    """One ``%`` format for a row dataclass: floats as ``%.12g``, the rest as str."""
    fields = dataclasses.fields(row_type)
    return ",".join("%.12g" if f.type in (float, "float") else "%s" for f in fields) + "\n"


def _write_csv(path: Path, header: Sequence[str], row_type: type, rows: Sequence) -> None:
    """Write ``rows`` (instances of the dataclass ``row_type``) under ``header``."""
    template = _row_template(row_type)
    values = operator.attrgetter(*(f.name for f in dataclasses.fields(row_type)))
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("".join([template % values(row) for row in rows]))


def write_reports(report: RunReport, out_dir: str | Path) -> dict[str, Path]:
    """Write the CSV set and the run manifest; returns the file map."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {
        "estimates": out / "estimates.csv",
        "mse": out / "mse.csv",
        "keyrate": out / "keyrate.csv",
        "mip": out / "mip.csv",
        "manifest": out / "run.json",
    }
    _write_csv(
        files["estimates"],
        ["distance", "subchannel", "fraction", "seed", "estimator",
         "T_true", "T_hat", "eps_true", "eps_hat", "residual", "flags"],
        EstimateRow,
        report.estimate_rows,
    )
    _write_csv(
        files["mse"],
        ["distance", "fraction", "estimator", "seeds", "MSE_T", "MSE_eps"],
        MseRow,
        report.mse_rows,
    )
    _write_csv(
        files["keyrate"],
        ["distance", "detection", "source", "I_AB", "chi_BE", "K"],
        KeyrateRow,
        report.keyrate_rows,
    )
    _write_csv(
        files["mip"],
        ["distance", "subchannel", "fraction", "model", "mip", "subsampled"],
        MipRow,
        report.mip_rows,
    )
    manifest = {
        "config_hash": report.config_hash,
        "package_version": __version__,
        "config": {f.name: getattr(report.config, f.name) for f in dataclasses.fields(report.config)},
    }
    files["manifest"].write_text(json.dumps(manifest, indent=2) + "\n")
    return files


def preset_config(name: str) -> ExperimentConfig:
    """Built-in experiment scales: 'desk' runs in seconds, 'paper' at full size."""
    if name == "desk":
        return ExperimentConfig()
    if name == "paper":
        return ExperimentConfig(
            distances_km=(5.0, 10.0, 15.0, 20.0),
            subchannels=100,
            block_length=10_000,
            fractions=(0.1, 0.4, 1.0),
            seeds=(1,),
        )
    raise ValueError(f"unknown preset {name!r} (expected 'desk' or 'paper')")
