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

A sweep runs each (distance, seed) in three stages, one group of
sub-channels at a time:

- simulate: :func:`run_sweep` draws a group's (x, y) blocks from the
  distance's ensemble with ``simulate_block(..., subchannels=group)``;
- estimate: :func:`_fit_group` takes those blocks, never the ensemble,
  validates them, draws the group's plans and returns the fit of each
  (fraction, estimator) cell and, at the first seed, its coherence values;
- score: after the last group, ``run_sweep`` joins each cell's group fits
  in sub-channel order and reads the estimate rows, the MSE inputs and, at
  the first seed, the key-rate aggregate off the columns, next to the
  truth.

The variable-based estimator runs at the configured ``k_max`` without a
noise scale: the closed-form DC projection at 1 and OMP above it.  The
statistics estimator runs the one-atom projection with the residual
constraint active at the model-exact disturbance scale eta*T_i*eps_i,
known here because the harness owns the simulation ground truth:
``run_sweep`` reads it into ``noise_oracle`` and passes each group its
slice as ``noise_scale``, the one truth array that estimation reads.  The
coherence diagnostic builds the row-sampled IDFT operator of each model
and passes a sub-channel's operators to one
:func:`~csqkd.sensing.mutual_incoherence` call, which runs their Gram
transforms as one two-row call.

The groups are the consecutive sub-channels whose blocks fit
:data:`GROUP_BYTES`; a group's blocks live only in its estimation call, so
they, its variances and its plans are freed before the next group's blocks
are simulated.  A seed that fits the budget is one group.  The plan
generator of each (seed, distance, fraction < 1) cell lives across its
groups, and each sub-channel is fitted on its own, so the output does not
depend on the budget.  Every cell fit of the sweep gathers its sampled rows
into one work area, which :func:`run_sweep` allocates before the first
distance and frees when it returns, so no fit allocates chunk-sized arrays
of its own.

A (fraction, estimator) cell with no usable estimate over all seeds keeps its
``mse.csv`` row with NaN errors, and an estimator with no usable estimate in
the key-rate cell (largest fraction, first seed), or only usable estimates of
probability 0, gets NaN key-rate columns, so every grid writes the same row
counts.  Each table is written with one ``%`` template per row type:
``%.12g`` for float fields, ``%s`` otherwise.

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
import numbers
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
    CellFit,
    _fit_statistics,
    _fit_variables,
    _statistics_input,
    _variables_inputs,
    _work_area,
    aggregate_estimates,
    block_variances,
    estimate_subchannel_statistics,
    estimate_subchannel_variables,
    measured_variance,
    subblock_variances,
)
from .sensing import RowSampledIdftOperator, make_sampling_plan, mutual_incoherence
from .security import secret_key_rate, summary_from_means

ESTIMATOR_CHOICES = ("variables", "statistics", "both")
SOURCE_CHOICES = ("sampler", "file")
VARIANCE_MODE_CHOICES = ("replicated", "blockwise")

#: Bytes of the (x, y) blocks of the group of sub-channels that a sweep holds
#: at a time: 13 sub-channels at m = 10^4.  Freeing the first group's buffer
#: raises glibc's heap trim threshold to twice its size, above the heap top
#: that a group's buffer and temporaries leave; at 1 MiB they passed it, and
#: the top was trimmed and faulted back in group after group.  It stays below
#: the 4 MiB from which numpy asks for huge pages.
GROUP_BYTES = 2 * 1024 * 1024


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
        # variance_blocks is read, and bounded below, in blockwise mode only
        for key, value, least in (
            ("ensemble.subchannels", self.subchannels, 1),
            ("ensemble.block_length", self.block_length, 2),
            ("ensemble.sampler_seed", self.sampler_seed, 0),
            ("estimation.variance_blocks", self.variance_blocks, None),
            ("estimation.k_max", self.k_max, 1),
            *(("estimation.seeds entries", s, 0) for s in self.seeds),
        ):
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{key} must be an integer, got {value!r}")
            if least is not None and value < least:
                raise ValueError(f"{key} must be >= {least}, got {value}")
        if self.source not in SOURCE_CHOICES:
            raise ValueError(f"ensemble.source must be one of {SOURCE_CHOICES}, got {self.source!r}")
        if self.source == "file" and not self.ensemble_file:
            raise ValueError("ensemble.file is required when ensemble.source = file")
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
        for d in self.distances_km if self.source == "sampler" else ():
            if math.exp(-self.attenuation_per_km * d) == 0:
                raise ValueError(f"ensemble.distances_km entry {d} gives a mean transmittance of 0")
        if not self.fractions:
            raise ValueError("estimation.fractions must not be empty")
        for f in self.fractions:
            if not 0 < f <= 1:
                raise ValueError(f"estimation.fractions entries must be in (0, 1], got {f}")
        if not self.seeds:
            raise ValueError("estimation.seeds must not be empty")
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
    if not config.out_dir:
        # Path("") is the working directory, whose files the sweep would overwrite
        raise ValueError(f"{path}: output.directory must not be empty")
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
    """Hash of the serialized config with the output directory blanked and a
    file ensemble's path replaced by the SHA-256 of its bytes: where results
    are written, or where the ensemble is read from, does not change them,
    and an edited ensemble file does."""
    keyed = dataclasses.replace(config, out_dir="")
    if config.source == "file":
        digest = hashlib.sha256(Path(config.ensemble_file).read_bytes()).hexdigest()
        keyed = dataclasses.replace(keyed, ensemble_file=f"sha256:{digest}")
    text = write_config(keyed)
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


def _groups(lengths: Sequence[int]) -> list[range]:
    """Consecutive sub-channel ranges whose (x, y) blocks, 16 bytes a
    sample, fit GROUP_BYTES; a larger block is a group of its own."""
    groups = []
    start = size = 0
    for i, n in enumerate(lengths):
        if i > start and size + 16 * n > GROUP_BYTES:
            groups.append(range(start, i))
            start, size = i, 0
        size += 16 * n
    groups.append(range(start, len(lengths)))
    return groups


def _joined(fits: Sequence[CellFit]) -> CellFit:
    """The fit of a cell from the fits of its consecutive groups, in order."""
    if len(fits) == 1:
        return fits[0]
    return CellFit(**{
        name: [flag for fit in fits for flag in fit.flags] if name == "flags"
        else np.concatenate([getattr(fit, name) for fit in fits])
        for name in vars(fits[0])
    })


def _fit_group(
    config: ExperimentConfig,
    group: range,
    dataset: QuadratureDataset,
    rngs: list[np.random.Generator | int],
    noise_scale: np.ndarray,
    work: np.ndarray,
    coherence: bool,
) -> tuple[dict[tuple[int, str], CellFit], list[list[tuple[float, ...]]] | None]:
    """Estimate every cell of one simulated group of sub-channels from its
    blocks and the public protocol, never from the ensemble.

    ``dataset`` holds the blocks of the sub-channels in ``group``, which
    validation errors name by their absolute index.  The blocks and measured
    variances are validated once; at each fraction the plans are drawn from
    that fraction's generator in ``rngs`` (0 for fraction 1, which draws
    nothing) and fitted in the sweep's ``work`` area, the variables route at
    the configured ``k_max`` and the one-atom statistics route at
    ``noise_scale``, the one array of the group's truth that estimation
    reads.  Returns the fit of each (fraction index, estimator) and, with
    ``coherence``, the coherence values of each sub-channel per fraction.
    """
    params = config.protocol
    n = config.block_length
    if "variables" in config.estimator_names:
        alice, bob = zip(*(
            _variables_inputs(x, y, n, f"x_blocks[{i}]", f"y_blocks[{i}]")
            for i, x, y in zip(group, dataset.alice, dataset.bob)
        ))
    if "statistics" in config.estimator_names:
        replicated = config.variance_mode == "replicated"
        measured = [
            _statistics_input(
                measured_variance(y) if replicated else subblock_variances(y, config.variance_blocks),
                n,
                f"measured[{i}]",
            )
            for i, y in zip(group, dataset.bob)
        ]
    fits = {}
    mips = [] if coherence else None
    for f_idx, (fraction, rng) in enumerate(zip(sorted(config.fractions), rngs)):
        plans = [make_sampling_plan(n, fraction, rng) for _ in group]
        for estimator in config.estimator_names:
            if estimator == "statistics":
                fits[f_idx, estimator] = _fit_statistics(measured, params, plans, 1, noise_scale, True, work=work)
            else:
                fits[f_idx, estimator] = _fit_variables(
                    alice, bob, plans, params, config.k_max, 0.0, False, work=work
                )
        # coherence diagnostics, once per (fraction, channel, model): one call
        # per sub-channel takes the operators of all its models
        if coherence:
            values = []
            for j, plan in enumerate(plans):
                ops = [
                    RowSampledIdftOperator(
                        dataset.alice[j]
                        if estimator == "variables"
                        else np.full(n, params.modulation_variance),
                        plan.indices,
                    )
                    for estimator in config.estimator_names
                ]
                mip = mutual_incoherence(*ops)
                values.append(mip if len(ops) > 1 else (mip,))
            mips.append(values)
    return fits, mips


def run_sweep(config: ExperimentConfig) -> RunReport:
    """Execute the full experiment grid described by ``config``."""
    report = RunReport(config=config, config_hash=config_hash(config))
    params = config.protocol
    fractions = sorted(config.fractions)
    # every cell fit of the sweep gathers its sampled rows here
    work = _work_area(config.block_length)

    for d_idx, distance in enumerate(config.distances_km if config.source == "sampler" else (0.0,)):
        ensemble = _ensemble_for(config, d_idx)
        t_mean, sqrt_t_mean, eps_mean = ensemble_means(ensemble)
        t_true, eps_true = ensemble.transmittances, ensemble.excess_noises
        rows_t, rows_eps = t_true.tolist(), eps_true.tolist()
        # the statistics fit keeps its residual bound at the model-exact
        # disturbance scale eta*T_i*eps_i of each sub-channel, read off the truth
        noise_oracle = params.detector_efficiency * t_true * eps_true
        groups = _groups([sub.block_length for sub in ensemble.channels])
        keyrate_aggregates: dict[str, AggregateEstimate | None] = {}
        per_cell: dict[tuple[float, str], list[tuple[np.ndarray, ...]]] = {}
        for seed in config.seeds:
            first_seed = seed == config.seeds[0]
            # fraction 1 keeps every row without a draw, so it needs no generator
            rngs = [np.random.default_rng((seed, d_idx, f_idx)) if f < 1 else 0 for f_idx, f in enumerate(fractions)]
            sim_seed = _derived_seed(seed, d_idx)
            # a group's blocks live only in its estimation call, so they are
            # freed before the next group is simulated
            results = [
                _fit_group(
                    config, group, simulate_block(ensemble, params, seed=sim_seed, subchannels=group),
                    rngs, noise_oracle[group.start : group.stop], work, first_seed,
                )
                for group in groups
            ]

            # score: the cell's group fits joined in order, against the truth
            for f_idx, fraction in enumerate(fractions):
                for estimator in config.estimator_names:
                    fit = _joined([fits[f_idx, estimator] for fits, _ in results])
                    report.estimate_rows.extend(
                        EstimateRow(distance, i, fraction, seed, estimator, t, t_hat, e, eps_hat, r, f)
                        for i, (t, t_hat, e, eps_hat, r, f) in enumerate(
                            zip(rows_t, fit.t_hat.tolist(), rows_eps, fit.eps_hat.tolist(),
                                fit.residual.tolist(), fit.flags)
                        )
                    )
                    usable = fit.usable
                    per_cell.setdefault((fraction, estimator), []).append(
                        (fit.t_hat[usable], fit.eps_hat[usable], t_true[usable], eps_true[usable])
                    )
                    if first_seed and fraction == fractions[-1]:
                        # usable estimates of total probability 0 are none to aggregate
                        p = ensemble.probabilities
                        keyrate_aggregates[estimator] = aggregate_estimates(fit, p) if p[usable].sum() > 0 else None
                if first_seed:
                    values = [v for _, mips in results for v in mips[f_idx]]
                    for e_idx, estimator in enumerate(config.estimator_names):
                        report.mip_rows.extend(
                            MipRow(distance, i, fraction, estimator, v[e_idx], False) for i, v in enumerate(values)
                        )
            # freed before the next seed is simulated: left alive under its
            # group buffers, a seed's fits and generators raised a
            # lowsnr-blockwise sweep's peak RSS by about 0.5 MiB
            del results, fit, usable, rngs

        for (fraction, estimator), columns in sorted(per_cell.items(), key=lambda kv: (kv[0][0], kv[0][1])):
            # a cell with no usable estimate over all seeds keeps its row, as NaN
            mse_t = mse_eps = math.nan
            t_hat, eps_hat, t, eps = (np.concatenate(c) for c in zip(*columns))
            if t_hat.size:
                mse_t = compute_mse(t_hat, t)
                mse_eps = compute_mse(eps_hat, eps)
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
