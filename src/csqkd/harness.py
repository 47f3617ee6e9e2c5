"""Experiment driver: config ingestion, Monte-Carlo sweeps, CSV reporting.

A sweep walks the grid (distance label) x (sampling fraction) x (seed),
simulates quadrature data on a fresh ensemble per distance, runs the selected
estimators, and records per-sub-channel estimates, per-cell mean squared
errors, sensing-matrix coherence diagnostics, and secret key rates under the
true and estimated channel summaries.  Output is plot-ready CSV, one table
per row type, whose ``header`` holds the table's columns:

    estimates.csv  EstimateRow
    mse.csv        MseRow
    keyrate.csv    KeyrateRow
    mip.csv        MipRow

plus a ``run.json`` manifest carrying the CSV schema version, the echoed
config and its hash so any row can be reproduced exactly.  All randomness
derives from the configured seeds, so reruns are byte-identical.  The
sampling plans of a (seed, distance, fraction < 1) cell are drawn in
sub-channel order from one generator seeded ``(seed, distance index, index
in the sorted fractions)``, a group's plans as the rows of one index array
(:func:`~csqkd.sensing._cell_plans`); fraction 1 keeps every row and draws
nothing.

A sweep runs each (distance, seed) in three stages, one group of
sub-channels at a time:

- simulate: :func:`run_sweep` draws a group's (x, y) blocks from the
  distance's ensemble with ``simulate_block(..., subchannels=group)``;
- estimate: :func:`_fit_group` takes those blocks, never the ensemble,
  validates them, draws the group's plans, one index array per fraction,
  and fits the planes of the dataset's one buffer, Alice's and Bob's, at
  them; it returns the fit of each (fraction, estimator) cell and, at the
  first seed, its coherence values;
- score: after the last group, ``run_sweep`` joins each cell's group fits
  and coherence values in sub-channel order and reads the estimate rows,
  the MSE inputs and, at the first seed, the MIP rows and the key-rate
  aggregate off the columns, next to the truth.

The variable-based estimator runs at the configured ``k_max`` without a
noise scale: the closed-form DC projection at 1 and OMP above it.  The
statistics estimator runs the one-atom projection with the residual
constraint active at the model-exact disturbance scale eta*T_i*eps_i,
known here because the harness owns the simulation ground truth:
``run_sweep`` reads it into ``noise_oracle`` and passes each group a copy
of its slice as ``noise_scale``, the one truth array that estimation reads
(a view would carry the whole distance's array in its ``base``).  The
coherence diagnostic needs the Gram of each (sub-channel, model) operator.
At ``k_max > 1`` the variables fit reads it for each row that OMP solves,
off the Gram the solve cached, right after the solve; so no transform is
repeated and no operator outlives its row.  For the rows left (the
statistics model, a zero Alice column, every row at ``k_max = 1``) the
harness builds the row-sampled IDFT operators and passes them two to a
:func:`~csqkd.sensing.mutual_incoherence` call, which runs their Gram
transforms as one two-row call.

The groups are the consecutive sub-channels whose blocks fit
:data:`GROUP_BYTES`; a group's blocks live only in its estimation call, so
they, its variances and its plans are freed before the next group's blocks
are simulated.  A seed that fits the budget is one group.  The plan
generator of each (seed, distance, fraction < 1) cell lives across its
groups, and each sub-channel is fitted on its own, so the output does not
depend on the budget.  Every cell fit of the sweep gathers all its sampled
rows into one work area.  :func:`run_sweep` allocates it before the first
distance, at the size of the largest cell (the first group at the largest
fraction), in a mapping of its own, and frees it when it returns; no fit
allocates arrays of its rows.  So the budget bounds the gathered rows as
well: a cell's two rows take at most the bytes of its group's (x, y)
blocks.

A (fraction, estimator) cell with no usable estimate over all seeds keeps its
``mse.csv`` row with NaN errors, and an estimator with no usable estimate in
the key-rate cell (largest fraction, first seed), or only usable estimates of
probability 0, gets NaN key-rate columns, so every grid writes the same row
counts.  Each table is written with one ``%`` template per row type:
``%.12g`` for float fields, ``%s`` otherwise, applied to the row tuple.

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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .channel import (
    DEFAULT_DETECTOR_EFFICIENCY,
    DEFAULT_ELECTRONIC_NOISE,
    DEFAULT_MODULATION_VARIANCE,
    DEFAULT_RECONCILIATION_EFFICIENCY,
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
# perfbench/tracing.py wraps names in this module, so block_variances,
# measured_variance, make_sampling_plan and both estimate_subchannel_* stay
# importable here though the sweep does not call them
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
from .sensing import (  # noqa: F401
    RowSampledIdftOperator, _cell_plans, _row_dots, _sample_count, make_sampling_plan, mutual_incoherence,
)
from .security import secret_key_rate, summary_from_means

ESTIMATOR_CHOICES = ("variables", "statistics", "both")
SOURCE_CHOICES = ("sampler", "file")
VARIANCE_MODE_CHOICES = ("replicated", "blockwise")

#: Bytes of the (x, y) blocks of the group of sub-channels that a sweep holds
#: at a time: 13 sub-channels at m = 10^4.  Through the group it also bounds
#: the sampled rows that every cell fit gathers, which take at most the bytes
#: of the group's blocks.  Freeing the first group's buffer raises glibc's
#: heap trim threshold to twice its size, above the heap top that a group's
#: buffer and temporaries leave; at 1 MiB they passed it, and the top was
#: trimmed and faulted back in group after group.  It stays below the 4 MiB
#: from which numpy asks for huge pages.
GROUP_BYTES = 2 * 1024 * 1024


def _key(section: str, default: object, *, key: str | None = None, least: int | None = None):
    """A config field, declared as ``key`` (its own name by default) under
    ``[section]`` of the config file; an integer key is bounded below by
    ``least``, if given."""
    return field(default=default, metadata={"section": section, "key": key, "least": least})


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, fully-defaulted description of one sweep.

    Each field is one config key, declared with :func:`_key`; its type picks
    how the key's text is parsed and written (see :func:`_codec`)."""

    source: str = _key("ensemble", "sampler")
    ensemble_file: str | None = _key("ensemble", None, key="file")
    distances_km: tuple[float, ...] = _key("ensemble", (5.0, 10.0))
    subchannels: int = _key("ensemble", 20, least=1)
    block_length: int = _key("ensemble", 2000, least=2)
    excess_noise: float = _key("ensemble", 0.01)
    sampler_seed: int = _key("ensemble", 7, least=0)
    attenuation_per_km: float = _key("ensemble", 0.15)
    sigma_log: float = _key("ensemble", 0.3)
    fractions: tuple[float, ...] = _key("estimation", (0.1, 0.4, 1.0))
    seeds: tuple[int, ...] = _key("estimation", (1, 2, 3), least=0)
    estimators: str = _key("estimation", "both")
    variance_mode: str = _key("estimation", "replicated")
    # read, and bounded below, in blockwise mode only
    variance_blocks: int = _key("estimation", 100)
    k_max: int = _key("estimation", 1, least=1)
    modulation_variance: float = _key("protocol", DEFAULT_MODULATION_VARIANCE)
    detector_efficiency: float = _key("protocol", DEFAULT_DETECTOR_EFFICIENCY)
    electronic_noise: float = _key("protocol", DEFAULT_ELECTRONIC_NOISE)
    reconciliation_efficiency: float = _key("protocol", DEFAULT_RECONCILIATION_EFFICIENCY)
    detections: tuple[str, ...] = _key("security", ("homodyne", "heterodyne"))
    out_dir: str = _key("output", "out", key="directory")

    def __post_init__(self) -> None:
        k = _KEYS  # every message names a field by its config key
        for key in k.values():
            value = getattr(self, key.field)
            if key.kind is int:
                entries = [(str(key), value)]
            elif key.kind == tuple[int, ...]:
                entries = [(f"{key} entries", v) for v in value]
            else:
                continue
            for label, v in entries:
                # a bool is an Integral, but write_config would write it as True
                if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                    raise ValueError(f"{label} must be an integer, got {v!r}")
                if key.least is not None and v < key.least:
                    raise ValueError(f"{label} must be >= {key.least}, got {v}")
        if self.source not in SOURCE_CHOICES:
            raise ValueError(f"{k['source']} must be one of {SOURCE_CHOICES}, got {self.source!r}")
        if self.source == "file" and not self.ensemble_file:
            raise ValueError(f"{k['ensemble_file']} is required when {k['source']} = file")
        if self.source == "sampler" and not self.distances_km:
            raise ValueError(f"{k['distances_km']} must not be empty when {k['source']} = sampler")
        for label, value in (
            (k["excess_noise"], self.excess_noise),
            (k["attenuation_per_km"], self.attenuation_per_km),
            (k["sigma_log"], self.sigma_log),
            *((f"{k['distances_km']} entries", d) for d in self.distances_km),
        ):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{label} must be finite and >= 0, got {value}")
        for d in self.distances_km if self.source == "sampler" else ():
            if math.exp(-self.attenuation_per_km * d) == 0:
                raise ValueError(f"{k['distances_km']} entry {d} gives a mean transmittance of 0")
        if not self.fractions:
            raise ValueError(f"{k['fractions']} must not be empty")
        for f in self.fractions:
            if not 0 < f <= 1:
                raise ValueError(f"{k['fractions']} entries must be in (0, 1], got {f}")
        if not self.seeds:
            raise ValueError(f"{k['seeds']} must not be empty")
        for name in ("distances_km", "fractions", "seeds", "detections"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{k[name]} must not repeat entries, got {_fmt_seq(values)}")
        if self.estimators not in ESTIMATOR_CHOICES:
            raise ValueError(f"{k['estimators']} must be one of {ESTIMATOR_CHOICES}, got {self.estimators!r}")
        if self.variance_mode not in VARIANCE_MODE_CHOICES:
            raise ValueError(
                f"{k['variance_mode']} must be one of {VARIANCE_MODE_CHOICES}, got {self.variance_mode!r}"
            )
        if self.variance_mode == "blockwise" and (
            self.variance_blocks < 1
            or self.block_length % self.variance_blocks
            or self.block_length // self.variance_blocks < 2
        ):
            raise ValueError(
                f"{k['variance_blocks']} must divide {k['block_length']} = {self.block_length} "
                f"into sub-blocks of at least 2 samples, got {self.variance_blocks}"
            )
        if not self.detections:
            raise ValueError(f"{k['detections']} must not be empty")
        for d in self.detections:
            if d not in DETECTIONS:
                raise ValueError(f"{k['detections']} entries must be in {DETECTIONS}, got {d!r}")
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


def _fmt_seq(values: Sequence) -> str:
    return ",".join(repr(v) if isinstance(v, float) else str(v) for v in values)


def _codec(kind: object) -> tuple[Callable[[str], object], Callable[[object], str]]:
    """The parser and formatter of a config value of type ``kind``: a tuple is
    a comma-separated list of its item type, a float is written by ``repr``,
    and an optional value is read as its type."""
    if get_origin(kind) is tuple:
        item = get_args(kind)[0]
        return (lambda text: tuple(item(v.strip()) for v in text.split(",") if v.strip())), _fmt_seq
    kind = (get_args(kind) or (kind,))[0]
    return kind, repr if kind is float else str


class _Key(NamedTuple):
    """The config key of one ``ExperimentConfig`` field; ``str`` of it is the
    ``section.key`` that the file and every message use."""

    field: str
    section: str
    name: str
    kind: object
    least: int | None
    parse: Callable[[str], object]
    format: Callable[[object], str]

    def __str__(self) -> str:
        return f"{self.section}.{self.name}"


#: the config file's sections, in the order write_config writes them
_SECTIONS = ("ensemble", "protocol", "estimation", "security", "output")
_TYPES = get_type_hints(ExperimentConfig)
#: field name -> its config key
_KEYS = {
    f.name: _Key(f.name, f.metadata["section"], f.metadata["key"] or f.name, _TYPES[f.name], f.metadata["least"],
                 *_codec(_TYPES[f.name]))
    for f in dataclasses.fields(ExperimentConfig)
}
_FILE_KEYS = {(key.section, key.name): key for key in _KEYS.values()}


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
        if section not in _SECTIONS:
            keys = list(parser[section]) or [""]
            unknown.extend(f"{section}.{k}".rstrip(".") for k in keys)
            continue
        for name, raw in parser[section].items():
            key = _FILE_KEYS.get((section, name))
            if key is None:
                unknown.append(f"{section}.{name}")
                continue
            try:
                values[key.field] = key.parse(raw)
            except ValueError as exc:
                raise ValueError(f"{path}: bad value for {key}: {raw!r}") from exc
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(sorted(unknown))}")
    config = ExperimentConfig(**values)
    if not config.out_dir:
        # Path("") is the working directory, whose files the sweep would overwrite
        raise ValueError(f"{path}: {_KEYS['out_dir']} must not be empty")
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
    parser.read_dict(dict.fromkeys(_SECTIONS, {}))
    for key in _KEYS.values():
        value = getattr(config, key.field)
        if value is not None:
            parser[key.section][key.name] = key.format(value)
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


class EstimateRow(NamedTuple):
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
    header = ("distance", "subchannel", "fraction", "seed", "estimator",
              "T_true", "T_hat", "eps_true", "eps_hat", "residual", "flags")


class MseRow(NamedTuple):
    distance: float
    fraction: float
    estimator: str
    seeds: int
    mse_t: float
    mse_eps: float
    header = ("distance", "fraction", "estimator", "seeds", "MSE_T", "MSE_eps")


class KeyrateRow(NamedTuple):
    distance: float
    detection: str
    source: str
    i_ab: float
    chi_be: float
    k: float
    header = ("distance", "detection", "source", "I_AB", "chi_BE", "K")


class MipRow(NamedTuple):
    distance: float
    subchannel: int
    fraction: float
    model: str
    mip: float
    header = ("distance", "subchannel", "fraction", "model", "mip")


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


def _groups(count: int, block_length: int) -> list[range]:
    """Consecutive ranges over ``count`` sub-channels whose (x, y) blocks,
    16 bytes a sample, fit GROUP_BYTES; a larger block is a group of its own."""
    size = max(1, GROUP_BYTES // (16 * block_length))
    return [range(start, min(start + size, count)) for start in range(0, count, size)]


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
) -> tuple[dict[tuple[int, str], CellFit], dict[tuple[int, str], np.ndarray]]:
    """Estimate every cell of one simulated group of sub-channels from its
    blocks and the public protocol, never from the ensemble.

    ``dataset`` holds the blocks of the sub-channels in ``group``, which
    validation errors name by their absolute index; the fits read them as
    the two planes of its one buffer.  The blocks and measured variances
    (y.y / m of each row, or its sub-block variances) are validated once
    per row; at each fraction the group's plans are drawn from that
    fraction's generator in ``rngs`` (0 for fraction 1, which draws
    nothing) as the rows of one index array and fitted in the sweep's
    ``work`` area, the variables route at the configured ``k_max`` and the
    one-atom statistics route at ``noise_scale``, the one array of the
    group's truth that estimation reads.  Returns the fit of each (fraction index, estimator) and, keyed
    the same way, the coherence values of the group's sub-channels under
    that model: with ``coherence`` one array per cell, without it none.
    The variables fit fills the values of the rows that OMP solves; the
    rows left, in model then sub-channel order, take one
    :func:`~csqkd.sensing.mutual_incoherence` call per two, so at
    ``k_max = 1`` a group of both models runs one two-row transform per
    sub-channel.
    """
    params = config.protocol
    n = config.block_length
    # the group's blocks are the rows of the dataset's one (2, M_g, m) buffer
    alice, bob = dataset.alice[0].base
    if "variables" in config.estimator_names:
        for i, x, y in zip(group, alice, bob):
            _variables_inputs(x, y, n, f"x_blocks[{i}]", f"y_blocks[{i}]")
    if "statistics" in config.estimator_names:
        if config.variance_mode == "replicated":
            # each row's y.y / m, the bits of measured_variance(y)
            with np.errstate(over="ignore"):
                measured = _row_dots(bob, bob) / n
            for i, v in zip(group, measured.tolist()):
                _statistics_input(v, n, f"measured[{i}]")
        else:
            measured = np.stack([
                _statistics_input(subblock_variances(y, config.variance_blocks), n, f"measured[{i}]")
                for i, y in zip(group, bob)
            ])
    if coherence:
        # the statistics model's weights, shared by its operators
        flat = np.full(n, params.modulation_variance)
    fits, mips = {}, {}
    for f_idx, (fraction, rng) in enumerate(zip(sorted(config.fractions), rngs)):
        rows = _cell_plans(n, fraction, rng, len(group))
        for estimator in config.estimator_names:
            # coherence diagnostics, once per (fraction, channel, model): the
            # variables fit reads the rows that OMP solves, NaN marks the rest
            column = np.full(len(group), math.nan) if coherence else None
            if coherence:
                mips[f_idx, estimator] = column
            if estimator == "statistics":
                fits[f_idx, estimator] = _fit_statistics(measured, params, n, rows, 1, noise_scale, True, work=work)
            else:
                fits[f_idx, estimator] = _fit_variables(
                    alice, bob, rows, params, config.k_max, 0.0, False, work=work, coherence=column
                )
        if coherence:
            # the rows left, in model then sub-channel order, two per call
            left = [
                (estimator, j)
                for estimator in config.estimator_names
                for j in np.flatnonzero(np.isnan(mips[f_idx, estimator])).tolist()
            ]
            for pair in (left[i : i + 2] for i in range(0, len(left), 2)):
                values = mutual_incoherence(*(
                    RowSampledIdftOperator(alice[j] if estimator == "variables" else flat, rows[j])
                    for estimator, j in pair
                ))
                for (estimator, j), value in zip(pair, np.atleast_1d(values).tolist()):
                    mips[f_idx, estimator][j] = value
    return fits, mips


def run_sweep(config: ExperimentConfig) -> RunReport:
    """Execute the full experiment grid described by ``config``."""
    report = RunReport(config=config, config_hash=config_hash(config))
    params = config.protocol
    fractions = sorted(config.fractions)
    distances = config.distances_km if config.source == "sampler" else (0.0,)
    ensembles = [_ensemble_for(config, d_idx) for d_idx in range(len(distances))]
    # every cell fit of the sweep gathers its sampled rows here, sized for
    # the largest cell: the first group, of an ensemble's count (the same at
    # every distance), at the largest fraction
    work = _work_area(
        len(_groups(ensembles[0].count, config.block_length)[0]),
        _sample_count(config.block_length, fractions[-1]),
    )

    for d_idx, (distance, ensemble) in enumerate(zip(distances, ensembles)):
        t_mean, sqrt_t_mean, eps_mean = ensemble_means(ensemble)
        t_true, eps_true = ensemble.transmittances, ensemble.excess_noises
        rows_t, rows_eps = t_true.tolist(), eps_true.tolist()
        # the statistics fit keeps its residual bound at the model-exact
        # disturbance scale eta*T_i*eps_i of each sub-channel, read off the truth
        noise_oracle = params.detector_efficiency * t_true * eps_true
        groups = _groups(ensemble.count, config.block_length)
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
                    rngs, noise_oracle[group.start : group.stop].copy(), work, first_seed,
                )
                for group in groups
            ]

            # score: the cell's group fits joined in order, against the truth
            for f_idx, fraction in enumerate(fractions):
                for estimator in config.estimator_names:
                    cell = f_idx, estimator
                    fit = _joined([fits[cell] for fits, _ in results])
                    report.estimate_rows.extend(
                        EstimateRow(distance, i, fraction, seed, estimator, t, t_hat, e, eps_hat, r, f)
                        for i, (t, t_hat, e, eps_hat, r, f) in enumerate(
                            zip(rows_t, fit.t_hat.tolist(), rows_eps, fit.eps_hat.tolist(),
                                fit.residual.tolist(), fit.flags)
                        )
                    )
                    if first_seed:
                        values = np.concatenate([mips[cell] for _, mips in results]).tolist()
                        report.mip_rows.extend(
                            MipRow(distance, i, fraction, estimator, v) for i, v in enumerate(values)
                        )
                    usable = fit.usable
                    per_cell.setdefault((fraction, estimator), []).append(
                        (fit.t_hat[usable], fit.eps_hat[usable], t_true[usable], eps_true[usable])
                    )
                    if first_seed and fraction == fractions[-1]:
                        # usable estimates of total probability 0 are none to aggregate
                        p = ensemble.probabilities
                        keyrate_aggregates[estimator] = aggregate_estimates(fit, p) if p[usable].sum() > 0 else None
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
            report.mse_rows.append(MseRow(distance, fraction, estimator, len(config.seeds), mse_t, mse_eps))

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
                    report.keyrate_rows.append(KeyrateRow(distance, detection, source, math.nan, math.nan, math.nan))
                    continue
                rate = secret_key_rate(summary, det_params)
                report.keyrate_rows.append(
                    KeyrateRow(distance, detection, source, rate.i_ab, rate.chi_be, rate.key_rate)
                )
    return report


def _write_csv(path: Path, row_type: type, rows: Sequence[tuple]) -> None:
    """Write ``rows``, instances of the row type ``row_type``, under its
    ``header``: float fields as ``%.12g``, the rest as str."""
    types = get_type_hints(row_type)
    template = ",".join("%.12g" if types[name] is float else "%s" for name in row_type._fields) + "\n"
    with path.open("w", newline="") as fh:
        fh.write(",".join(row_type.header) + "\n")
        fh.write("".join([template % row for row in rows]))


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
    _write_csv(files["estimates"], EstimateRow, report.estimate_rows)
    _write_csv(files["mse"], MseRow, report.mse_rows)
    _write_csv(files["keyrate"], KeyrateRow, report.keyrate_rows)
    _write_csv(files["mip"], MipRow, report.mip_rows)
    manifest = {
        # the version of the CSV set's columns, raised with any header change;
        # a manifest without it is schema 1
        "schema": 2,
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
