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

A sweep runs each distance in three stages:

- simulate: for each seed, one group of sub-channels at a time,
  :func:`run_sweep` draws the group's (x, y) blocks from the distance's
  ensemble with ``simulate_block(..., subchannels=group)``;
- fit: :func:`_fit_group` takes those blocks, never the ensemble, validates
  each plane once (one sum of squares per row, for all its rows in one
  call), draws the group's plans, one index array per fraction, and fits
  the dataset's Alice and Bob planes at them; ``run_sweep`` joins each cell's
  group fits in sub-channel order into ``fits[seed, fraction, estimator]``,
  and the first seed's coherence values into ``mips[fraction, estimator]``;
- score: after the last seed, :func:`_score` appends the distance to all
  four tables: its estimates as columns, the truth beside each cell's fit
  (see :class:`RunReport`), and the rows of the other three.  It is the one
  reader of the ensemble's truth but for the statistics route's noise
  scale.

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
repeated and no operator outlives its row.  The rows left (the statistics
model, a zero Alice column, every row at ``k_max = 1``) get no operator:
:func:`_coherence_left` scatters the squared weights of as many rows of
one model as fit into the work area's first row and transforms them in one
call into its second, with the bits of
:func:`~csqkd.sensing.mutual_incoherence` of each row's operator.

The groups are the consecutive sub-channels whose blocks fit
:data:`GROUP_BYTES`; a group's blocks live only in its estimation call, so
they, its variances and its plans are freed before the next group's blocks
are simulated.  A seed that fits the budget is one group.  The plan
generator of each (seed, distance, fraction < 1) cell lives across its
groups, and each sub-channel is fitted on its own, so the output does not
depend on the budget.  Every cell fit of the sweep gathers all its sampled
rows into one work area.  :func:`run_sweep` allocates it before the first
distance, at the size of the largest cell (the first group at the largest
fraction) or one coherence transform, m + 2 floats a row, if that is
larger, in a mapping of its own, and frees it when it returns; no fit
allocates arrays of its rows.  So the budget bounds the gathered rows as
well: a cell's two rows take at most the bytes of its group's (x, y)
blocks.

A (fraction, estimator) cell with no usable estimate over all seeds keeps its
``mse.csv`` row with NaN errors, and an estimator with no usable estimate in
the key-rate cell (largest fraction, first seed), or only usable estimates of
probability 0, gets NaN key-rate columns, so every grid writes the same row
counts.  Each table is written with one ``%`` template per row type:
``%.12g`` for float fields, ``%s`` otherwise, applied to the row tuple.
``estimates.csv`` takes the same formats from ``EstimateRow``, one cell at
a time: a distance's truth and a cell's constant fields are formatted once,
and each row formats its fit's fields only.

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
# measured_variance, make_sampling_plan, RowSampledIdftOperator,
# mutual_incoherence and both estimate_subchannel_* stay importable here
# though the sweep does not call them
from .estimators import (  # noqa: F401
    CellFit,
    _fit_statistics,
    _fit_variables,
    _not_finite,
    _statistics_input,
    _work_area,
    aggregate_estimates,
    block_variances,
    estimate_subchannel_statistics,
    estimate_subchannel_variables,
    measured_variance,
    subblock_variances,
)
from .sensing import (  # noqa: F401
    RowSampledIdftOperator, _cell_plans, _gram_peaks, _row_dots, _sample_count, make_sampling_plan,
    mutual_incoherence,
)
from .security import secret_key_rate, summary_from_means

#: Bytes of the (x, y) blocks of the group of sub-channels that a sweep holds
#: at a time: 13 sub-channels at m = 10^4.  Through the group it also bounds
#: the sampled rows that every cell fit gathers, which take at most the bytes
#: of the group's blocks.  Freeing the first group's buffer raises glibc's
#: heap trim threshold to twice its size, above the heap top that a group's
#: buffer and temporaries leave; at 1 MiB they passed it, and the top was
#: trimmed and faulted back in group after group.  It stays below the 4 MiB
#: from which numpy asks for huge pages.
GROUP_BYTES = 2 * 1024 * 1024


def _key(
    section: str, default: object, *, key: str | None = None, least: float | None = None,
    choices: tuple[str, ...] | None = None,
):
    """A config field, declared as ``key`` (its own name by default) under
    ``[section]`` of the config file.  A number, or each entry of a tuple of
    numbers, is of its type (an integer, or for a float a real number; never
    a bool) and bounded below by ``least``, and a bounded float must be
    finite as well; a string, or each entry of a tuple of strings, is one of
    ``choices``."""
    return field(default=default, metadata={"section": section, "key": key, "least": least, "choices": choices})


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, fully-defaulted description of one sweep.

    Each field is one config key, declared with :func:`_key`; its type picks
    how the key's text is parsed and written (see :func:`_codec`)."""

    source: str = _key("ensemble", "sampler", choices=("sampler", "file"))
    ensemble_file: str | None = _key("ensemble", None, key="file")
    distances_km: tuple[float, ...] = _key("ensemble", (5.0, 10.0), least=0)
    subchannels: int = _key("ensemble", 20, least=1)
    block_length: int = _key("ensemble", 2000, least=2)
    excess_noise: float = _key("ensemble", 0.01, least=0)
    sampler_seed: int = _key("ensemble", 7, least=0)
    attenuation_per_km: float = _key("ensemble", 0.15, least=0)
    sigma_log: float = _key("ensemble", 0.3, least=0)
    fractions: tuple[float, ...] = _key("estimation", (0.1, 0.4, 1.0))
    seeds: tuple[int, ...] = _key("estimation", (1, 2, 3), least=0)
    estimators: str = _key("estimation", "both", choices=("variables", "statistics", "both"))
    variance_mode: str = _key("estimation", "replicated", choices=("replicated", "blockwise"))
    # read, and bounded below, in blockwise mode only
    variance_blocks: int = _key("estimation", 100)
    # the variables route's atom budget; the statistics route fits one atom
    k_max: int = _key("estimation", 1, least=1)
    modulation_variance: float = _key("protocol", DEFAULT_MODULATION_VARIANCE)
    detector_efficiency: float = _key("protocol", DEFAULT_DETECTOR_EFFICIENCY)
    electronic_noise: float = _key("protocol", DEFAULT_ELECTRONIC_NOISE)
    reconciliation_efficiency: float = _key("protocol", DEFAULT_RECONCILIATION_EFFICIENCY)
    detections: tuple[str, ...] = _key("security", ("homodyne", "heterodyne"), choices=DETECTIONS)
    out_dir: str = _key("output", "out", key="directory")

    def __post_init__(self) -> None:
        k = _KEYS  # every message names a field by its config key
        # the rules declared on the fields
        for key in k.values():
            value = getattr(self, key.field)
            if get_origin(key.kind) is tuple:
                if len(set(value)) != len(value):
                    raise ValueError(f"{key} must not repeat entries, got {_fmt_seq(value)}")
                entries = [(f"{key} entries", v) for v in value]
            else:
                entries = [(str(key), value)]
            for label, v in entries:
                if key.item is int:
                    # a bool is an Integral, but write_config would write it as True
                    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                        raise ValueError(f"{label} must be an integer, got {v!r}")
                    if key.least is not None and v < key.least:
                        raise ValueError(f"{label} must be >= {key.least}, got {v}")
                elif key.item is float:
                    # likewise a bool is a Real; an integer is a float's value
                    if isinstance(v, bool) or not isinstance(v, numbers.Real):
                        raise ValueError(f"{label} must be a real number, got {v!r}")
                    if key.least is not None and not (math.isfinite(v) and v >= key.least):
                        raise ValueError(f"{label} must be finite and >= {key.least}, got {v}")
                if key.choices is not None and v not in key.choices:
                    raise ValueError(f"{label} must be one of {key.choices}, got {v!r}")
        # the rules that span fields, or that a bound cannot state
        if self.source == "file" and not self.ensemble_file:
            raise ValueError(f"{k['ensemble_file']} is required when {k['source']} = file")
        if self.source == "sampler" and not self.distances_km:
            raise ValueError(f"{k['distances_km']} must not be empty when {k['source']} = sampler")
        for d in self.distances_km if self.source == "sampler" else ():
            if math.exp(-self.attenuation_per_km * d) == 0:
                raise ValueError(f"{k['distances_km']} entry {d} gives a mean transmittance of 0")
        for name in ("fractions", "seeds", "detections"):
            if not getattr(self, name):
                raise ValueError(f"{k[name]} must not be empty")
        for f in self.fractions:
            if not 0 < f <= 1:
                raise ValueError(f"{k['fractions']} entries must be in (0, 1], got {f}")
        if self.variance_mode == "blockwise" and (
            self.variance_blocks < 1
            or self.block_length % self.variance_blocks
            or self.block_length // self.variance_blocks < 2
        ):
            raise ValueError(
                f"{k['variance_blocks']} must divide {k['block_length']} = {self.block_length} "
                f"into sub-blocks of at least 2 samples, got {self.variance_blocks}"
            )
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


def _codec(kind: object) -> tuple[type, Callable[[str], object], Callable[[object], str]]:
    """The item type of a config value of type ``kind`` (each entry's type
    for a tuple, the type itself for an optional value) and the value's
    parser and formatter: a tuple is a comma-separated list of its items,
    and a float is written by ``repr``."""
    item = (get_args(kind) or (kind,))[0]
    if get_origin(kind) is tuple:
        return item, (lambda text: tuple(item(v.strip()) for v in text.split(",") if v.strip())), _fmt_seq
    return item, item, repr if item is float else str


class _Key(NamedTuple):
    """The config key of one ``ExperimentConfig`` field; ``str`` of it is the
    ``section.key`` that the file and every message use."""

    field: str
    section: str
    name: str
    kind: object
    least: float | None
    choices: tuple[str, ...] | None
    #: the type of the value, or of each entry of a tuple
    item: type
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
                 f.metadata["choices"], *_codec(_TYPES[f.name]))
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


class DistanceEstimates(NamedTuple):
    """The estimates of one distance as columns: each sub-channel's truth
    and the joined fit of each (seed, fraction, estimator) cell."""

    distance: float
    t_true: np.ndarray
    eps_true: np.ndarray
    #: fits[seed, fraction, estimator], in the order their rows are written
    fits: dict[tuple[int, float, str], CellFit]


@dataclass
class RunReport:
    """The four tables of a sweep.

    ``mse_rows``, ``keyrate_rows`` and ``mip_rows`` hold one row tuple per
    CSV line.  The estimates, one row per (cell, sub-channel), are kept as
    columns instead: ``estimates`` holds one :class:`DistanceEstimates` per
    distance, in sweep order.  :attr:`estimate_rows` builds their
    ``EstimateRow`` list when read, and :func:`write_reports` writes
    ``estimates.csv`` from the columns, one cell at a time.
    """

    config: ExperimentConfig
    config_hash: str
    estimates: list[DistanceEstimates] = field(default_factory=list)
    mse_rows: list[MseRow] = field(default_factory=list)
    keyrate_rows: list[KeyrateRow] = field(default_factory=list)
    mip_rows: list[MipRow] = field(default_factory=list)

    @property
    def estimate_rows(self) -> list[EstimateRow]:
        """One ``EstimateRow`` per line of ``estimates.csv``, in its order."""
        return [
            EstimateRow(d.distance, i, fraction, seed, estimator, t, t_hat, e, eps_hat, r, f)
            for d in self.estimates
            for (seed, fraction, estimator), fit in d.fits.items()
            for i, (t, t_hat, e, eps_hat, r, f) in enumerate(zip(
                d.t_true.tolist(), fit.t_hat.tolist(), d.eps_true.tolist(), fit.eps_hat.tolist(),
                fit.residual.tolist(), fit.flags,
            ))
        ]


def _ensemble_for(config: ExperimentConfig, distance_index: int) -> SubChannelEnsemble:
    if config.source == "file":
        return ensemble_from_csv(
            config.ensemble_file,
            excess_noise=config.excess_noise,
            block_length=config.block_length,
        )
    t = sample_lognormal_transmittances(
        config.subchannels,
        config.distances_km[distance_index],
        seed=_derived_seed(config.sampler_seed, distance_index),
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
) -> tuple[dict[tuple[float, str], CellFit], dict[tuple[float, str], np.ndarray]]:
    """Estimate every cell of one simulated group of sub-channels from its
    blocks and the public protocol, never from the ensemble.

    ``dataset`` holds the blocks of the sub-channels in ``group`` as the rows
    of its Alice and Bob planes; validation errors name a block by its
    absolute index.  Each plane a route reads is validated once, from the
    sums of squares of its rows; the replicated variances are Bob's sums
    over m, and the sub-block variances, computed for the plane at once, are
    validated from their own sums of squares.  At each
    fraction the group's plans are drawn from that fraction's
    generator in ``rngs`` (0 for fraction 1, which draws nothing) as the
    rows of one index array and fitted in the sweep's ``work`` area, the
    variables route at the configured ``k_max`` and the one-atom statistics
    route at ``noise_scale``, the one array of the group's truth that
    estimation reads.  Returns the fit of each (fraction, estimator) and,
    keyed the same way, the coherence values of the group's sub-channels
    under that model: with ``coherence`` one array per cell, without it
    none.  The variables fit fills the values of the rows that OMP solves;
    :func:`_coherence_left` fills the rest in the work area.
    """
    params = config.protocol
    n = config.block_length
    alice, bob = dataset.alice, dataset.bob
    variables = "variables" in config.estimator_names
    replicated = config.variance_mode == "replicated"
    # one sum of squares per row of each plane a route reads, finite unless
    # an entry is not or the squares overflow (as _require_finite checks a
    # block); the first bad row, its x before its y, is named
    with np.errstate(over="ignore"):
        xx = _row_dots(alice, alice) if variables else None
        yy = _row_dots(bob, bob) if variables or replicated else None
    if variables:
        bad = np.flatnonzero(~(np.isfinite(xx) & np.isfinite(yy)))
        if bad.size:
            j = int(bad[0])
            plane = "y" if math.isfinite(xx[j]) else "x"
            raise _not_finite(f"{plane}_blocks[{group[j]}]")
    if "statistics" in config.estimator_names:
        if replicated:
            # each row's y.y / m, the bits of measured_variance(y)
            measured = checked = yy / n
        else:
            # each row's sub-block variances, and the sum of their squares,
            # which _require_finite checks
            measured = subblock_variances(bob, config.variance_blocks)
            with np.errstate(over="ignore"):
                checked = _row_dots(measured, measured)
        bad = np.flatnonzero(~np.isfinite(checked))
        if bad.size:
            # the check of one row raises for the first, naming it
            _statistics_input(measured[bad[0]], n, f"measured[{group[bad[0]]}]")
    fits, mips = {}, {}
    for fraction, rng in zip(sorted(config.fractions), rngs):
        rows = _cell_plans(n, fraction, rng, len(group))
        for estimator in config.estimator_names:
            # coherence diagnostics, once per (fraction, channel, model): the
            # variables fit reads the rows that OMP solves, NaN marks the rest
            column = np.full(len(group), math.nan) if coherence else None
            if estimator == "statistics":
                fits[fraction, estimator] = _fit_statistics(measured, params, n, rows, noise_scale, True, work=work)
            else:
                fits[fraction, estimator] = _fit_variables(
                    alice, bob, rows, params, config.k_max, 0.0, False, work=work, coherence=column
                )
            if coherence:
                mips[fraction, estimator] = column
                weights = alice if estimator == "variables" else float(params.modulation_variance)
                _coherence_left(column, weights, rows, n, work)
    return fits, mips


def _coherence_left(
    column: np.ndarray, weights: np.ndarray | float, rows: np.ndarray, m: int, work: np.ndarray
) -> None:
    """Fill the NaN entries of a cell's coherence ``column`` in place.

    Entry j gets the :func:`~csqkd.sensing.mutual_incoherence` of the
    row-sampled IDFT operator of block length ``m`` at ``rows[j]`` with the
    weights of row j of ``weights`` (the Alice plane) or the one weight
    ``weights`` (the statistics model's V_A), bit for bit, without building
    the operator.  As many rows as a row of the ``work`` area holds, m + 2
    floats each, take one transform (:func:`~csqkd.sensing._gram_peaks`).
    """
    left = np.flatnonzero(np.isnan(column))
    per_call = work.shape[1] // (m + 2)
    for start in range(0, left.size, per_call):
        js = left[start : start + per_call]
        index = rows[js]
        if isinstance(weights, np.ndarray):
            squares = weights[js[:, None], index]
            np.square(squares, out=squares)
        else:
            squares = weights * weights
        # the flat index of each sampled row in a (len(js), m) array
        index += np.arange(0, js.size * m, m)[:, None]
        column[js] = _gram_peaks(js.size, m, index, squares, work) / m


def _score(
    report: RunReport,
    distance: float,
    ensemble: SubChannelEnsemble,
    fits: dict[tuple[int, float, str], CellFit],
    mips: dict[tuple[float, str], np.ndarray],
) -> None:
    """Append one distance to the four tables of ``report``: its fits
    ``fits[seed, fraction, estimator]``, kept as columns beside the
    ensemble's truth, and the first seed's coherence values
    ``mips[fraction, estimator]``, scored against that truth.  A cell's MSE
    pools its usable estimates over the seeds; an
    estimator's key rate is that of its fit at the first seed and the
    largest fraction, the key-rate cell."""
    config = report.config
    t_true, eps_true, p = ensemble.transmittances, ensemble.excess_noises, ensemble.probabilities
    report.estimates.append(DistanceEstimates(distance, t_true, eps_true, fits))
    for (fraction, estimator), values in mips.items():
        report.mip_rows.extend(MipRow(distance, i, fraction, estimator, v) for i, v in enumerate(values.tolist()))

    for fraction, estimator in sorted({cell[1:] for cell in fits}):
        # a cell with no usable estimate over all seeds keeps its row, as NaN
        mse_t = mse_eps = math.nan
        t_hat, eps_hat, t, eps = (np.concatenate(c) for c in zip(*(
            (fit.t_hat[fit.usable], fit.eps_hat[fit.usable], t_true[fit.usable], eps_true[fit.usable])
            for fit in (fits[seed, fraction, estimator] for seed in config.seeds)
        )))
        if t_hat.size:
            mse_t, mse_eps = compute_mse(t_hat, t), compute_mse(eps_hat, eps)
        report.mse_rows.append(MseRow(distance, fraction, estimator, len(config.seeds), mse_t, mse_eps))

    # key rates under true and estimated summaries; an estimator with no
    # usable estimate in the key-rate cell, or only usable estimates of
    # total probability 0, gets NaN rates
    summaries = {"true": summary_from_means(*ensemble_means(ensemble), source="true")}
    for estimator in config.estimator_names:
        fit = fits[config.seeds[0], max(config.fractions), estimator]
        aggregate = aggregate_estimates(fit, p) if p[fit.usable].sum() > 0 else None
        source = f"estimated-{estimator}"
        summaries[source] = None if aggregate is None else summary_from_means(
            aggregate.t_mean_clamped, aggregate.sqrt_t_mean, aggregate.eps_mean_clamped, source=source
        )
    for detection in config.detections:
        det_params = dataclasses.replace(config.protocol, detection=detection)
        for source, summary in summaries.items():
            if summary is None:
                report.keyrate_rows.append(KeyrateRow(distance, detection, source, math.nan, math.nan, math.nan))
                continue
            rate = secret_key_rate(summary, det_params)
            report.keyrate_rows.append(KeyrateRow(distance, detection, source, rate.i_ab, rate.chi_be, rate.key_rate))


def run_sweep(config: ExperimentConfig) -> RunReport:
    """Execute the full experiment grid described by ``config``."""
    report = RunReport(config=config, config_hash=config_hash(config))
    params = config.protocol
    fractions = sorted(config.fractions)
    distances = config.distances_km if config.source == "sampler" else (0.0,)
    ensembles = [_ensemble_for(config, d_idx) for d_idx in range(len(distances))]
    # every cell fit of the sweep gathers its sampled rows here, sized for
    # the largest cell: the first group, of an ensemble's count (the same at
    # every distance), at the largest fraction; and the coherence diagnostic
    # transforms its rows here, which takes a row of at least m + 2 floats
    work = _work_area(max(
        len(_groups(ensembles[0].count, config.block_length)[0]) * _sample_count(config.block_length, fractions[-1]),
        config.block_length + 2,
    ))

    for d_idx, (distance, ensemble) in enumerate(zip(distances, ensembles)):
        # the statistics fit keeps its residual bound at the model-exact
        # disturbance scale eta*T_i*eps_i of each sub-channel, read off the truth
        noise_oracle = params.detector_efficiency * ensemble.transmittances * ensemble.excess_noises
        groups = _groups(ensemble.count, config.block_length)
        fits: dict[tuple[int, float, str], CellFit] = {}
        mips: dict[tuple[float, str], np.ndarray] = {}
        for seed in config.seeds:
            # fraction 1 keeps every row without a draw, so it needs no generator
            rngs = [np.random.default_rng((seed, d_idx, f_idx)) if f < 1 else 0 for f_idx, f in enumerate(fractions)]
            sim_seed = _derived_seed(seed, d_idx)
            # a group's blocks live only in its estimation call, so they are
            # freed before the next group is simulated
            results = [
                _fit_group(
                    config, group, simulate_block(ensemble, params, seed=sim_seed, subchannels=group),
                    rngs, noise_oracle[group.start : group.stop].copy(), work, seed == config.seeds[0],
                )
                for group in groups
            ]
            # each cell's group fits, and the first seed's coherence values, joined in order
            for cell in results[0][0]:
                fits[(seed, *cell)] = _joined([cells[cell] for cells, _ in results])
            for cell in results[0][1]:
                mips[cell] = np.concatenate([values[cell] for _, values in results])
            # freed before the next seed is simulated: left alive under its
            # group buffers, a seed's group fits and generators raised a
            # lowsnr-blockwise sweep's peak RSS by about 0.5 MiB
            del results, rngs
        _score(report, distance, ensemble, fits, mips)
    return report


def _formats(row_type: type) -> dict[str, str]:
    """The ``%`` format of each field of the row type ``row_type``: ``%.12g``
    for a float field, ``%s`` otherwise."""
    types = get_type_hints(row_type)
    return {name: "%.12g" if types[name] is float else "%s" for name in row_type._fields}


def _write_csv(path: Path, row_type: type, rows: Sequence[tuple]) -> None:
    """Write ``rows``, instances of the row type ``row_type``, under its
    ``header``, each field in its :func:`_formats` format."""
    template = ",".join(_formats(row_type).values()) + "\n"
    with path.open("w", newline="") as fh:
        fh.write(",".join(row_type.header) + "\n")
        fh.write("".join([template % row for row in rows]))


def _write_estimates(path: Path, estimates: Sequence[DistanceEstimates]) -> None:
    """Write the ``EstimateRow`` lines of ``estimates`` under its header, the
    text that :func:`_write_csv` writes for ``RunReport.estimate_rows``.

    Each distance's sub-channel indices and truth are formatted once, and
    each cell's distance, fraction, seed and estimator once, into the
    template of its rows; a row formats only its fit's fields.
    """
    formats = _formats(EstimateRow)
    with path.open("w", newline="") as fh:
        fh.write(",".join(EstimateRow.header) + "\n")
        for d in estimates:
            per_channel = {
                name: [formats[name] % v for v in values]
                for name, values in (
                    ("subchannel", range(d.t_true.size)), ("t_true", d.t_true.tolist()),
                    ("eps_true", d.eps_true.tolist()),
                )
            }
            for (seed, fraction, estimator), fit in d.fits.items():
                per_cell = {"distance": d.distance, "fraction": fraction, "seed": seed, "estimator": estimator}
                template, columns = [], []
                for name in EstimateRow._fields:
                    if name in per_cell:
                        template.append((formats[name] % per_cell[name]).replace("%", "%%"))
                    elif name in per_channel:
                        template.append("%s")
                        columns.append(per_channel[name])
                    else:
                        # the fit's own column of the field: t_hat, eps_hat, residual, flags
                        template.append(formats[name])
                        column = getattr(fit, name)
                        columns.append(column.tolist() if isinstance(column, np.ndarray) else column)
                row = ",".join(template) + "\n"
                fh.write("".join([row % values for values in zip(*columns)]))


def write_reports(report: RunReport, out_dir: str | Path) -> dict[str, Path]:
    """Write the CSV set and the run manifest; returns the file map.

    An empty ``out_dir`` names the working directory, whose files the
    sweep would overwrite; it is refused before anything is written.
    """
    if not out_dir:
        raise ValueError(f"{_KEYS['out_dir']} must not be empty")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {
        "estimates": out / "estimates.csv",
        "mse": out / "mse.csv",
        "keyrate": out / "keyrate.csv",
        "mip": out / "mip.csv",
        "manifest": out / "run.json",
    }
    _write_estimates(files["estimates"], report.estimates)
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
