"""Fluctuating free-space link modeled as an ensemble of stable sub-channels.

The atmospheric channel fluctuates slowly compared to the symbol rate, so a
transmission window splits into M sub-channels over which the transmittance
T_i and excess noise eps_i are constant.  Within sub-channel i, Alice's
quadrature symbols x and Bob's measurements y obey the linear Gaussian
relation

    y = sqrt(eta * T_i) * x + z,    z ~ N(0, sigma_i^2),
    sigma_i^2 = 1 + eta * T_i * eps_i + nu_el,

in shot-noise units (vacuum variance = 1 throughout this package).  Every
sub-channel carries a block of the same m symbols, and sub-channel i is
occupied with probability p_i.  This module holds the protocol constants,
the ensemble (T_i, eps_i and p_i as arrays, and m), synthetic data
generation, and the probability-weighted ensemble means fed to the security
analysis.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

DETECTIONS = ("homodyne", "heterodyne")

DEFAULT_MODULATION_VARIANCE = 4.0
DEFAULT_DETECTOR_EFFICIENCY = 0.6
DEFAULT_ELECTRONIC_NOISE = 0.05
DEFAULT_RECONCILIATION_EFFICIENCY = 0.95


@dataclass(frozen=True)
class ProtocolParams:
    """Protocol-level constants, all variances in shot-noise units.

    Attributes:
        modulation_variance: variance V_A of Alice's Gaussian modulation.
        detector_efficiency: eta in (0, 1].
        electronic_noise: nu_el >= 0.
        reconciliation_efficiency: beta in (0, 1].
        detection: "homodyne" or "heterodyne".
    """

    modulation_variance: float = DEFAULT_MODULATION_VARIANCE
    detector_efficiency: float = DEFAULT_DETECTOR_EFFICIENCY
    electronic_noise: float = DEFAULT_ELECTRONIC_NOISE
    reconciliation_efficiency: float = DEFAULT_RECONCILIATION_EFFICIENCY
    detection: str = "homodyne"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.modulation_variance) and self.modulation_variance > 0):
            raise ValueError(
                f"modulation_variance must be finite and > 0, got {self.modulation_variance}"
            )
        if not 0 < self.detector_efficiency <= 1:
            raise ValueError(f"detector_efficiency must be in (0, 1], got {self.detector_efficiency}")
        if not (math.isfinite(self.electronic_noise) and self.electronic_noise >= 0):
            raise ValueError(f"electronic_noise must be finite and >= 0, got {self.electronic_noise}")
        if not 0 < self.reconciliation_efficiency <= 1:
            raise ValueError(
                f"reconciliation_efficiency must be in (0, 1], got {self.reconciliation_efficiency}"
            )
        if self.detection not in DETECTIONS:
            raise ValueError(f"detection must be one of {DETECTIONS}, got {self.detection!r}")

    @property
    def epr_variance(self) -> float:
        """Equivalent EPR variance V = V_A + 1."""
        return self.modulation_variance + 1.0


def noise_variance(transmittance: float, excess_noise: float, params: ProtocolParams) -> float:
    """Variance of the additive noise z: 1 + eta*T*eps + nu_el."""
    return 1.0 + params.detector_efficiency * transmittance * excess_noise + params.electronic_noise


#: (field, entry name, test of a good entry, the range it names) of each per-sub-channel array
_FIELDS = (
    ("transmittances", "transmittance", lambda a: (a > 0) & (a <= 1), "(0, 1]"),
    ("excess_noises", "excess_noise", lambda a: np.isfinite(a) & (a >= 0), "[0, inf)"),
    ("probabilities", "probability", lambda a: (a >= 0) & (a <= 1), "[0, 1]"),
)


@dataclass(frozen=True, eq=False)
class SubChannelEnsemble:
    """M sub-channels as three read-only arrays, T_i, eps_i and the
    occupation probabilities p_i, and the protocol block length that every
    sub-channel shares.

    The constructor copies the arrays and validates them once.  A ValueError
    names the field, and for an out-of-range entry its index and value: T
    outside (0, 1], eps not finite and >= 0, p outside [0, 1], probabilities
    not summing to 1, an array that is not of shape (M,) with M >= 1, or a
    block length that is not an integer >= 1 (a bool is not).
    """

    transmittances: np.ndarray
    excess_noises: np.ndarray
    probabilities: np.ndarray
    block_length: int

    def __post_init__(self) -> None:
        shape = np.shape(self.transmittances)
        if len(shape) != 1:
            raise ValueError(f"transmittances must have shape (M,), got shape {shape}")
        if shape == (0,):
            raise ValueError("ensemble must contain at least one sub-channel")
        for name, entry, good, bounds in _FIELDS:
            values = np.array(getattr(self, name), dtype=float)
            if values.shape != shape:
                raise ValueError(f"{name} must have shape {shape} like transmittances, got shape {values.shape}")
            bad = np.flatnonzero(~good(values))
            if bad.size:
                raise ValueError(f"{entry} out of {bounds} at index {int(bad[0])}: {float(values[bad[0]])!r}")
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        total = float(self.probabilities.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"sub-channel probabilities must sum to 1 (got {total!r})")
        n = self.block_length
        if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 1:
            raise ValueError(f"block_length must be an integer >= 1, got {n!r}")
        object.__setattr__(self, "block_length", int(n))

    @property
    def count(self) -> int:
        return self.transmittances.size


def build_ensemble(
    transmittances: Sequence[float],
    excess_noise: float | Sequence[float] = 0.01,
    block_length: int = 10_000,
    probabilities: Sequence[float] | None = None,
) -> SubChannelEnsemble:
    """Assemble a sub-channel ensemble from transmittance values.

    Args:
        transmittances: one value in (0, 1] per sub-channel.
        excess_noise: shared value, or one per sub-channel.
        block_length: the symbol count of every sub-channel's block.
        probabilities: occupation probabilities; default p_i = 1/M.

    Raises:
        ValueError: as :class:`SubChannelEnsemble` raises it.
    """
    t = np.asarray(transmittances, dtype=float)
    eps = np.asarray(excess_noise, dtype=float)
    return SubChannelEnsemble(
        transmittances=t,
        excess_noises=np.full(t.shape, eps) if eps.ndim == 0 else eps,
        probabilities=np.full(t.shape, 1.0) / t.size if probabilities is None else probabilities,
        block_length=block_length,
    )


def _csv_number(path: Path, row: int, column: str, text: str | None) -> float | None:
    """A finite float from one table cell, None for a blank one."""
    if text is None or not text.strip():
        return None
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{path}: row {row}, column {column!r}: expected a finite number, got {text!r}")
    return value


def _check_index(path: Path, row: int, text: str | None) -> None:
    """The index cell of ``row`` (counted from 1) must hold the integer row - 1."""
    try:
        value = int(text)
    except (TypeError, ValueError):
        value = None
    if value != row - 1:
        raise ValueError(
            f"{path}: row {row}, column 'index': expected {row - 1}, since indices run "
            f"0..M-1 in row order, got {text!r}"
        )


def read_transmittance_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Read an ensemble table with header ``index,T,epsilon,p``.

    The index, epsilon and p columns are optional; an epsilon or p column
    that is blank on every row is not used, and an index column must hold
    the integers 0..M-1 in row order.  Returns (T, epsilon-or-None,
    p-or-None) ordered by row.  A wrong index, a value that is not a finite
    number, a blank T, or a blank in an optional column that other rows fill
    raises a ``ValueError`` naming the file, the row (counted from 1 below
    the header) and the column.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "T" not in reader.fieldnames:
            raise ValueError(f"{path}: expected a header containing a 'T' column")
        names = [name for name in ("T", "epsilon", "p") if name in reader.fieldnames]
        columns: dict[str, list] = {name: [] for name in names}
        indexed = "index" in reader.fieldnames
        for row, record in enumerate(reader, start=1):
            if indexed:
                _check_index(path, row, record["index"])
            for name in names:
                columns[name].append(_csv_number(path, row, name, record[name]))
    result = []
    for name in ("T", "epsilon", "p"):
        values = columns.get(name, [])
        if name != "T" and all(v is None for v in values):
            result.append(None)
            continue
        if None in values:
            raise ValueError(
                f"{path}: row {values.index(None) + 1}, column {name!r}: blank, "
                "but a column must give a value on every row or on none"
            )
        result.append(np.array(values))
    return tuple(result)


def ensemble_from_csv(
    path: str | Path,
    excess_noise: float = 0.01,
    block_length: int = 10_000,
) -> SubChannelEnsemble:
    """Build an ensemble from a CSV file; file columns override the defaults.

    Every ``ValueError``, from reading the table or building the ensemble of
    its values, names the file.
    """
    t, eps, p = read_transmittance_csv(path)
    try:
        return build_ensemble(
            t,
            excess_noise=eps if eps is not None else excess_noise,
            block_length=block_length,
            probabilities=p,
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def sample_lognormal_transmittances(
    count: int,
    distance_km: float,
    seed: int,
    attenuation_per_km: float = 0.15,
    sigma_log: float = 0.3,
    max_transmittance: float = 1.0,
) -> np.ndarray:
    """Draw a bounded log-normal transmittance ensemble.

    The log-normal mean decays exponentially with the nominal distance label:
    E[T] = exp(-attenuation_per_km * distance_km).  Samples falling outside
    (0, max_transmittance] are redrawn, so the result is bounded and
    deterministic for a fixed seed.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    mean_t = math.exp(-attenuation_per_km * distance_km)
    if mean_t == 0:
        raise ValueError(f"mean transmittance underflows to 0 at distance_km = {distance_km}")
    mu = math.log(mean_t) - 0.5 * sigma_log**2
    rng = np.random.default_rng(seed)
    out = np.empty(count)
    filled = 0
    for _ in range(1000):
        draw = rng.lognormal(mu, sigma_log, size=count - filled)
        good = draw[(draw > 0) & (draw <= max_transmittance)]
        out[filled : filled + good.size] = good
        filled += good.size
        if filled == count:
            return out
    raise ValueError(
        f"could not draw {count} bounded samples (mean_t={mean_t:.3g}); "
        "lower sigma_log or increase distance"
    )


@dataclass(frozen=True)
class QuadratureDataset:
    """Per-sub-channel Alice/Bob variable blocks."""

    alice: tuple[np.ndarray, ...]
    bob: tuple[np.ndarray, ...]


def attenuate(
    x: np.ndarray, transmittance: float, detector_efficiency: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Apply the noiseless channel map sqrt(eta*T) * x, into ``out`` if given."""
    return np.multiply(np.asarray(x, dtype=float), math.sqrt(detector_efficiency * transmittance), out=out)


def simulate_block(
    ensemble: SubChannelEnsemble,
    params: ProtocolParams,
    seed: int,
    zero_noise: bool = False,
    subchannels: range | None = None,
) -> QuadratureDataset:
    """Generate one quadrature dataset for every sub-channel, or for the
    sub-channels in ``subchannels``, in its order.

    Sub-channel i draws from child i of ``SeedSequence(seed)``, the one that
    ``spawn(M)`` gives it.  The child is built directly, from the seed's
    entropy and the spawn key (i,), so a range draws exactly the blocks the
    whole dataset holds for its sub-channels, and generation may run in any
    order (or in parallel) with identical output.  ``zero_noise`` forces
    z = 0; it exists for exact-recovery testing and has no physical
    counterpart (real data always carries the vacuum unit).

    The blocks of one call are the rows of one (2, M_g, m) buffer, Alice's
    in its first plane and Bob's in its second, so a dataset is allocated
    and freed in one piece: a sweep that frees one group's data before
    simulating the next leaves no run of freed blocks at the top of the heap
    for the allocator to trim and fault back in under later temporaries.
    Each row takes its draws from its own generator; the scalings by
    sqrt(V_A) and sigma_i then run once per plane, and sqrt(eta*T_i) x_i is
    added row by row through one row-sized temporary.
    """
    indices = range(ensemble.count) if subchannels is None else subchannels
    if not indices or min(indices) < 0 or max(indices) >= ensemble.count:
        raise ValueError(
            f"subchannels must be a non-empty range within 0..{ensemble.count - 1}, got {subchannels!r}"
        )
    root = np.random.SeedSequence(seed)
    t, eps = ensemble.transmittances.tolist(), ensemble.excess_noises.tolist()
    buffer = np.empty((2, len(indices), ensemble.block_length))
    alice, bob = buffer
    for i, x, y in zip(indices, alice, bob):
        rng = np.random.default_rng(
            np.random.SeedSequence(root.entropy, spawn_key=(*root.spawn_key, i), pool_size=root.pool_size)
        )
        rng.standard_normal(out=x)
        if not zero_noise:
            rng.standard_normal(out=y)
    # in place, with the bits of rng.normal(0.0, scale, n) = 0.0 + scale * z
    alice *= math.sqrt(params.modulation_variance)
    alice += 0.0
    if zero_noise:
        bob[:] = 0.0
    else:
        bob *= np.array([math.sqrt(noise_variance(t[i], eps[i], params)) for i in indices])[:, None]
        bob += 0.0
    # sqrt(eta*T) * x of one block at a time: the dataset's one temporary
    signal = np.empty(ensemble.block_length)
    for i, x, y in zip(indices, alice, bob):
        attenuate(x, t[i], params.detector_efficiency, out=signal)
        y += signal
    return QuadratureDataset(alice=tuple(buffer[0]), bob=tuple(buffer[1]))


def ensemble_means(ensemble: SubChannelEnsemble) -> tuple[float, float, float]:
    """Probability-weighted (<T>, <sqrt(T)>, <eps>) of the ensemble."""
    p = ensemble.probabilities
    t = ensemble.transmittances
    eps = ensemble.excess_noises
    return float(p @ t), float(p @ np.sqrt(t)), float(p @ eps)

