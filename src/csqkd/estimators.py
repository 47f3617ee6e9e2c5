"""Per-sub-channel (T, eps) estimation via sparse reconstruction.

Two routes are provided:

* variable-based: Alice/Bob symbol pairs disclosed through a sampling plan
  feed the sensing model y_s = Phi diag(x) Psi s + z_s; the reconstructed
  transfer vector h = Psi s_hat (constant sqrt(eta*T) per sub-channel) gives
  T_hat = mean(h)^2 / eta and an excess-noise plug-in from the sampled
  second moments.

* statistics-based: only Bob's measured variance and the public modulation
  variance enter.  The variance vector, with the constant 1 + nu_el floor
  removed, feeds the same machinery with weights V_A; T_hat = mean(h)/eta.
  No individual symbols are consumed, so no key material is sacrificed.

With the default one-atom budget (``OmpConfig.k_max = 1``) the reconstruction
is the closed-form DC projection :func:`~csqkd.sensing.dc_project`: mean(h)
is the least-squares gain g = w_s.y_s / w_s.w_s, so T_hat = g^2/eta
(variables) or g/eta (statistics).  :func:`fit_cell_variables` and
:func:`fit_cell_statistics` evaluate it for every sub-channel of one (seed,
fraction) cell, gathering the sampled rows of a few sub-channels at a time
under :data:`CHUNK_BYTES` per work array; at this budget the per-sub-channel
estimators are their one-channel case.  A larger budget runs Batch-OMP
(:func:`~csqkd.sensing.omp_solve`) per sub-channel over the row-sampled IDFT
operator, and :func:`transfer_moments` reads mean(h) = Re(s_0)/sqrt(m) and
||Im h|| off the sparse coefficients s without synthesizing h.  A support
without the DC column has mean(h) = 0 exactly, so such an estimate is flagged
both ``off_dc_support`` and ``unestimable_transmittance`` and is excluded
from aggregation.

Every sampled row is used: a zero Alice symbol adds nothing to the
least-squares sums, and its Bob symbol still enters the excess-noise plug-in.
An estimate is flagged ``degenerate_support`` and
``unestimable_transmittance`` exactly when x_s.x_s = 0, and ``sample_count``
counts the nonzero weights.  Non-finite inputs raise a ``ValueError`` that
names the argument.

The variance split eta*T*(V_A + eps) is not identifiable from a single exact
variance: a plain least-squares fit folds the eta*T*eps part into the
transmittance coefficient.  When the per-entry disturbance amplitude
(eta*T*eps) is known or estimated, pass it as ``OmpConfig.noise_scale`` with
``shrink_to_delta`` so the residual bound stays active and the split is
recovered exactly; otherwise T_hat carries a relative bias of eps/V_A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ProtocolParams
from .sensing import (
    OmpConfig,
    RowSampledIdftOperator,
    SamplingPlan,
    dc_project,
    omp_solve,
)

FLAG_UNESTIMABLE = "unestimable_transmittance"
FLAG_BELOW_FLOOR = "below_noise_floor"
FLAG_DEGENERATE = "degenerate_support"
#: A multi-atom OMP support without the DC column: mean(h) is exactly 0.
FLAG_OFF_DC = "off_dc_support"

#: Flags that mark an estimate as unusable for aggregation.
EXCLUDING_FLAGS = frozenset({FLAG_UNESTIMABLE, FLAG_BELOW_FLOOR, FLAG_OFF_DC})

#: Bytes of sampled rows that one chunk of a cell fit gathers per work array.
CHUNK_BYTES = 64 * 1024

#: Grace below the 1 + nu_el floor before a variance is flagged.
FLOOR_TOLERANCE = 1e-6

VARIANCE_MODES = ("replicated", "blockwise")


@dataclass(frozen=True)
class SubChannelEstimate:
    """Estimated (T, eps) for one sub-channel, raw values preserved."""

    index: int
    t_hat: float
    eps_hat: float
    residual_norm: float
    sample_count: int
    flags: tuple[str, ...] = ()
    imag_norm: float = 0.0

    @property
    def t_hat_clamped(self) -> float:
        return min(max(self.t_hat, 0.0), 1.0)

    @property
    def eps_hat_clamped(self) -> float:
        if math.isnan(self.eps_hat):
            return math.nan
        return max(self.eps_hat, 0.0)

    @property
    def usable(self) -> bool:
        return not (set(self.flags) & EXCLUDING_FLAGS)


@dataclass(frozen=True)
class AggregateEstimate:
    """Probability-weighted whole-channel means over usable estimates."""

    t_mean: float
    sqrt_t_mean: float
    eps_mean: float
    excluded: int = 0

    @property
    def t_mean_clamped(self) -> float:
        return min(max(self.t_mean, 0.0), 1.0)

    @property
    def eps_mean_clamped(self) -> float:
        return max(self.eps_mean, 0.0)


def _resolve_delta(omp: OmpConfig, sample_count: int, slack: float) -> float:
    if omp.delta is not None:
        return omp.delta
    if omp.noise_scale is not None:
        return slack * math.sqrt(sample_count) * omp.noise_scale
    return 0.0


def _require_finite(name: str, values: np.ndarray) -> None:
    # one BLAS pass: the sum of squares is finite unless an entry is not, or
    # the squares overflow, which no fit of the entries would survive either
    if not math.isfinite(values.dot(values)):
        raise ValueError(f"{name} must be finite, with a finite sum of squares")


def _cell_configs(omp: OmpConfig | Sequence[OmpConfig], count: int) -> list[OmpConfig]:
    configs = [omp] * count if isinstance(omp, OmpConfig) else list(omp)
    if len(configs) != count:
        raise ValueError(f"expected {count} solver configs, got {len(configs)}")
    if any(c.k_max != 1 for c in configs):
        raise ValueError("a cell fit is the one-atom closed form; k_max > 1 runs per sub-channel")
    return configs


def _cell_sample_count(plans: Sequence[SamplingPlan]) -> int:
    if not plans:
        raise ValueError("a cell needs at least one sub-channel")
    m_s = plans[0].sample_count
    if any(p.sample_count != m_s for p in plans):
        raise ValueError("the plans of a cell must share one sample count")
    return m_s


def _chunks(count: int, m_s: int) -> list[slice]:
    """Consecutive sub-channel ranges whose sampled rows fit CHUNK_BYTES per array."""
    step = max(1, CHUNK_BYTES // (8 * m_s))
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def _estimates(
    first: int,
    t_hat: np.ndarray,
    eps_hat: np.ndarray,
    residual: np.ndarray,
    sample_count: np.ndarray,
    flags: Sequence[tuple[str, np.ndarray]],
) -> list[SubChannelEstimate]:
    """One estimate per row; ``flags`` pairs a flag with the rows that carry it."""
    names = [name for name, _ in flags]
    rows = zip(*(mask.tolist() for _, mask in flags))
    flag_rows = [tuple(n for n, on in zip(names, row) if on) if any(row) else () for row in rows]
    return [
        SubChannelEstimate(
            index=first + j, t_hat=t, eps_hat=e, residual_norm=r, sample_count=n, flags=f
        )
        for j, (t, e, r, n, f) in enumerate(
            zip(t_hat.tolist(), eps_hat.tolist(), residual.tolist(), sample_count.tolist(), flag_rows)
        )
    ]


def _variables_plug_in(
    gain: np.ndarray, xx: np.ndarray, yy: np.ndarray, m_s: int, eta: float, floor: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """T_hat = g^2/eta and the excess-noise plug-in per fit, plus the rows
    whose gain g <= 0 leaves the transmittance unestimable (T_hat 0, eps NaN)."""
    ok = gain > 0
    # Python's float power, as the scalar form computed it: numpy's square
    # differs from it in the last bit for about one gain in a thousand
    t_hat = np.array([g**2 for g in gain.tolist()]) / eta
    t_hat[~ok] = 0.0
    eps_hat = np.full(gain.shape, math.nan)
    t = t_hat[ok]
    eps_hat[ok] = (yy[ok] - eta * t * xx[ok] - m_s * floor) / (m_s * eta * t)
    return t_hat, eps_hat, ~ok


def _fit_variables(
    x_blocks: Sequence[np.ndarray],
    y_blocks: Sequence[np.ndarray],
    plans: Sequence[SamplingPlan],
    params: ProtocolParams,
    configs: Sequence[OmpConfig],
    noise_floor: float | None,
    first: int = 0,
) -> list[SubChannelEstimate]:
    """The one-atom variables fit of validated blocks, chunk by chunk."""
    count = len(plans)
    m_s = _cell_sample_count(plans)
    eta = params.detector_efficiency
    floor = (1.0 + params.electronic_noise) if noise_floor is None else noise_floor
    delta = np.array([_resolve_delta(c, m_s, slack=1.1) for c in configs])
    shrink = np.array([c.shrink_to_delta for c in configs])
    chunks = _chunks(count, m_s)
    x_work = np.empty((chunks[0].stop, m_s))
    y_work = np.empty_like(x_work)
    estimates: list[SubChannelEstimate] = []
    for chunk in chunks:
        x_s = x_work[: chunk.stop - chunk.start]
        y_s = y_work[: x_s.shape[0]]
        for j, i in enumerate(range(chunk.start, chunk.stop)):
            x_blocks[i].take(plans[i].indices, out=x_s[j])
            y_blocks[i].take(plans[i].indices, out=y_s[j])
        fit = dc_project(x_s, y_s, delta[chunk], shrink[chunk])
        t_hat, eps_hat, unestimable = _variables_plug_in(fit.gain, fit.ww, fit.yy, m_s, eta, floor)
        estimates += _estimates(
            first + chunk.start,
            t_hat,
            eps_hat,
            fit.residual_norm,
            np.count_nonzero(x_s, axis=1),
            ((FLAG_DEGENERATE, fit.degenerate), (FLAG_UNESTIMABLE, unestimable)),
        )
    return estimates


def _variables_inputs(
    x_block, y_block, plan: SamplingPlan, x_name: str = "x_block", y_name: str = "y_block"
) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x_block, dtype=float)
    y = np.asarray(y_block, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"{x_name} and {y_name} must be 1-d arrays of equal length")
    if plan.length != x.size:
        raise ValueError(f"plan covers length {plan.length}, {x_name} has {x.size}")
    _require_finite(x_name, x)
    _require_finite(y_name, y)
    return x, y


def fit_cell_variables(
    x_blocks: Sequence[np.ndarray],
    y_blocks: Sequence[np.ndarray],
    plans: Sequence[SamplingPlan],
    params: ProtocolParams,
    omp: OmpConfig | Sequence[OmpConfig] = OmpConfig(),
    noise_floor: float | None = None,
) -> list[SubChannelEstimate]:
    """One-atom variables estimates of every sub-channel of one (seed, fraction) cell.

    Sub-channel i reads ``x_blocks[i]`` and ``y_blocks[i]`` at ``plans[i]``,
    whose sample counts must agree, and its estimate has index i.  ``omp``
    holds one ``k_max = 1`` config for all sub-channels or one each.  The
    result equals :func:`estimate_subchannel_variables` per sub-channel bit
    for bit.
    """
    configs = _cell_configs(omp, len(plans))
    if not len(x_blocks) == len(y_blocks) == len(plans):
        raise ValueError("x_blocks, y_blocks and plans must have one entry per sub-channel")
    blocks = [
        _variables_inputs(x, y, plan, f"x_blocks[{i}]", f"y_blocks[{i}]")
        for i, (x, y, plan) in enumerate(zip(x_blocks, y_blocks, plans))
    ]
    return _fit_variables(
        [x for x, _ in blocks], [y for _, y in blocks], plans, params, configs, noise_floor
    )


def transfer_moments(coefficients: np.ndarray, support: np.ndarray) -> tuple[float, float]:
    """mean(h) and ||Im h|| of h = Psi s, read off the coefficients s.

    ``support`` holds every index where s may be nonzero.  mean(h) =
    Re(s_0) / sqrt(m), exactly 0 for a support without the DC column.
    Im h = (h - conj h) / 2i and conj h = Psi t with t_k = conj(s_(-k mod m)),
    so unitarity gives ||Im h|| = ||s - t|| / 2, to which only the support and
    its mirror contribute.
    """
    s = np.asarray(coefficients, dtype=np.complex128)
    m = s.size
    support = np.asarray(support, dtype=np.int64)
    touched = np.union1d(support, (-support) % m)
    imag_norm = 0.5 * float(np.linalg.norm(s[touched] - np.conj(s[(-touched) % m])))
    return float(s[0].real) / math.sqrt(m), imag_norm


def _omp_gain(
    weights: np.ndarray,
    rows: np.ndarray,
    measurement: np.ndarray,
    omp: OmpConfig,
    delta: float,
) -> tuple[float, float, float, list[str]]:
    """Mean of the transfer vector of one sub-channel reconstructed by OMP.

    Reads mean(h) off the coefficients and flags a support that misses the
    DC column.  Returns (mean(h), residual norm, imaginary-residue norm,
    flags).
    """
    solution = omp_solve(
        RowSampledIdftOperator(weights, rows),
        measurement,
        k_max=omp.k_max,
        delta=delta,
        shrink_to_delta=omp.shrink_to_delta,
    )
    gain, imag_norm = transfer_moments(solution.coefficients, solution.support)
    flags = [FLAG_DEGENERATE] if solution.degenerate_support else []
    if solution.support.size and not np.any(solution.support == 0):
        flags.append(FLAG_OFF_DC)
    return gain, solution.residual_norm, imag_norm, flags


def estimate_subchannel_variables(
    x_block: np.ndarray,
    y_block: np.ndarray,
    plan: SamplingPlan,
    params: ProtocolParams,
    omp: OmpConfig = OmpConfig(),
    noise_floor: float | None = None,
    index: int = 0,
) -> SubChannelEstimate:
    """Estimate (T, eps) of one sub-channel from disclosed symbol pairs.

    Args:
        x_block, y_block: full Alice/Bob blocks of equal length m, finite.
        plan: sampling plan over m; every sampled row is used.
        params: protocol constants (eta, nu_el, V_A).
        omp: solver configuration; the default single-atom budget matches the
            constant-per-sub-channel transfer vector, whose analysis transform
            is one DC impulse, and is fitted in closed form (T_hat =
            (x_s.y_s / x_s.x_s)^2 / eta) as the one-channel case of
            :func:`fit_cell_variables`.  The stop tolerance, when derived from
            ``noise_scale``, is 1.1 * sqrt(m_s) * noise_scale (the residual of
            the true solution concentrates near sqrt(m_s) * sigma).
        noise_floor: constant subtracted per sampled entry in the excess-noise
            plug-in; defaults to 1 + nu_el.  Pass 0.0 for data generated in
            zero-noise mode, which carries no vacuum unit.
    """
    x, y = _variables_inputs(x_block, y_block, plan)
    if omp.k_max == 1:
        return _fit_variables([x], [y], [plan], params, [omp], noise_floor, first=index)[0]

    rows = plan.indices
    m_s = rows.size
    x_s = x[rows]
    y_s = y[rows]
    xx = float(x_s @ x_s)
    yy = float(y_s @ y_s)
    if xx == 0:
        # no sampled Alice symbol carries channel information
        return SubChannelEstimate(
            index=index,
            t_hat=0.0,
            eps_hat=math.nan,
            residual_norm=math.sqrt(yy),
            sample_count=int(np.count_nonzero(x_s)),
            flags=(FLAG_DEGENERATE, FLAG_UNESTIMABLE),
        )
    eta = params.detector_efficiency
    floor = (1.0 + params.electronic_noise) if noise_floor is None else noise_floor
    delta = _resolve_delta(omp, m_s, slack=1.1)
    gain, residual, imag_norm, flags = _omp_gain(x, rows, y_s, omp, delta)
    t_hat, eps_hat, unestimable = _variables_plug_in(
        np.array([gain]), np.array([xx]), np.array([yy]), m_s, eta, floor
    )
    if unestimable[0]:
        flags.append(FLAG_UNESTIMABLE)
    return SubChannelEstimate(
        index=index,
        t_hat=float(t_hat[0]),
        eps_hat=float(eps_hat[0]),
        residual_norm=residual,
        sample_count=int(np.count_nonzero(x_s)),
        flags=tuple(flags),
        imag_norm=imag_norm,
    )


def measured_variance(y_block: np.ndarray) -> float:
    """Mean-square variance of a Bob block (symbols are zero-mean by protocol)."""
    y = np.asarray(y_block, dtype=float)
    if y.size < 2:
        raise ValueError("variance needs a block of at least 2 samples")
    return float(y @ y) / y.size


def subblock_variances(y_block: np.ndarray, n_blocks: int) -> np.ndarray:
    """Empirical variance of each of ``n_blocks`` disjoint contiguous sub-blocks."""
    y = np.asarray(y_block, dtype=float)
    if n_blocks < 1:
        raise ValueError("n_blocks must be >= 1")
    if y.size % n_blocks:
        raise ValueError(f"block length {y.size} is not divisible into {n_blocks} sub-blocks")
    if y.size // n_blocks < 2:
        raise ValueError("sub-blocks need at least 2 samples each")
    return (y.reshape(n_blocks, -1) ** 2).mean(axis=1)


def block_variances(y_block: np.ndarray, n_blocks: int) -> np.ndarray:
    """Per-entry variance vector from disjoint contiguous sub-blocks.

    Entry j holds the empirical variance of the sub-block containing j, so
    the vector keeps the block length and feeds the same sensing machinery
    as the replicated variant.
    """
    per_block = subblock_variances(y_block, n_blocks)
    return np.repeat(per_block, np.size(y_block) // n_blocks)


def _sampled_variances(measured, mode: str, rows: np.ndarray, length: int) -> np.ndarray:
    """r_y[rows] of the variance vector r_y without forming it: the scalar
    (replicated) or each sub-block's variance at the rows it covers."""
    if mode == "replicated":
        return np.full(rows.size, measured)
    return measured[rows // (length // measured.size)]


def _statistics_plug_in(
    gain: np.ndarray, sums: np.ndarray, m_s: int, eta: float, v_a: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """T_hat = g/eta and the excess-noise plug-in from the sums of the sampled
    floor-removed variances, plus the rows whose T_hat <= 0 (T_hat 0, eps NaN)."""
    t_hat = gain / eta
    unestimable = t_hat <= 0
    t_hat[unestimable] = 0.0
    eps_hat = np.full(gain.shape, math.nan)
    ok = ~unestimable
    t = t_hat[ok]
    eps_hat[ok] = (sums[ok] - eta * t * m_s * v_a) / (m_s * eta * t)
    return t_hat, eps_hat, unestimable


def _fit_statistics(
    measured: Sequence,
    params: ProtocolParams,
    plans: Sequence[SamplingPlan],
    configs: Sequence[OmpConfig],
    mode: str,
    noise_floor: float | None,
    first: int = 0,
) -> list[SubChannelEstimate]:
    """The one-atom statistics fit of validated variances, chunk by chunk."""
    count = len(plans)
    m_s = _cell_sample_count(plans)
    eta = params.detector_efficiency
    v_a = params.modulation_variance
    floor = (1.0 + params.electronic_noise) if noise_floor is None else noise_floor
    delta = np.array([_resolve_delta(c, m_s, slack=1.0) for c in configs])
    shrink = np.array([c.shrink_to_delta for c in configs])
    v_b = np.array([float(v) if mode == "replicated" else float(v.mean()) for v in measured])
    below = v_b <= floor - FLOOR_TOLERANCE
    weights = np.full(m_s, v_a)
    chunks = _chunks(count, m_s)
    work = np.empty((chunks[0].stop, m_s))
    estimates: list[SubChannelEstimate] = []
    for chunk in chunks:
        r_s = work[: chunk.stop - chunk.start]
        if mode == "replicated":
            r_s[:] = v_b[chunk, None]
        else:
            for j, i in enumerate(range(chunk.start, chunk.stop)):
                r_s[j] = _sampled_variances(measured[i], mode, plans[i].indices, plans[i].length)
        r_s -= floor
        fit = dc_project(weights, r_s, delta[chunk], shrink[chunk])
        t_hat, eps_hat, unestimable = _statistics_plug_in(fit.gain, r_s.sum(axis=1), m_s, eta, v_a)
        low = below[chunk]
        t_hat[low] = 0.0
        eps_hat[low] = math.nan
        residual = np.where(low, 0.0, fit.residual_norm)
        estimates += _estimates(
            first + chunk.start,
            t_hat,
            eps_hat,
            residual,
            np.full(t_hat.shape, m_s),
            (
                (FLAG_BELOW_FLOOR, low),
                (FLAG_DEGENERATE, fit.degenerate & ~low),
                (FLAG_UNESTIMABLE, unestimable & ~low),
            ),
        )
    return estimates


def _statistics_input(measured, mode: str, length: int, name: str = "measured"):
    if mode not in VARIANCE_MODES:
        raise ValueError(f"mode must be one of {VARIANCE_MODES}, got {mode!r}")
    if mode == "replicated":
        if np.ndim(measured) != 0:
            raise ValueError(f"replicated mode expects a scalar {name}")
        if not math.isfinite(measured):
            raise ValueError(f"{name} must be finite")
        return float(measured)
    r_y = np.asarray(measured, dtype=float)
    if r_y.ndim != 1 or r_y.size == 0 or length % r_y.size:
        raise ValueError(
            f"blockwise mode expects {name} to hold one variance per sub-block, "
            f"a count that divides the block length {length}"
        )
    _require_finite(name, r_y)
    if np.any(r_y < 0):
        raise ValueError(f"{name} entries must be >= 0")
    return r_y


def fit_cell_statistics(
    measured: Sequence,
    params: ProtocolParams,
    plans: Sequence[SamplingPlan],
    omp: OmpConfig | Sequence[OmpConfig] = OmpConfig(),
    mode: str = "replicated",
    noise_floor: float | None = None,
) -> list[SubChannelEstimate]:
    """One-atom statistics estimates of every sub-channel of one (seed, fraction) cell.

    ``measured[i]`` is sub-channel i's scalar measured variance
    (``replicated``) or the variances of equal contiguous sub-blocks of its
    block (``blockwise``), any count that divides ``plans[i].length``; a
    per-entry vector is the one-sample-wide case.  The sampled entries are
    read off them without forming a length-m vector.  The plans' sample
    counts must agree, and ``omp`` holds one ``k_max = 1`` config for all
    sub-channels or one each.  The result equals
    :func:`estimate_subchannel_statistics` per sub-channel bit for bit,
    except that the below-floor test reads the mean of the sub-block
    variances rather than of their repetition.
    """
    configs = _cell_configs(omp, len(plans))
    if len(measured) != len(plans):
        raise ValueError("measured and plans must have one entry per sub-channel")
    values = [
        _statistics_input(v, mode, plan.length, f"measured[{i}]")
        for i, (v, plan) in enumerate(zip(measured, plans))
    ]
    return _fit_statistics(values, params, plans, configs, mode, noise_floor)


def estimate_subchannel_statistics(
    measured: float | np.ndarray,
    params: ProtocolParams,
    block_length: int,
    plan: SamplingPlan,
    omp: OmpConfig = OmpConfig(),
    mode: str = "replicated",
    noise_floor: float | None = None,
    index: int = 0,
) -> SubChannelEstimate:
    """Estimate (T, eps) from second-order statistics only.

    Args:
        measured: the finite scalar measured variance (``replicated`` mode
            fills the whole variance vector with it) or a finite per-entry
            variance vector of length ``block_length`` (``blockwise`` mode).
        params: protocol constants; only the public modulation variance and
            calibrated eta, nu_el are consumed -- never Alice's symbols.
        block_length: m for the sub-channel.
        plan: row-selection plan over m.
        omp: solver configuration; the default single-atom budget is the
            closed-form DC projection (T_hat = g/eta with g the least-squares
            gain of the sampled floor-removed variances on V_A), run as the
            one-channel case of :func:`fit_cell_statistics`.  The derived
            stop tolerance is sqrt(m_s) * noise_scale with no slack: the
            in-model disturbance (eta*T*eps per entry) is deterministic, and
            keeping the residual constraint active via ``shrink_to_delta``
            separates it from the transmittance part exactly.
        noise_floor: constant removed per entry before sensing; defaults to
            1 + nu_el.
    """
    if plan.length != block_length:
        raise ValueError(f"plan covers length {plan.length}, expected {block_length}")
    value = _statistics_input(measured, mode, block_length)
    if mode == "blockwise" and value.size != block_length:
        raise ValueError(f"blockwise mode expects a variance vector of length {block_length}")
    if omp.k_max == 1:
        return _fit_statistics([value], params, [plan], [omp], mode, noise_floor, first=index)[0]

    floor = (1.0 + params.electronic_noise) if noise_floor is None else noise_floor
    v_b = value if mode == "replicated" else float(value.mean())
    if v_b <= floor - FLOOR_TOLERANCE:
        return SubChannelEstimate(
            index=index,
            t_hat=0.0,
            eps_hat=math.nan,
            residual_norm=0.0,
            sample_count=plan.sample_count,
            flags=(FLAG_BELOW_FLOOR,),
        )
    rows = plan.indices
    m_s = rows.size
    eta = params.detector_efficiency
    v_a = params.modulation_variance
    r_s = _sampled_variances(value, mode, rows, block_length) - floor
    delta = _resolve_delta(omp, m_s, slack=1.0)
    gain, residual, imag_norm, flags = _omp_gain(np.full(block_length, v_a), rows, r_s, omp, delta)
    t_hat, eps_hat, unestimable = _statistics_plug_in(
        np.array([gain]), np.array([r_s.sum()]), m_s, eta, v_a
    )
    if unestimable[0]:
        flags.append(FLAG_UNESTIMABLE)
    return SubChannelEstimate(
        index=index,
        t_hat=float(t_hat[0]),
        eps_hat=float(eps_hat[0]),
        residual_norm=residual,
        sample_count=m_s,
        flags=tuple(flags),
        imag_norm=imag_norm,
    )


def aggregate_estimates(
    estimates: Sequence[SubChannelEstimate],
    probabilities: Sequence[float] | None = None,
) -> AggregateEstimate:
    """Probability-weighted means over the usable estimates.

    Flagged (unestimable, below-floor or off-DC) entries are excluded and the
    weights renormalized; the exclusion count is returned.  Raw values feed the T and
    eps means; sqrt(T) floors the transmittance at zero but applies no upper
    cap (capping individual entries at 1 would bias <sqrt(T)> low near unit
    transmittance, while the Jensen ordering <sqrt(T)>^2 <= <T> already holds
    for any nonnegative values).
    """
    if not estimates:
        raise ValueError("no estimates to aggregate")
    if probabilities is None:
        p = np.full(len(estimates), 1.0 / len(estimates))
    else:
        p = np.asarray(probabilities, dtype=float)
        if p.shape != (len(estimates),):
            raise ValueError(f"expected {len(estimates)} probabilities, got shape {p.shape}")
    usable = np.array([e.usable for e in estimates])
    excluded = int((~usable).sum())
    if not usable.any():
        raise ValueError("all estimates are flagged; nothing to aggregate")
    weights = p[usable]
    total = float(weights.sum())
    if total <= 0:
        raise ValueError("usable estimates carry zero total probability")
    weights = weights / total
    t = np.array([e.t_hat for e in estimates])[usable]
    eps = np.array([e.eps_hat for e in estimates])[usable]
    return AggregateEstimate(
        t_mean=float(weights @ t),
        sqrt_t_mean=float(weights @ np.sqrt(np.maximum(t, 0.0))),
        eps_mean=float(weights @ eps),
        excluded=excluded,
    )
