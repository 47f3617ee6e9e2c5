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
is the closed-form DC projection :func:`~csqkd.sensing.dc_fit`: mean(h) is
the least-squares gain g = w_s.y_s / w_s.w_s, so T_hat = g^2/eta (variables)
or g/eta (statistics).  A larger budget runs OMP over the row-sampled IDFT
operator; a support without the DC column leaves mean(h) at roundoff, so
such an estimate is flagged ``off_dc_support`` and excluded from aggregation.

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

from .channel import ProtocolParams, QuadratureDataset
from .sensing import (
    OmpConfig,
    RowSampledIdftOperator,
    SamplingPlan,
    SparseCoefficients,
    dc_fit,
    omp_solve,
    unitary_idft,
)

FLAG_UNESTIMABLE = "unestimable_transmittance"
FLAG_BELOW_FLOOR = "below_noise_floor"
FLAG_DEGENERATE = "degenerate_support"
#: A multi-atom OMP support without the DC column: mean(h) is roundoff.
FLAG_OFF_DC = "off_dc_support"

#: Flags that mark an estimate as unusable for aggregation.
EXCLUDING_FLAGS = frozenset({FLAG_UNESTIMABLE, FLAG_BELOW_FLOOR, FLAG_OFF_DC})

#: |x| below this multiple of sqrt(V_A) carries no usable channel information.
DEGENERATE_ENTRY_SCALE = 1e-6

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


def screen_plan(plan: SamplingPlan, x_block: np.ndarray, modulation_variance: float) -> SamplingPlan:
    """Replace plan indices that land on near-zero Alice symbols.

    A vanishing diagonal weight contributes nothing to the sensing system and
    destabilizes column normalization, so such indices are resampled (from
    the plan's own seed) among the remaining well-conditioned positions.
    """
    threshold = DEGENERATE_ENTRY_SCALE * math.sqrt(modulation_variance)
    good = np.abs(x_block[plan.indices]) >= threshold
    if good.all():
        return plan
    kept = plan.indices[good]
    pool = np.flatnonzero(np.abs(x_block) >= threshold)
    pool = np.setdiff1d(pool, kept, assume_unique=False)
    need = min(plan.indices.size - kept.size, pool.size)
    rng = np.random.default_rng(np.random.SeedSequence((plan.seed, 0x5C4EE4)))
    extra = rng.choice(pool, size=need, replace=False) if need else np.empty(0, dtype=np.int64)
    indices = np.sort(np.concatenate([kept, extra]).astype(np.int64))
    return SamplingPlan(length=plan.length, fraction=plan.fraction, seed=plan.seed, indices=indices)


def _reconstruct_transfer(
    op: RowSampledIdftOperator,
    measurement: np.ndarray,
    omp: OmpConfig,
    delta: float,
) -> tuple[np.ndarray, float, SparseCoefficients]:
    """Run OMP and synthesize the real transfer vector h = Psi s_hat.

    Returns (h.real, ||h.imag||, the OMP solution).
    """
    solution = omp_solve(
        op,
        measurement,
        k_max=omp.k_max,
        delta=delta,
        shrink_to_delta=omp.shrink_to_delta,
    )
    h = unitary_idft(solution.coefficients)
    return h.real, float(np.linalg.norm(h.imag)), solution


def _transfer_gain(
    weights: np.ndarray,
    rows: np.ndarray,
    measurement: np.ndarray,
    omp: OmpConfig,
    delta: float,
) -> tuple[float, float, float, list[str]]:
    """Mean of the reconstructed transfer vector of one sub-channel.

    One atom is the closed-form DC projection; a larger budget runs OMP and
    flags a support that misses the DC column.  Returns (mean(h), residual
    norm, imaginary-residue norm, flags).
    """
    if omp.k_max == 1:
        gain, residual, degenerate = dc_fit(
            weights[rows], measurement, delta=delta, shrink_to_delta=omp.shrink_to_delta
        )
        return gain, residual, 0.0, [FLAG_DEGENERATE] if degenerate else []
    op = RowSampledIdftOperator(weights, rows)
    h, imag_norm, solution = _reconstruct_transfer(op, measurement, omp, delta)
    flags = [FLAG_DEGENERATE] if solution.degenerate_support else []
    if solution.support.size and not np.any(solution.support == 0):
        flags.append(FLAG_OFF_DC)
    return float(h.mean()), solution.residual_norm, imag_norm, flags


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
        x_block, y_block: full Alice/Bob blocks of equal length m.
        plan: sampling plan over m (screened against near-zero x entries).
        params: protocol constants (eta, nu_el, V_A).
        omp: solver configuration; the default single-atom budget matches the
            constant-per-sub-channel transfer vector, whose analysis transform
            is one DC impulse, and is fitted in closed form (T_hat =
            (x_s.y_s / x_s.x_s)^2 / eta).  The stop tolerance, when derived from
            ``noise_scale``, is 1.1 * sqrt(m_s) * noise_scale (the residual of
            the true solution concentrates near sqrt(m_s) * sigma).
        noise_floor: constant subtracted per sampled entry in the excess-noise
            plug-in; defaults to 1 + nu_el.  Pass 0.0 for data generated in
            zero-noise mode, which carries no vacuum unit.
    """
    x = np.asarray(x_block, dtype=float)
    y = np.asarray(y_block, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x_block and y_block must be 1-d arrays of equal length")
    if plan.length != x.size:
        raise ValueError(f"plan covers length {plan.length}, blocks have {x.size}")

    plan = screen_plan(plan, x, params.modulation_variance)
    rows = plan.indices
    m_s = rows.size
    x_s = x[rows]
    y_s = y[rows]
    eta = params.detector_efficiency
    floor = (1.0 + params.electronic_noise) if noise_floor is None else noise_floor

    delta = _resolve_delta(omp, m_s, slack=1.1)
    gain, residual, imag_norm, flags = _transfer_gain(x, rows, y_s, omp, delta)
    if gain <= 0:
        flags.append(FLAG_UNESTIMABLE)
        return SubChannelEstimate(
            index=index,
            t_hat=0.0,
            eps_hat=math.nan,
            residual_norm=residual,
            sample_count=m_s,
            flags=tuple(flags),
            imag_norm=imag_norm,
        )

    t_hat = gain**2 / eta
    eps_hat = (float(y_s @ y_s) - eta * t_hat * float(x_s @ x_s) - m_s * floor) / (
        m_s * eta * t_hat
    )
    return SubChannelEstimate(
        index=index,
        t_hat=t_hat,
        eps_hat=eps_hat,
        residual_norm=residual,
        sample_count=m_s,
        flags=tuple(flags),
        imag_norm=imag_norm,
    )


def estimate_whole_channel_variables(
    dataset: QuadratureDataset,
    plans: Sequence[SamplingPlan],
    params: ProtocolParams,
    omp: OmpConfig = OmpConfig(),
    probabilities: Sequence[float] | None = None,
    noise_floor: float | None = None,
) -> tuple[list[SubChannelEstimate], AggregateEstimate]:
    """Joint sparse recovery over the concatenated sub-channel system.

    The block-diagonal structure makes the global system another row-sampled
    weighted IDFT over the sum(m_i)-point basis; one OMP solve with budget
    ``omp.k_max`` reconstructs the piecewise-constant global transfer vector.
    Per-sub-channel readout averages the reconstruction over each block:
    T_hat_i = mean(h over block i)^2 / eta, with the excess-noise plug-in
    evaluated on that block's sampled pairs.  The atom budget should grow
    with the number of distinct transmittance levels; one atom only suffices
    when the global vector is constant.
    """
    if len(plans) != dataset.count:
        raise ValueError(f"expected {dataset.count} plans, got {len(plans)}")
    eta = params.detector_efficiency
    floor = (1.0 + params.electronic_noise) if noise_floor is None else noise_floor

    screened = [
        screen_plan(plan, x, params.modulation_variance)
        for plan, x in zip(plans, dataset.alice)
    ]
    lengths = dataset.block_lengths
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    weights = np.concatenate(dataset.alice)
    rows = np.concatenate(
        [plan.indices + offsets[i] for i, plan in enumerate(screened)]
    ).astype(np.int64)
    measurement = np.concatenate(
        [dataset.bob[i][plan.indices] for i, plan in enumerate(screened)]
    )

    op = RowSampledIdftOperator(weights, rows)
    delta = _resolve_delta(omp, rows.size, slack=1.1)
    h, imag_norm, solution = _reconstruct_transfer(op, measurement, omp, delta)

    estimates: list[SubChannelEstimate] = []
    for i, plan in enumerate(screened):
        block = h[offsets[i] : offsets[i + 1]]
        x_s = dataset.alice[i][plan.indices]
        y_s = dataset.bob[i][plan.indices]
        m_s = plan.indices.size
        block_residual = float(
            np.linalg.norm(y_s - x_s * block[plan.indices])
        )
        flags: list[str] = [FLAG_DEGENERATE] if solution.degenerate_support else []
        mean_h = float(block.mean())
        if mean_h <= 0:
            flags.append(FLAG_UNESTIMABLE)
            estimates.append(
                SubChannelEstimate(
                    index=i,
                    t_hat=0.0,
                    eps_hat=math.nan,
                    residual_norm=block_residual,
                    sample_count=m_s,
                    flags=tuple(flags),
                    imag_norm=imag_norm,
                )
            )
            continue
        t_hat = mean_h**2 / eta
        eps_hat = (float(y_s @ y_s) - eta * t_hat * float(x_s @ x_s) - m_s * floor) / (
            m_s * eta * t_hat
        )
        estimates.append(
            SubChannelEstimate(
                index=i,
                t_hat=t_hat,
                eps_hat=eps_hat,
                residual_norm=block_residual,
                sample_count=m_s,
                flags=tuple(flags),
                imag_norm=imag_norm,
            )
        )

    if probabilities is None:
        probabilities = lengths / float(lengths.sum())
    aggregate = aggregate_estimates(estimates, probabilities)
    return estimates, aggregate


def measured_variance(y_block: np.ndarray) -> float:
    """Mean-square variance of a Bob block (symbols are zero-mean by protocol)."""
    y = np.asarray(y_block, dtype=float)
    if y.size < 2:
        raise ValueError("variance needs a block of at least 2 samples")
    return float(y @ y) / y.size


def block_variances(y_block: np.ndarray, n_blocks: int) -> np.ndarray:
    """Per-entry variance vector from disjoint contiguous sub-blocks.

    Entry j holds the empirical variance of the sub-block containing j, so
    the vector keeps the block length and feeds the same sensing machinery
    as the replicated variant.
    """
    y = np.asarray(y_block, dtype=float)
    if n_blocks < 1:
        raise ValueError("n_blocks must be >= 1")
    if y.size % n_blocks:
        raise ValueError(f"block length {y.size} is not divisible into {n_blocks} sub-blocks")
    width = y.size // n_blocks
    if width < 2:
        raise ValueError("sub-blocks need at least 2 samples each")
    per_block = (y.reshape(n_blocks, width) ** 2).mean(axis=1)
    return np.repeat(per_block, width)


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
        measured: the scalar measured variance (``replicated`` mode fills the
            whole variance vector with it) or a per-entry variance vector of
            length ``block_length`` (``blockwise`` mode).
        params: protocol constants; only the public modulation variance and
            calibrated eta, nu_el are consumed -- never Alice's symbols.
        block_length: m for the sub-channel.
        plan: row-selection plan over m.
        omp: solver configuration; the default single-atom budget is the
            closed-form DC projection (T_hat = g/eta with g the least-squares
            gain of the sampled floor-removed variances on V_A).  The derived
            stop tolerance is sqrt(m_s) * noise_scale with no slack: the
            in-model disturbance (eta*T*eps per entry) is deterministic, and
            keeping the residual constraint active via ``shrink_to_delta``
            separates it from the transmittance part exactly.
        noise_floor: constant removed per entry before sensing; defaults to
            1 + nu_el.
    """
    if mode not in VARIANCE_MODES:
        raise ValueError(f"mode must be one of {VARIANCE_MODES}, got {mode!r}")
    if plan.length != block_length:
        raise ValueError(f"plan covers length {plan.length}, expected {block_length}")
    floor = (1.0 + params.electronic_noise) if noise_floor is None else noise_floor

    if mode == "replicated":
        if np.ndim(measured) != 0:
            raise ValueError("replicated mode expects a scalar measured variance")
        r_y = np.full(block_length, float(measured))
    else:
        r_y = np.asarray(measured, dtype=float)
        if r_y.shape != (block_length,):
            raise ValueError(
                f"blockwise mode expects a variance vector of length {block_length}"
            )
        if np.any(r_y < 0):
            raise ValueError("variance entries must be >= 0")

    v_b = float(r_y.mean())
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
    r_vy = r_y - floor
    delta = _resolve_delta(omp, m_s, slack=1.0)
    gain, residual, imag_norm, flags = _transfer_gain(
        np.full(block_length, v_a), rows, r_vy[rows], omp, delta
    )
    t_hat = gain / eta
    if t_hat <= 0:
        flags.append(FLAG_UNESTIMABLE)
        return SubChannelEstimate(
            index=index,
            t_hat=0.0,
            eps_hat=math.nan,
            residual_norm=residual,
            sample_count=m_s,
            flags=tuple(flags),
            imag_norm=imag_norm,
        )
    eps_hat = (float(r_vy[rows].sum()) - eta * t_hat * m_s * v_a) / (m_s * eta * t_hat)
    return SubChannelEstimate(
        index=index,
        t_hat=t_hat,
        eps_hat=eps_hat,
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
