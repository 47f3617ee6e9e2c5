"""Per-sub-channel (T, eps) estimation via sparse reconstruction.

Two routes are provided:

* variable-based: Alice/Bob symbol pairs disclosed through a sampling plan
  feed the sensing model y_s = Phi diag(x) Psi s + z_s; the reconstructed
  transfer vector h = Psi s_hat (constant sqrt(eta*T) per sub-channel) gives
  T_hat = mean(h)^2 / eta and an excess-noise plug-in from the sampled
  second moments.

* statistics-based: only Bob's measured variances and the public modulation
  variance enter: one variance for the whole block (a scalar) or one per
  equal contiguous sub-block (a 1-d array).  The variance vector, with the
  constant 1 + nu_el floor removed, feeds the same machinery with weights
  V_A; T_hat = mean(h)/eta.  No individual symbols are consumed, so no key
  material is sacrificed.

With the default one-atom budget (``OmpConfig.k_max = 1``) the reconstruction
is the closed-form DC projection :func:`~csqkd.sensing.dc_project`: mean(h)
is the least-squares gain g = w_s.y_s / w_s.w_s, so T_hat = g^2/eta
(variables) or g/eta (statistics).  One cell fit per route, ``_fit_variables``
and ``_fit_statistics``, is the implementation of each: it fits consecutive
sub-channels of one (seed, fraction) cell with one atom budget and one
``shrink_to_delta`` in one pass.  It takes the blocks as the rows of (n, m)
planes (the statistics route: one variance per row, or a row of sub-block
variances each) and the plans as the rows of one sorted (n, m_s) index
array.  It gathers the sampled entries into the starts of the two rows of a
work area, with one flat ``take`` per plane, or a copy of the planes when
every row is sampled, fits them, and returns the estimates as the columns
of a :class:`CellFit`.  The projection
forms its residual in place in the gathered measurement rows, with g w in
the gathered Alice rows or, for the statistics route's shared weights, in
the second row.  A sweep allocates one work area (``_work_area``), the size
of its largest cell, and passes it to every cell fit.  Each sub-channel is
fitted on its own and the plug-ins and flags are elementwise, so the fit of
consecutive sub-channels equals the fits of any split of them joined in
order, bit for bit, and the per-sub-channel estimators are its one-channel
case.  With a larger budget each row is fitted by Batch-OMP
(:func:`~csqkd.sensing.omp_solve`) over the row-sampled IDFT operator
instead, except a zero Alice column or a variance below the floor, which
keeps gain 0 and residual ||y_s||, the projection of a zero column; and
:func:`transfer_moments` reads mean(h) = Re(s_0)/sqrt(m) and ||Im h|| off
the sparse coefficients s without synthesizing h.  A support without the DC
column has mean(h) = 0 exactly, so such an estimate is flagged both
``off_dc_support`` and ``unestimable_transmittance`` and is excluded from
aggregation.

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
import mmap
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channel import ProtocolParams
from .sensing import (
    DcProjection,
    OmpConfig,
    RowSampledIdftOperator,
    SamplingPlan,
    _dc_project,
    _norm,
    _row_dots,
    mutual_incoherence,
    omp_solve,
)

FLAG_UNESTIMABLE = "unestimable_transmittance"
FLAG_BELOW_FLOOR = "below_noise_floor"
FLAG_DEGENERATE = "degenerate_support"
#: A multi-atom OMP support without the DC column: mean(h) is exactly 0.
FLAG_OFF_DC = "off_dc_support"

#: Flags that mark an estimate as unusable for aggregation.
EXCLUDING_FLAGS = frozenset({FLAG_UNESTIMABLE, FLAG_BELOW_FLOOR, FLAG_OFF_DC})

#: Grace below the 1 + nu_el floor before a variance is flagged.
FLOOR_TOLERANCE = 1e-6


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


@dataclass(frozen=True)
class CellFit:
    """The estimates of a cell's sub-channels as columns; row i is sub-channel i."""

    t_hat: np.ndarray
    eps_hat: np.ndarray
    residual: np.ndarray
    sample_count: np.ndarray
    imag_norm: np.ndarray
    #: each row's flags joined by ";", "" for none
    flags: list[str]
    #: rows without an excluding flag
    usable: np.ndarray


# squares past the float range give an infinite sum, not a warning
@np.errstate(over="ignore")
def _require_finite(name: str, values: np.ndarray) -> None:
    # one BLAS pass: the sum of squares is finite unless an entry is not, or
    # the squares overflow, which no fit of the entries would survive either
    if not math.isfinite(values.dot(values)):
        raise ValueError(f"{name} must be finite, with a finite sum of squares")


def _plan_rows(plans: Sequence[SamplingPlan]) -> np.ndarray:
    """The indices of ``plans`` as the rows of one (n, m_s) array, the rows
    argument of the cell fits, which read them unchecked."""
    if not plans:
        raise ValueError("a cell needs at least one sub-channel")
    if len({p.sample_count for p in plans}) > 1:
        raise ValueError("the plans of a cell must share one sample count")
    if any(np.any(p.indices < 0) or np.any(p.indices >= p.length) for p in plans):
        raise ValueError("plan indices must lie in 0..length-1")
    return np.stack([p.indices for p in plans])


def _work_area(subchannels: int, sample_count: int) -> np.ndarray:
    """Two float rows, each of which holds the sampled rows of a cell of up
    to ``subchannels`` sub-channels at up to ``sample_count`` rows each, for
    ``work`` of the fits.

    The rows get an anonymous mapping of their own, unmapped when the array
    is freed.  On the malloc heap a sweep's area (832 KB on
    ``lowsnr-blockwise``) landed in a free hole or above the heap top from
    one process to the next, so the peak RSS of a loop of sweeps took one of
    two values, the area's size apart.
    """
    return np.frombuffer(mmap.mmap(-1, 16 * subchannels * sample_count), dtype=float).reshape(2, -1)


def _cell_fit(
    t_hat: np.ndarray,
    eps_hat: np.ndarray,
    residual: np.ndarray,
    sample_count: np.ndarray,
    imag_norm: np.ndarray,
    flags: Sequence[tuple[str, np.ndarray]],
) -> CellFit:
    """The columns of a cell; ``flags`` pairs each flag, in order, with the rows that carry it."""
    joined = [""] * t_hat.size
    for j in np.flatnonzero(np.logical_or.reduce([mask for _, mask in flags])).tolist():
        joined[j] = ";".join(name for name, mask in flags if mask[j])
    excluded = np.logical_or.reduce([mask for name, mask in flags if name in EXCLUDING_FLAGS])
    return CellFit(t_hat, eps_hat, residual, sample_count, imag_norm, joined, ~excluded)


def _records(fit: CellFit, first: int = 0) -> list[SubChannelEstimate]:
    """One estimate per row of ``fit``, indexed from ``first``."""
    columns = (fit.t_hat, fit.eps_hat, fit.residual, fit.sample_count, fit.imag_norm)
    return [
        SubChannelEstimate(
            index=first + j, t_hat=t, eps_hat=e, residual_norm=r, sample_count=n,
            flags=tuple(f.split(";")) if f else (), imag_norm=h,
        )
        for j, (t, e, r, n, h, f) in enumerate(zip(*(c.tolist() for c in columns), fit.flags))
    ]


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
    # at most 2|S| indices: a set sorts them faster than np.union1d
    support = np.asarray(support, dtype=np.int64).tolist()
    touched = np.array(sorted({*support, *((-k) % m for k in support)}), dtype=np.int64)
    imag_norm = 0.5 * _norm(s[touched] - np.conj(s[(-touched) % m]))
    return float(s[0].real) / math.sqrt(m), imag_norm


def _dc_fit(
    weights: np.ndarray,
    measurement: np.ndarray,
    delta: np.ndarray,
    shrink: bool,
    k_max: int,
    scratch: np.ndarray,
) -> DcProjection:
    """The one-atom fits of a cell, or at a larger budget the sums OMP starts from.

    At ``k_max = 1`` this is :func:`~csqkd.sensing.dc_project`, with the
    residual formed in place in ``measurement`` and ``scratch`` (``weights``
    or an array of the cell's shape) for g w.  Otherwise ``measurement`` is
    kept for :func:`_omp_refit`, and every row gets w_s.w_s, y_s.y_s, gain 0
    and residual ||y_s||: the projection of a zero column, which the rows
    that OMP solves overwrite.
    """
    if k_max == 1:
        return _dc_project(weights, measurement, delta, shrink, scratch)
    n = measurement.shape[0]
    ww = _row_dots(weights, weights) if weights.ndim == 2 else np.full(n, weights @ weights)
    yy = _row_dots(measurement, measurement)
    return DcProjection(np.zeros(n), np.sqrt(yy), ww == 0, ww, yy)


def _omp_refit(
    fit: DcProjection,
    todo: np.ndarray,
    weights: Callable[[int], np.ndarray],
    measurement: np.ndarray,
    rows: np.ndarray,
    k_max: int,
    delta: np.ndarray,
    shrink: bool,
    imag_norm: np.ndarray,
    off_dc: np.ndarray,
    coherence: np.ndarray | None = None,
) -> None:
    """Refit by Batch-OMP the rows of the cell marked in ``todo``, in place.

    Row i is ``measurement[i]`` through the row-sampled IDFT operator of
    ``weights(i)`` at ``rows[i]``, solved with ``k_max``, ``delta[i]`` and
    ``shrink``.  Its gain becomes mean(h), read off the coefficients, and its
    residual norm and degenerate flag in ``fit`` are overwritten;
    ``imag_norm[i]`` and ``off_dc[i]`` get its imaginary-residue norm and
    whether its support misses the DC column.  A ``coherence`` column gets
    the operator's :func:`~csqkd.sensing.mutual_incoherence`, read off the
    Gram that the solve cached, so it takes no transform.
    """
    for i in np.flatnonzero(todo).tolist():
        op = RowSampledIdftOperator(weights(i), rows[i])
        solution = omp_solve(op, measurement[i], k_max=k_max, delta=float(delta[i]), shrink_to_delta=shrink)
        if coherence is not None:
            coherence[i] = mutual_incoherence(op)
        fit.gain[i], imag_norm[i] = transfer_moments(solution.coefficients, solution.support)
        fit.residual_norm[i] = solution.residual_norm
        fit.degenerate[i] = solution.degenerate_support
        off_dc[i] = solution.support.size > 0 and 0 not in solution.support.tolist()


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
    alice: np.ndarray,
    bob: np.ndarray,
    rows: np.ndarray,
    params: ProtocolParams,
    k_max: int,
    noise_scale: float | np.ndarray,
    shrink: bool,
    noise_floor: float | None = None,
    work: np.ndarray | None = None,
    coherence: np.ndarray | None = None,
) -> CellFit:
    """The variables fit of validated (n, m) planes of Alice's and Bob's
    blocks, row i sub-channel i, sampled at row i of ``rows``, sorted unique
    indices (:func:`~csqkd.sensing._cell_plans`), with the atom budget
    ``k_max`` and ``shrink`` (``shrink_to_delta``) of every sub-channel and
    ``noise_scale`` (0 for none) for all or one each.  The sampled entries
    are gathered at the start of the two rows of ``work``
    (:func:`_work_area`; by default a fresh one of the cell's size), which
    is overwritten.  At ``k_max > 1`` a ``coherence`` column gets the
    coherence value of each row that OMP solves (see :func:`_omp_refit`);
    its other rows are left as they are."""
    n, m_s = rows.shape
    floor = (1.0 + params.electronic_noise) if noise_floor is None else noise_floor
    delta = np.broadcast_to(1.1 * math.sqrt(m_s) * noise_scale, n)
    if work is None:
        work = _work_area(n, m_s)
    x_s, y_s = (row[: n * m_s].reshape(n, m_s) for row in work)
    if m_s == alice.shape[1]:
        # sorted unique rows that keep all m indices: the planes themselves
        np.copyto(x_s, alice)
        np.copyto(y_s, bob)
    else:
        # one flat take per plane, row i at rows[i] + i*m; the indices are
        # in range, and "clip" writes to out directly where "raise" buffers.
        # The index array is freed before the fit allocates
        flat = rows + np.arange(0, alice.size, alice.shape[1])[:, None]
        alice.take(flat, out=x_s, mode="clip")
        bob.take(flat, out=y_s, mode="clip")
        del flat
    sample_count = np.count_nonzero(x_s, axis=1)
    imag_norm, off_dc = np.zeros(n), np.zeros(n, dtype=bool)
    # x_s is the g w scratch
    fit = _dc_fit(x_s, y_s, delta, shrink, k_max, x_s)
    if k_max > 1:
        # a zero column has nothing to refit
        _omp_refit(
            fit, ~fit.degenerate, alice.__getitem__, y_s, rows, k_max, delta, shrink, imag_norm, off_dc, coherence,
        )
    t_hat, eps_hat, unestimable = _variables_plug_in(
        fit.gain, fit.ww, fit.yy, m_s, params.detector_efficiency, floor
    )
    return _cell_fit(
        t_hat, eps_hat, fit.residual_norm, sample_count, imag_norm,
        ((FLAG_DEGENERATE, fit.degenerate), (FLAG_OFF_DC, off_dc), (FLAG_UNESTIMABLE, unestimable)),
    )


def _variables_inputs(
    x_block, y_block, length: int, x_name: str = "x_block", y_name: str = "y_block"
) -> tuple[np.ndarray, np.ndarray]:
    """Finite 1-d float blocks of the ``length`` that the plans cover."""
    x = np.asarray(x_block, dtype=float)
    y = np.asarray(y_block, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"{x_name} and {y_name} must be 1-d arrays of equal length")
    if length != x.size:
        raise ValueError(f"plan covers length {length}, {x_name} has {x.size}")
    _require_finite(x_name, x)
    _require_finite(y_name, y)
    return x, y


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
            (x_s.y_s / x_s.x_s)^2 / eta); a larger one runs OMP.  Either way
            the estimate is the one-channel case of the cell fit.  The stop
            tolerance, when derived from ``noise_scale``, is 1.1 * sqrt(m_s)
            * noise_scale (the residual of the true solution concentrates
            near sqrt(m_s) * sigma).
        noise_floor: constant subtracted per sampled entry in the excess-noise
            plug-in; defaults to 1 + nu_el.  Pass 0.0 for data generated in
            zero-noise mode, which carries no vacuum unit.
    """
    x, y = _variables_inputs(x_block, y_block, plan.length)
    fit = _fit_variables(
        x[None], y[None], _plan_rows([plan]), params, omp.k_max, omp.noise_scale or 0.0, omp.shrink_to_delta,
        noise_floor,
    )
    return _records(fit, first=index)[0]


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
    the vector keeps the block length; the statistics estimators read it as
    sub-blocks of width 1.
    """
    per_block = subblock_variances(y_block, n_blocks)
    return np.repeat(per_block, np.size(y_block) // n_blocks)


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
    measured: np.ndarray,
    params: ProtocolParams,
    length: int,
    rows: np.ndarray,
    k_max: int,
    noise_scale: float | np.ndarray,
    shrink: bool,
    noise_floor: float | None = None,
    work: np.ndarray | None = None,
) -> CellFit:
    """The statistics fit of validated variances of blocks of ``length``:
    row i of ``measured`` holds the variances of B equal sub-blocks of
    sub-channel i, B dividing ``length`` (a 1-d array, one variance per
    sub-channel, is B = 1).  The rows, solver settings and ``work`` are
    those of :func:`_fit_variables`."""
    n, m_s = rows.shape
    v_a = params.modulation_variance
    floor = (1.0 + params.electronic_noise) if noise_floor is None else noise_floor
    delta = np.broadcast_to(math.sqrt(m_s) * noise_scale, n)
    measured = measured.reshape(n, -1)
    b = measured.shape[1]
    below = measured.mean(axis=1) <= floor - FLOOR_TOLERANCE
    if work is None:
        work = _work_area(n, m_s)
    r_s, scratch = (row[: n * m_s].reshape(n, m_s) for row in work)
    # r_y[rows] without forming the length-m vectors r_y: a broadcast copy
    # for one variance a row or every row sampled, else one flat take at
    # rows[i] // (length / B) + i*B (in range, so unbuffered "clip")
    if b == 1 or m_s == length:
        np.copyto(r_s.reshape(n, b, -1), measured[:, :, None])
    else:
        flat = rows // (length // b)
        flat += np.arange(0, n * b, b)[:, None]
        measured.take(flat, out=r_s, mode="clip")
        del flat
    r_s -= floor
    sums = r_s.sum(axis=1)
    imag_norm, off_dc = np.zeros(n), np.zeros(n, dtype=bool)
    fit = _dc_fit(np.full(m_s, v_a), r_s, delta, shrink, k_max, scratch)
    if k_max > 1:
        _omp_refit(
            fit, ~below, lambda i: np.full(length, v_a), r_s, rows, k_max, delta, shrink, imag_norm, off_dc
        )
    t_hat, eps_hat, unestimable = _statistics_plug_in(fit.gain, sums, m_s, params.detector_efficiency, v_a)
    t_hat[below] = 0.0
    eps_hat[below] = math.nan
    fit.residual_norm[below] = 0.0
    return _cell_fit(
        t_hat, eps_hat, fit.residual_norm, np.full(n, m_s), imag_norm,
        (
            (FLAG_BELOW_FLOOR, below),
            (FLAG_DEGENERATE, fit.degenerate & ~below),
            (FLAG_OFF_DC, off_dc),
            (FLAG_UNESTIMABLE, unestimable & ~below),
        ),
    )


def _statistics_input(measured, length: int, name: str = "measured") -> float | np.ndarray:
    """A finite scalar as a float, or a finite nonnegative 1-d array of
    sub-block variances whose count divides ``length``."""
    if np.ndim(measured) == 0:
        if not math.isfinite(measured):
            raise ValueError(f"{name} must be finite")
        return float(measured)
    r_y = np.asarray(measured, dtype=float)
    if r_y.ndim != 1 or r_y.size == 0 or length % r_y.size:
        raise ValueError(
            f"{name} must be a scalar variance or hold one variance per sub-block, "
            f"a count that divides the block length {length}"
        )
    _require_finite(name, r_y)
    if np.any(r_y < 0):
        raise ValueError(f"{name} entries must be >= 0")
    return r_y


def estimate_subchannel_statistics(
    measured: float | np.ndarray,
    params: ProtocolParams,
    block_length: int,
    plan: SamplingPlan,
    omp: OmpConfig = OmpConfig(),
    noise_floor: float | None = None,
    index: int = 0,
) -> SubChannelEstimate:
    """Estimate (T, eps) from second-order statistics only.

    Args:
        measured: the finite measured variance of the block, as a scalar, or
            a finite 1-d array of the variances of equal contiguous
            sub-blocks, in any count that divides ``block_length`` (a
            per-entry vector of length ``block_length`` is the case of
            width-1 sub-blocks).
        params: protocol constants; only the public modulation variance and
            calibrated eta, nu_el are consumed -- never Alice's symbols.
        block_length: m for the sub-channel.
        plan: row-selection plan over m.
        omp: solver configuration; the default single-atom budget is the
            closed-form DC projection (T_hat = g/eta with g the least-squares
            gain of the sampled floor-removed variances on V_A), and a larger
            one runs OMP, both as the one-channel case of the cell fit.  The
            derived stop tolerance is sqrt(m_s) * noise_scale with no slack:
            the in-model disturbance (eta*T*eps per entry) is deterministic, and
            keeping the residual constraint active via ``shrink_to_delta``
            separates it from the transmittance part exactly.
        noise_floor: constant removed per entry before sensing; defaults to
            1 + nu_el.
    """
    if plan.length != block_length:
        raise ValueError(f"plan covers length {plan.length}, expected {block_length}")
    value = _statistics_input(measured, block_length)
    fit = _fit_statistics(
        np.reshape(value, (1, -1)), params, block_length, _plan_rows([plan]), omp.k_max, omp.noise_scale or 0.0,
        omp.shrink_to_delta, noise_floor,
    )
    return _records(fit, first=index)[0]


def aggregate_estimates(
    estimates: Sequence[SubChannelEstimate] | CellFit,
    probabilities: Sequence[float] | None = None,
) -> AggregateEstimate:
    """Probability-weighted means over the usable estimates.

    ``estimates`` is a list of estimates or the columns of a cell fit, and
    each of ``probabilities`` lies in [0, 1].  Flagged (unestimable,
    below-floor or off-DC) entries are excluded and the weights
    renormalized; the exclusion count is returned.  Raw values feed the T and
    eps means; sqrt(T) floors the transmittance at zero but applies no upper
    cap (capping individual entries at 1 would bias <sqrt(T)> low near unit
    transmittance, while the Jensen ordering <sqrt(T)>^2 <= <T> already holds
    for any nonnegative values).
    """
    if isinstance(estimates, CellFit):
        t, eps, usable = estimates.t_hat, estimates.eps_hat, estimates.usable
    else:
        t = np.array([e.t_hat for e in estimates])
        eps = np.array([e.eps_hat for e in estimates])
        usable = np.array([e.usable for e in estimates], dtype=bool)
    if not t.size:
        raise ValueError("no estimates to aggregate")
    if probabilities is None:
        p = np.full(t.size, 1.0 / t.size)
    else:
        p = np.asarray(probabilities, dtype=float)
        if p.shape != t.shape:
            raise ValueError(f"expected {t.size} probabilities, got shape {p.shape}")
        bad = np.flatnonzero(~((p >= 0) & (p <= 1)))
        if bad.size:
            raise ValueError(f"probability out of [0, 1] at index {int(bad[0])}: {float(p[bad[0]])!r}")
    excluded = int((~usable).sum())
    if not usable.any():
        raise ValueError("all estimates are flagged; nothing to aggregate")
    weights = p[usable]
    total = float(weights.sum())
    if total <= 0:
        raise ValueError("usable estimates carry zero total probability")
    weights = weights / total
    t = t[usable]
    return AggregateEstimate(
        t_mean=float(weights @ t),
        sqrt_t_mean=float(weights @ np.sqrt(np.maximum(t, 0.0))),
        eps_mean=float(weights @ eps[usable]),
        excluded=excluded,
    )
