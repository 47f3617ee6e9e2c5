"""Compressive-sensing primitives: sampling plans, DFT basis, OMP, coherence.

The sparse basis is the unitary inverse-DFT matrix (entries
exp(+2i*pi*j*k/m)/sqrt(m)), so a constant vector of length m is a single
impulse of magnitude sqrt(m) in the analysis domain.  Sensing operators are
kept in factored form (row selection o diagonal weighting o unitary IDFT)
and applied with FFTs; nothing is densified for large m.

A one-atom fit on the DC column is a scalar least-squares projection, so
:func:`dc_fit` computes it in closed form without an operator; OMP serves
larger atom budgets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

#: Coherence evaluations on generic operators densify columns; refuse beyond this.
MIP_DENSE_GUARD = 20_000
#: Entry budget for densified column blocks in the generic coherence path.
MIP_ENTRY_GUARD = 40_000_000


def unitary_dft(v: np.ndarray) -> np.ndarray:
    """Analysis transform: s[k] = sum_j v[j] exp(-2i*pi*j*k/m) / sqrt(m)."""
    return np.fft.fft(v, norm="ortho")


def unitary_idft(s: np.ndarray) -> np.ndarray:
    """Synthesis transform, the inverse (and adjoint) of :func:`unitary_dft`."""
    return np.fft.ifft(s, norm="ortho")


def idft_basis(m: int) -> np.ndarray:
    """Dense unitary inverse-DFT basis, column k = exp(+2i*pi*j*k/m)/sqrt(m).

    Intended for small-m checks; the operators below never materialize it.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    j = np.arange(m)
    return np.exp(2j * np.pi * np.outer(j, j) / m) / math.sqrt(m)


@dataclass(frozen=True)
class SamplingPlan:
    """Random row-selection set: sorted unique indices into a length-m block."""

    length: int
    fraction: float
    seed: int
    indices: np.ndarray

    @property
    def sample_count(self) -> int:
        return int(self.indices.size)


def make_sampling_plan(m: int, fraction: float, seed: int) -> SamplingPlan:
    """Choose max(1, round(fraction * m)) distinct indices from 0..m-1.

    fraction = 1 keeps every index (identity selection).  Deterministic for a
    fixed seed.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    m_s = max(1, int(math.floor(fraction * m + 0.5)))
    if m_s >= m:
        indices = np.arange(m, dtype=np.int64)
    else:
        rng = np.random.default_rng(seed)
        indices = np.sort(rng.choice(m, size=m_s, replace=False)).astype(np.int64)
    return SamplingPlan(length=m, fraction=fraction, seed=seed, indices=indices)


class SensingOperator:
    """Linear map from coefficient space (dim m) to measurement space (dim m_s)."""

    n_coefficients: int
    n_measurements: int

    def apply(self, coefficients: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self, measurement: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def column(self, k: int) -> np.ndarray:
        raise NotImplementedError

    def column_norms(self) -> np.ndarray:
        return np.array(
            [np.linalg.norm(self.column(k)) for k in range(self.n_coefficients)]
        )

    def dense(self) -> np.ndarray:
        cols = [self.column(k) for k in range(self.n_coefficients)]
        return np.stack(cols, axis=1)


class RowSampledIdftOperator(SensingOperator):
    """Row-sampled, diagonally weighted unitary IDFT: theta = Phi diag(w) Psi.

    Used with w = Alice's symbols (variable-based model) or w = V_A * ones
    (statistics-based model).  Every column has the same norm
    ||w[rows]|| / sqrt(m) because the basis entries are unimodular.
    """

    def __init__(self, weights: np.ndarray, rows: np.ndarray):
        weights = np.asarray(weights, dtype=float)
        rows = np.asarray(rows, dtype=np.int64)
        if weights.ndim != 1:
            raise ValueError("weights must be a 1-d array")
        if rows.ndim != 1 or rows.size == 0:
            raise ValueError("rows must be a non-empty 1-d index array")
        if rows.min() < 0 or rows.max() >= weights.size:
            raise ValueError("row indices out of range")
        # plans are sorted, so a strictly increasing test settles uniqueness
        # in O(n); only unsorted rows pay for np.unique
        if not np.all(rows[1:] > rows[:-1]) and np.unique(rows).size != rows.size:
            raise ValueError("row indices must be unique")
        self.weights = weights
        self.rows = rows
        self.n_coefficients = weights.size
        self.n_measurements = rows.size

    def apply(self, coefficients: np.ndarray) -> np.ndarray:
        h = unitary_idft(np.asarray(coefficients, dtype=np.complex128))
        return self.weights[self.rows] * h[self.rows]

    def adjoint(self, measurement: np.ndarray) -> np.ndarray:
        scattered = np.zeros(self.n_coefficients, dtype=np.complex128)
        scattered[self.rows] = self.weights[self.rows] * np.asarray(
            measurement, dtype=np.complex128
        )
        return unitary_dft(scattered)

    def column(self, k: int) -> np.ndarray:
        m = self.n_coefficients
        phase = np.exp(2j * np.pi * self.rows * (k % m) / m) / math.sqrt(m)
        return self.weights[self.rows] * phase

    def column_norms(self) -> np.ndarray:
        value = np.linalg.norm(self.weights[self.rows]) / math.sqrt(self.n_coefficients)
        return np.full(self.n_coefficients, value)

    def gram_by_offset(self) -> np.ndarray:
        """Column Gram as a function of index offset d = (j - k) mod m.

        <theta_k, theta_j> depends only on d, which makes the full m^2-pair
        coherence an O(m log m) FFT of the scattered squared weights.
        """
        w2 = np.zeros(self.n_coefficients)
        w2[self.rows] = self.weights[self.rows] ** 2
        return np.fft.ifft(w2)


class DenseOperator(SensingOperator):
    """Explicit-matrix operator, mainly for tests and generic diagnostics."""

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-d")
        self.matrix = matrix
        self.n_measurements, self.n_coefficients = matrix.shape

    def apply(self, coefficients: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(coefficients, dtype=np.complex128)

    def adjoint(self, measurement: np.ndarray) -> np.ndarray:
        return self.matrix.conj().T @ np.asarray(measurement, dtype=np.complex128)

    def column(self, k: int) -> np.ndarray:
        return self.matrix[:, k]

    def column_norms(self) -> np.ndarray:
        return np.linalg.norm(self.matrix, axis=0)

    def dense(self) -> np.ndarray:
        return self.matrix


@dataclass(frozen=True)
class OmpConfig:
    """Solver knobs shared by the estimators.

    ``k_max = 1``, the budget of a constant sub-channel, is the closed-form
    DC projection of :func:`dc_fit`; a larger budget runs :func:`omp_solve`.
    ``delta`` is an absolute residual tolerance; when it is None the
    estimators derive one from ``noise_scale`` (the known or estimated
    per-entry disturbance amplitude) as delta ~ sqrt(m_s) * noise_scale.
    ``shrink_to_delta`` treats delta as the norm of a deterministic
    disturbance lying along the fitted component and scales the coefficients
    back by that amount after the greedy fit; on a noise-free fit this makes
    the residual constraint active, i.e. yields the minimum-l1 solution on
    the recovered support.  Leave it off for purely stochastic noise.
    """

    k_max: int = 1
    delta: float | None = None
    noise_scale: float | None = None
    shrink_to_delta: bool = False


@dataclass
class SparseCoefficients:
    """OMP output: full coefficient vector plus solve diagnostics."""

    coefficients: np.ndarray
    support: np.ndarray
    residual_norm: float
    residual_history: list[float] = field(default_factory=list)
    degenerate_support: bool = False


def omp_solve(
    op: SensingOperator,
    measurement: np.ndarray,
    k_max: int = 1,
    delta: float = 0.0,
    shrink_to_delta: bool = False,
) -> SparseCoefficients:
    """Orthogonal matching pursuit with least-squares refit.

    Each iteration selects the column with the largest normalized correlation
    against the residual (ties break toward the lowest index), refits all
    selected columns by least squares, and stops once the residual norm drops
    to ``delta`` or the support reaches ``k_max``.  A rank-deficient support
    system drops the newest atom, stops, and flags ``degenerate_support``.
    """
    y = np.asarray(measurement, dtype=np.complex128).ravel()
    if y.size != op.n_measurements:
        raise ValueError(
            f"measurement length {y.size} does not match operator ({op.n_measurements})"
        )
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if delta < 0:
        raise ValueError("delta must be >= 0")

    norms = op.column_norms()
    usable = norms > 0
    support: list[int] = []
    columns = np.empty((y.size, 0), dtype=np.complex128)
    coef = np.empty(0, dtype=np.complex128)
    residual = y.copy()
    history = [float(np.linalg.norm(residual))]
    degenerate = False

    while len(support) < k_max and history[-1] > delta:
        scores = np.abs(op.adjoint(residual))
        scores = np.where(usable, scores / np.where(usable, norms, 1.0), -1.0)
        if support:
            scores[support] = -1.0
        k = int(np.argmax(scores))
        if scores[k] <= 0:
            break
        candidate = np.hstack([columns, op.column(k)[:, None]])
        sol, _, rank, _ = np.linalg.lstsq(candidate, y, rcond=None)
        if rank < candidate.shape[1]:
            degenerate = True
            break
        columns = candidate
        support.append(k)
        coef = sol
        residual = y - columns @ coef
        history.append(float(np.linalg.norm(residual)))

    if shrink_to_delta and delta > 0 and support:
        fitted_norm = float(np.linalg.norm(columns @ coef))
        if fitted_norm > 0:
            coef = coef * max(0.0, 1.0 - delta / fitted_norm)

    full = np.zeros(op.n_coefficients, dtype=np.complex128)
    if support:
        full[np.asarray(support)] = coef
    residual_norm = float(np.linalg.norm(y - op.apply(full)))
    return SparseCoefficients(
        coefficients=full,
        support=np.asarray(support, dtype=np.int64),
        residual_norm=residual_norm,
        residual_history=history,
        degenerate_support=degenerate,
    )


def dc_fit(
    weights: np.ndarray,
    measurement: np.ndarray,
    delta: float = 0.0,
    shrink_to_delta: bool = False,
) -> tuple[float, float, bool]:
    """Closed-form one-atom fit of ``measurement`` on the DC column.

    ``weights`` and ``measurement`` are the sampled entries w_s and y_s.  The
    DC column of Phi diag(w) Psi is w_s / sqrt(m), so the least-squares gain
    g = w_s.y_s / w_s.w_s is the constant value of the transfer vector that
    :func:`omp_solve` returns whenever it selects the DC atom.  Its
    semantics are kept: no atom when ||y_s|| <= ``delta``, the
    ``shrink_to_delta`` factor max(0, 1 - delta / ||g w_s||), and a zero
    column reported as a degenerate support.

    Returns (g, ||y_s - g w_s||, degenerate_support).
    """
    w = np.asarray(weights, dtype=float)
    y = np.asarray(measurement, dtype=float)
    if w.ndim != 1 or w.shape != y.shape:
        raise ValueError("weights and measurement must be 1-d arrays of equal length")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    y_norm = float(np.linalg.norm(y))
    if y_norm <= delta:
        return 0.0, y_norm, False
    ww = float(w @ w)
    if ww == 0:
        return 0.0, y_norm, True
    gain = float(w @ y) / ww
    if shrink_to_delta and delta > 0:
        fitted_norm = abs(gain) * math.sqrt(ww)
        if fitted_norm > 0:
            gain *= max(0.0, 1.0 - delta / fitted_norm)
    return gain, float(np.linalg.norm(y - gain * w)), False


def _offsets_from_columns(columns: np.ndarray, m: int) -> np.ndarray:
    diffs = (columns[:, None] - columns[None, :]) % m
    diffs = np.unique(diffs)
    return diffs[diffs != 0]


def mutual_incoherence(
    op: SensingOperator,
    normalize: bool = False,
    columns: Sequence[int] | None = None,
) -> float:
    """Largest off-diagonal column inner product of the sensing matrix.

    With ``normalize`` the columns are l2-normalized first (the textbook,
    scale-free definition).  Without it, inner products are reported in the
    plain inverse-DFT convention (basis entries 1/m rather than the unitary
    1/sqrt(m)); in that convention the value grows with the number of sampled
    rows, which is the regime the magnitude diagnostics in this package are
    calibrated against.

    Row-sampled IDFT operators are evaluated exactly over all column pairs in
    O(m log m) via their offset-circulant Gram.  Other operators fall back to
    a densified computation guarded by :data:`MIP_DENSE_GUARD`; pass
    ``columns`` to diagnose a subset when the dense form is too large.
    """
    m = op.n_coefficients
    if m < 2:
        raise ValueError("mutual incoherence needs at least two columns")

    if isinstance(op, RowSampledIdftOperator):
        gram = op.gram_by_offset()
        if columns is not None:
            offsets = _offsets_from_columns(np.asarray(columns, dtype=np.int64), m)
            if offsets.size == 0:
                raise ValueError("column subset must contain at least two distinct columns")
            peak = float(np.max(np.abs(gram[offsets])))
        else:
            peak = float(np.max(np.abs(gram[1:])))
        if normalize:
            diag = float(gram[0].real)
            if diag <= 0:
                raise ValueError("operator has zero column norms")
            return peak / diag
        return peak / m

    if m > MIP_DENSE_GUARD:
        raise ValueError(
            f"dense coherence at m={m} exceeds the guard ({MIP_DENSE_GUARD}); "
            "pass a column subset to subsample"
        )
    idx = np.arange(m) if columns is None else np.asarray(columns, dtype=np.int64)
    if idx.size < 2:
        raise ValueError("column subset must contain at least two distinct columns")
    if idx.size * op.n_measurements > MIP_ENTRY_GUARD:
        raise ValueError(
            "densified column block exceeds the memory guard; "
            "pass a smaller column subset"
        )
    block = np.stack([op.column(int(k)) for k in idx], axis=1)
    gram = block.conj().T @ block
    off = np.abs(gram - np.diag(np.diag(gram)))
    peak = float(off.max())
    if normalize:
        norms = np.sqrt(np.abs(np.diag(gram)))
        if np.any(norms == 0):
            raise ValueError("operator has zero column norms")
        scaled = off / np.outer(norms, norms)
        return float(scaled.max())
    return peak / m
