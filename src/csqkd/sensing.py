"""Compressive sensing: sampling plans, the row-sampled IDFT operator, OMP, coherence.

The sparse basis is the unitary inverse-DFT matrix (entries
exp(+2i*pi*j*k/m)/sqrt(m)), so a constant vector of length m is a single
impulse of magnitude sqrt(m) in the analysis domain.  The one sensing
operator, Theta = Phi diag(w) Psi, is kept in factored form (row selection
o diagonal weighting o unitary IDFT) and applied with FFTs; nothing is
densified for large m.

The weights are real, and both estimators measure real data, so the adjoint
and the circulant Gram take a real FFT (``np.fft.rfft``) and complete the
other half of the spectrum by exact conjugate mirroring, s[m-k] = conj(s[k])
(Sorensen, Jones, Heideman & Burrus, IEEE Trans. ASSP 35(6), 1987); complex
data keeps the complex FFT.  Columns gather exp(2i*pi*j/m) from a table built
once per block length, equal bit for bit to the direct cos/sin expression.

A one-atom fit on the DC column is a scalar least-squares projection, so
:func:`dc_project` computes it in closed form without an operator, for a
stack of fits at once; OMP serves larger atom budgets.  :func:`omp_solve` is
Batch-OMP: one adjoint A^H y, correlations updated through Gram columns
A^H a_k (circular shifts of one transform), and small normal-equation
refits, so a solve runs two transforms and no dense least squares.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

#: Relative roundoff of Gram-updated OMP correlations; scores below it are
#: confirmed against an explicit adjoint of the residual.
ROUNDOFF_SCALE = 64 * np.finfo(float).eps
#: A new atom whose squared distance from the span of the support falls to
#: this fraction of its squared norm makes the support rank-deficient.
PIVOT_TOLERANCE = 64 * np.finfo(float).eps


def unitary_dft(v: np.ndarray) -> np.ndarray:
    """Analysis transform: s[k] = sum_j v[j] exp(-2i*pi*j*k/m) / sqrt(m)."""
    return np.fft.fft(v, norm="ortho")


def unitary_idft(s: np.ndarray) -> np.ndarray:
    """Synthesis transform, the inverse (and adjoint) of :func:`unitary_dft`."""
    return np.fft.ifft(s, norm="ortho")


def _hermitian_completion(half: np.ndarray, m: int) -> np.ndarray:
    """Length-m spectrum of a real signal from its rfft half: s[m-k] = conj(s[k])."""
    full = np.empty(m, dtype=np.complex128)
    n = half.size
    full[:n] = half
    np.conj(half[m - n : 0 : -1], out=full[n:])
    return full


@functools.lru_cache(maxsize=8)
def _unit_roots(m: int) -> np.ndarray:
    """exp(2i*pi*j/m) for j = 0..m-1, read-only; column k gathers j = r*k mod m."""
    phase = np.arange(m) * (2 * np.pi / m)
    roots = np.empty(m, dtype=np.complex128)
    roots.real = np.cos(phase)
    roots.imag = np.sin(phase)
    roots.flags.writeable = False
    return roots


@dataclass(frozen=True)
class SamplingPlan:
    """Random row-selection set: sorted unique indices into a length-m block."""

    length: int
    indices: np.ndarray

    @property
    def sample_count(self) -> int:
        return int(self.indices.size)


def make_sampling_plan(
    m: int, fraction: float, seed: int | np.random.Generator
) -> SamplingPlan:
    """Choose max(1, round(fraction * m)) distinct indices from 0..m-1.

    fraction = 1 keeps every index (identity selection) and draws nothing.
    ``seed`` is an int, which seeds a fresh generator, or a ``Generator``,
    which the draw advances: successive calls on one generator give
    independent uniform subsets, and a sweep draws every plan of a cell from
    one generator in sub-channel order.  Deterministic for a fixed seed or
    generator state.  The draw skips the generator's final shuffle, which the
    sorted index set does not see.
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
        indices = np.sort(rng.choice(m, size=m_s, replace=False, shuffle=False)).astype(np.int64)
    return SamplingPlan(length=m, indices=indices)


class RowSampledIdftOperator:
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
        self._gram: np.ndarray | None = None

    def apply(self, coefficients: np.ndarray) -> np.ndarray:
        h = unitary_idft(np.asarray(coefficients, dtype=np.complex128))
        return self.weights[self.rows] * h[self.rows]

    def adjoint(self, measurement: np.ndarray) -> np.ndarray:
        """A^H r; a real r takes a real transform and Hermitian completion."""
        measurement = np.asarray(measurement)
        scattered = np.zeros(self.n_coefficients, dtype=np.result_type(measurement, float))
        scattered[self.rows] = self.weights[self.rows] * measurement
        if np.iscomplexobj(scattered):
            return unitary_dft(scattered)
        return _hermitian_completion(np.fft.rfft(scattered, norm="ortho"), self.n_coefficients)

    def column(self, k: int) -> np.ndarray:
        m = self.n_coefficients
        # reducing r*k mod m in integers indexes the phase j*2*pi/m in [0, 2*pi)
        col = _unit_roots(m)[(self.rows * (k % m)) % m]
        col *= self.weights[self.rows] / math.sqrt(m)
        return col

    def column_norms(self) -> np.ndarray:
        value = np.linalg.norm(self.weights[self.rows]) / math.sqrt(self.n_coefficients)
        return np.full(self.n_coefficients, value)

    def half_gram_by_offset(self) -> np.ndarray:
        """Entries d = 0..m//2 of :meth:`gram_by_offset`, one real transform."""
        w2 = np.zeros(self.n_coefficients)
        w2[self.rows] = self.weights[self.rows] ** 2
        half = np.fft.rfft(w2)
        np.conj(half, out=half)
        half /= self.n_coefficients
        return half

    def gram_by_offset(self) -> np.ndarray:
        """Column Gram as a function of index offset d = (j - k) mod m.

        <theta_k, theta_j> depends only on d, which makes the full m^2-pair
        coherence an O(m log m) FFT of the scattered squared weights.  The
        weights are real, so g[m - d] = conj(g[d]) and a real transform of
        half the work gives all of g.
        """
        return _hermitian_completion(self.half_gram_by_offset(), self.n_coefficients)

    def gram_column(self, k: int, entries: np.ndarray | None = None) -> np.ndarray:
        """A^H a_k without a transform: entry j is g[(k - j) mod m].

        g is :meth:`gram_by_offset`, computed once per operator.  ``entries``
        gathers only those j, without building the length-m column.
        """
        if self._gram is None:
            self._gram = self.gram_by_offset()
        if entries is not None:
            return self._gram[(k - np.asarray(entries)) % self.n_coefficients]
        k %= self.n_coefficients
        # j = 0..k reads g[k], ..., g[0]; j = k+1..m-1 reads g[m-1], ..., g[k+1]
        return np.concatenate((self._gram[k::-1], self._gram[: k : -1]))

    def dense(self) -> np.ndarray:
        """The explicit m_s x m matrix, for small-m checks."""
        return np.stack([self.column(k) for k in range(self.n_coefficients)], axis=1)


@dataclass(frozen=True)
class OmpConfig:
    """Solver knobs shared by the estimators.

    ``k_max = 1``, the budget of a constant sub-channel, is the closed-form
    DC projection of :func:`dc_project`; a larger budget runs :func:`omp_solve`.
    The estimators derive the absolute residual tolerance delta from
    ``noise_scale`` (the known or estimated per-entry disturbance amplitude)
    as delta ~ sqrt(m_s) * noise_scale, and use 0 without it.
    ``shrink_to_delta`` treats delta as the norm of a deterministic
    disturbance lying along the fitted component and scales the coefficients
    back by that amount after the greedy fit; on a noise-free fit this makes
    the residual constraint active, i.e. yields the minimum-l1 solution on
    the recovered support.  Leave it off for purely stochastic noise.
    """

    k_max: int = 1
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
    op: RowSampledIdftOperator,
    measurement: np.ndarray,
    k_max: int = 1,
    delta: float = 0.0,
    shrink_to_delta: bool = False,
) -> SparseCoefficients:
    """Orthogonal matching pursuit with least-squares refit, in Batch-OMP form.

    Each iteration selects the column with the largest normalized correlation
    against the residual (ties break toward the lowest index), refits all
    selected columns by least squares, and stops once the residual norm drops
    to ``delta`` or the support reaches ``k_max``.  A rank-deficient support
    system drops the newest atom, stops, and flags ``degenerate_support``.

    The correlations come from one adjoint, corr0 = A^H y, updated through the
    Gram columns of the support (corr = corr0 - sum_s c_s A^H a_s; Rubinstein,
    Zibulevsky & Elad, Technion CS-2008-08), and the refit solves the |S|x|S|
    normal equations G_SS c = corr0[S] by a progressively grown Cholesky
    factor, whose new pivot doubles as the rank test; its new row reads only
    the |S| support entries of the new atom's Gram column.  The residual
    y - sum_s c_s a_s is still formed explicitly for the stop rule, the
    ``shrink_to_delta`` factor and the reported norms.

    Real data stays real, so the adjoint runs a real transform; its
    correlations with columns k and m - k are then exact conjugates, and of
    such a tie the lower index is selected.
    """
    y = np.ravel(measurement)
    y = y.astype(np.result_type(y, float), copy=False)
    if y.size != op.n_measurements:
        raise ValueError(
            f"measurement length {y.size} does not match operator ({op.n_measurements})"
        )
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if delta < 0:
        raise ValueError("delta must be >= 0")

    norms = op.column_norms()
    unusable = np.flatnonzero(norms <= 0)
    norms = np.where(norms > 0, norms, 1.0)
    corr0 = op.adjoint(y)
    support: list[int] = []
    columns: list[np.ndarray] = []
    chol = np.zeros((min(k_max, 8),) * 2, dtype=np.complex128)
    coef = np.empty(0, dtype=np.complex128)
    fitted = np.zeros_like(y)
    residual = y
    history = [float(np.linalg.norm(residual))]
    degenerate = False

    while len(support) < k_max and history[-1] > delta:
        corr = corr0
        if support:
            # a Gram column is a cheap rotation of one cached transform, so
            # each is rebuilt per use and scaled in place rather than held
            # across iterations: fewer length-m arrays alive at once
            corr = corr0.copy()
            for c, s in zip(coef, support):
                update = op.gram_column(s)
                update *= c
                corr -= update
        scores = _scores(corr, norms, unusable, support)
        k = int(np.argmax(scores))
        # a normalized score errs by at most ~eps (||y|| + sum_s |c_s| ||a_s||)
        if support and scores[k] <= ROUNDOFF_SCALE * (
            history[0] + float(np.abs(coef) @ norms[support])
        ):
            # the update may have cancelled to roundoff; confirm on the residual
            scores = _scores(op.adjoint(residual), norms, unusable, support)
            k = int(np.argmax(scores))
        if scores[k] <= 0:
            break
        # grow the Cholesky factor of G_SS by G_{S,k}, the new atom's Gram
        # column read at the support
        n = len(support)
        if n == chol.shape[0]:
            chol = np.pad(chol, (0, n))
        gram_row = op.gram_column(k, support) if support else np.empty(0, dtype=np.complex128)
        w = _forward_substitute(chol[:n, :n], gram_row)
        diag = norms[k] ** 2
        pivot = diag - float(np.vdot(w, w).real)
        if pivot <= PIVOT_TOLERANCE * diag:
            degenerate = True
            break
        chol[n, :n] = w.conj()
        chol[n, n] = math.sqrt(pivot)
        support.append(k)
        columns.append(op.column(k))
        coef = _cholesky_solve(chol[: n + 1, : n + 1], corr0[support])
        fitted = coef[0] * columns[0]
        for c, column in zip(coef[1:], columns[1:]):
            fitted += c * column
        residual = y - fitted
        history.append(float(np.linalg.norm(residual)))

    if shrink_to_delta and delta > 0 and support:
        fitted_norm = float(np.linalg.norm(fitted))
        if fitted_norm > 0:
            factor = max(0.0, 1.0 - delta / fitted_norm)
            coef = coef * factor
            residual = y - factor * fitted

    full = np.zeros(op.n_coefficients, dtype=np.complex128)
    if support:
        full[np.asarray(support)] = coef
    return SparseCoefficients(
        coefficients=full,
        support=np.asarray(support, dtype=np.int64),
        residual_norm=float(np.linalg.norm(residual)),
        residual_history=history,
        degenerate_support=degenerate,
    )


def _scores(
    corr: np.ndarray, norms: np.ndarray, unusable: np.ndarray, support: list[int]
) -> np.ndarray:
    """Normalized correlation magnitudes; -1 marks zero columns and the support."""
    scores = np.abs(corr)
    scores /= norms
    scores[unusable] = -1.0
    scores[support] = -1.0
    return scores


def _forward_substitute(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve lower @ z = b for a small lower-triangular matrix."""
    z = np.empty(b.size, dtype=np.complex128)
    for i in range(b.size):
        z[i] = (b[i] - lower[i, :i] @ z[:i]) / lower[i, i]
    return z


def _cholesky_solve(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L^H) c = b given the small lower Cholesky factor L."""
    z = _forward_substitute(lower, b)
    c = np.empty(b.size, dtype=np.complex128)
    for i in range(b.size - 1, -1, -1):
        c[i] = (z[i] - lower[i + 1 :, i].conj() @ c[i + 1 :]) / lower[i, i]
    return c


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] . b[i] for every row of b (a 1-d ``a`` is shared by all rows).

    A stacked matmul keeps the bits of the 1-d ``a[i] @ b[i]`` (one BLAS dot
    per row), which a row sum of a * b does not.
    """
    return (a[..., None, :] @ b[:, :, None])[:, 0, 0]


class DcProjection(NamedTuple):
    """Row-wise one-atom fits on the DC column, one entry per row."""

    gain: np.ndarray
    residual_norm: np.ndarray
    degenerate: np.ndarray
    #: w_s.w_s and y_s.y_s, which the estimators' plug-ins reuse
    ww: np.ndarray
    yy: np.ndarray


def dc_project(
    weights: np.ndarray,
    measurement: np.ndarray,
    delta: float | np.ndarray = 0.0,
    shrink_to_delta: bool | np.ndarray = False,
) -> DcProjection:
    """Closed-form one-atom fits of each row of ``measurement`` on the DC column.

    Row i of ``weights`` and ``measurement`` holds the sampled entries w_s and
    y_s of one fit; a 1-d ``weights`` is shared by every row.  ``delta`` and
    ``shrink_to_delta`` are scalars or one entry per row.  The DC column of
    Phi diag(w) Psi is w_s / sqrt(m), so the least-squares gain
    g = w_s.y_s / w_s.w_s is the constant value of the transfer vector that
    :func:`omp_solve` returns whenever it selects the DC atom.  Its semantics
    are kept: no atom when ||y_s|| <= ``delta``, and the ``shrink_to_delta``
    factor max(0, 1 - delta / ||g w_s||).  A zero column (w_s.w_s = 0) is
    reported as a degenerate support with g = 0, whatever ``delta`` is.
    """
    y = np.asarray(measurement, dtype=float)
    w = np.asarray(weights, dtype=float)
    if y.ndim != 2 or w.shape not in (y.shape, y.shape[1:]):
        raise ValueError("measurement must be 2-d rows, weights one row each or one shared row")
    delta = np.asarray(delta, dtype=float)
    if (delta < 0).any():
        raise ValueError("delta must be >= 0")
    ww = _row_dots(w, w) if w.ndim == 2 else np.full(y.shape[0], w @ w)
    yy = _row_dots(y, y)
    degenerate = ww == 0
    fit = np.sqrt(yy) > delta
    fit &= ~degenerate
    gain = np.divide(_row_dots(w, y), ww, out=np.zeros(y.shape[0]), where=fit)
    shrink = np.asarray(shrink_to_delta, dtype=bool)
    if shrink.any():
        fitted_norm = np.abs(gain) * np.sqrt(ww)
        shrink = shrink & fit & (delta > 0) & (fitted_norm > 0)
        ratio = np.divide(delta, fitted_norm, out=np.zeros(y.shape[0]), where=shrink)
        gain *= np.where(shrink, np.maximum(0.0, 1.0 - ratio), 1.0)
    residual = y - gain[:, None] * w
    return DcProjection(gain, np.sqrt(_row_dots(residual, residual)), degenerate, ww, yy)


def mutual_incoherence(op: RowSampledIdftOperator, normalize: bool = False) -> float:
    """Largest off-diagonal column inner product of the sensing matrix.

    With ``normalize`` the columns are l2-normalized first (the textbook,
    scale-free definition).  Without it, inner products are reported in the
    plain inverse-DFT convention (basis entries 1/m rather than the unitary
    1/sqrt(m)); in that convention the value grows with the number of sampled
    rows, which is the regime the magnitude diagnostics in this package are
    calibrated against.

    All column pairs are evaluated exactly in O(m log m) via the operator's
    offset-circulant Gram.
    """
    m = op.n_coefficients
    if m < 2:
        raise ValueError("mutual incoherence needs at least two columns")
    # |g[d]| = |g[m - d]|, so offsets 1..m//2 cover every column pair
    gram = op.half_gram_by_offset()
    peak = float(np.max(np.abs(gram[1:])))
    if normalize:
        diag = float(gram[0].real)
        if diag <= 0:
            raise ValueError("operator has zero column norms")
        return peak / diag
    return peak / m
