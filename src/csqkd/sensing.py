"""Compressive sensing: sampling plans, the row-sampled IDFT operator, OMP, coherence.

A sampling plan is a sorted uniform subset of a block's rows.  The plans of
a sweep cell are drawn as the rows of one (n, m_s) index array
(:func:`_cell_plans`), one draw per row in sub-channel order and one sort
for all, in the narrowest integer type of the block's indices;
:func:`make_sampling_plan` is its one-row case.  Keeping every row
draws nothing.

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

Real transforms of length m run several rows per call where several are
due, and each row keeps the bits of its one-row transform: in a sweep at
m = 10^4, a two-row ``np.fft.rfft`` costs about 60 % of two one-row calls.
The first real adjoint of an operator shares its call with the operator's
Gram.  The coherence of k operators of one block length under q weight
models (:func:`_gram_peaks`) is one q*k-row transform of their scattered
squared weights, and :func:`mutual_incoherence` of one operator reads its
cached Gram instead of transforming again, or the half spectrum of one
transform without completing it.

A one-atom fit on the DC column is a scalar least-squares projection, so
:func:`dc_project` computes it in closed form without an operator, for a
stack of fits at once; it is the fit of both estimators.  OMP solves
multi-atom problems on the operator directly.  :func:`omp_solve` is
Batch-OMP: one adjoint A^H y, correlations updated through Gram columns
A^H a_k (circular shifts of one transform), and small normal-equation
refits, so a solve runs two transforms, in one two-row call, and no dense
least squares.  Beside the transforms, a solve's cost is its length-m
passes: correlation updates, scores, columns and refits.  It reads the one
column norm as a scalar, updates its correlations in place, extends its
forward solve by one step per atom, and scores a real measurement's first
atom on offsets 0..m//2 only, where the Hermitian adjoint puts the
lowest-index maximum; so is the second atom after a DC first atom with a
real coefficient, which keeps the correlations Hermitian.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel import _require_seed

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


def _gram_peaks(k: int, m: int, index: np.ndarray, squares, work: np.ndarray) -> np.ndarray:
    """The largest |g[d]|, d = 1..m//2, of the Gram g of each of ``k``
    row-sampled operators of block length m under each weight model, as a
    (models, k) array.

    ``squares`` holds one entry per model, an array or one value for all.
    Model p's squared weights fill a (k, m) array: row i holds the entry at
    the flat ``index`` i*m + its sampled rows, and 0 elsewhere.  The models'
    arrays are scattered into consecutive rows of ``work[0]`` and transformed
    by one real transform of models*k rows into ``work[1]`` viewed as
    complex, and each row keeps the bits of its one-row transform; ``work``,
    two float rows of at least models*k*(m + 2) entries, is overwritten.
    |g[d]| = |g[m - d]|, and the magnitude of conj(s)/m is that of s scaled
    by 1/m, so offsets 1..m//2 of the half spectrum cover every column pair
    with no conjugation pass.
    """
    q, h = len(squares), m // 2 + 1
    scattered = work[0, : q * k * m]
    scattered.fill(0.0)
    # a row view per model scatters at the one index of the k rows
    for model, values in zip(scattered.reshape(q, k * m), squares):
        model[index] = values
    half = work[1, : 2 * q * k * h].view(np.complex128).reshape(q * k, h)
    np.fft.rfft(scattered.reshape(q * k, m), out=half)
    parts = half.view(np.float64)
    parts *= 1 / m
    # the scattered squares are spent: their rows take the magnitudes
    magnitudes = work[0, : q * k * (h - 1)].reshape(q * k, h - 1)
    np.abs(half[:, 1:], out=magnitudes)
    return magnitudes.max(axis=1).reshape(q, k)


def _gram_from_transform(transform: np.ndarray, m: int) -> np.ndarray:
    """Gram entries g[d] = conj(rfft(w^2)[d]) / m, in place.

    numpy divides a complex entry by m as (re + im*0) * (1/m) and
    (im - re*0) * (1/m); scaling the float view by 1/m keeps those bits,
    apart from the sign of a zero, several times faster.
    """
    np.conj(transform, out=transform)
    parts = transform.view(np.float64)
    parts *= 1 / m
    return transform


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


def _sample_count(m: int, fraction: float) -> int:
    """The rows a plan of ``fraction`` keeps of m: max(1, round(fraction * m)), at most m."""
    return min(m, max(1, int(math.floor(fraction * m + 0.5))))


def _cell_plans(m: int, fraction: float, rng: int | np.random.Generator, count: int) -> np.ndarray:
    """The plans of ``count`` sub-channels as the rows of one sorted
    (count, m_s) int64 array, m_s = max(1, round(fraction * m)).

    Row i is drawn from ``rng`` (an int seeds a fresh generator) by one
    ``choice`` without replacement, in row order, and the rows are sorted in
    one pass, in the narrowest unsigned type that holds m - 1, then widened;
    the draw skips the generator's final shuffle, which a sorted row does not
    see.  When m_s = m every row keeps every index: the result is a
    read-only broadcast of 0..m-1 and nothing is drawn.
    """
    m_s = _sample_count(m, fraction)
    if m_s == m:
        return np.broadcast_to(np.arange(m, dtype=np.int64), (count, m))
    rng = np.random.default_rng(rng)
    # a uint16 sort (m <= 65 536) takes about 40 % of the time of an int64 one
    rows = np.empty((count, m_s), dtype=np.min_scalar_type(m - 1))
    for row in rows:
        row[:] = rng.choice(m, size=m_s, replace=False, shuffle=False)
    rows.sort(axis=1)
    return rows.astype(np.int64)


def make_sampling_plan(
    m: int, fraction: float, seed: int | np.random.Generator
) -> SamplingPlan:
    """Choose max(1, round(fraction * m)) distinct indices from 0..m-1.

    fraction = 1 keeps every index (identity selection) and draws nothing.
    ``seed`` is an integer >= 0 (a bool is not), which seeds a fresh
    generator, or a ``Generator``, which the draw advances: successive calls
    on one generator give independent uniform subsets.  The plan is the one
    row of :func:`_cell_plans`, which draws a sweep cell's plans in
    sub-channel order from one generator, so ``count`` successive calls give
    its rows.
    Deterministic for a fixed seed or generator state.
    """
    if not isinstance(m, numbers.Integral) or isinstance(m, bool) or m < 1:
        raise ValueError(f"m must be an integer >= 1, got {m!r}")
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if not isinstance(seed, np.random.Generator):
        _require_seed(seed)
    return SamplingPlan(length=int(m), indices=_cell_plans(int(m), fraction, seed, 1)[0])


class RowSampledIdftOperator:
    """Row-sampled, diagonally weighted unitary IDFT: theta = Phi diag(w) Psi.

    Used with w = Alice's symbols (variable-based model) or w = V_A * ones
    (statistics-based model).  Every column has the same norm
    ||w[rows]|| / sqrt(m) because the basis entries are unimodular.
    """

    def __init__(self, weights: np.ndarray, rows: np.ndarray):
        weights = np.asarray(weights, dtype=float)
        rows = np.asarray(rows)
        if weights.ndim != 1:
            raise ValueError("weights must be a 1-d array")
        if rows.ndim != 1 or rows.size == 0:
            raise ValueError("rows must be a non-empty 1-d index array")
        # the int64 cast would truncate float rows and read a mask as 0s and 1s
        if rows.dtype.kind not in "iu":
            raise ValueError(f"row indices must be integers, got dtype {rows.dtype}")
        rows = rows.astype(np.int64, copy=False)
        # plans are sorted, so a strictly increasing test settles uniqueness
        # in O(n) and puts the range at the ends; only unsorted rows pay more
        increasing = bool((rows[1:] > rows[:-1]).all())
        low, high = (rows[0], rows[-1]) if increasing else (rows.min(), rows.max())
        if low < 0 or high >= weights.size:
            raise ValueError("row indices out of range")
        if not increasing and np.unique(rows).size != rows.size:
            raise ValueError("row indices must be unique")
        self.weights = weights
        self.rows = rows
        self.n_coefficients = weights.size
        self.n_measurements = rows.size
        #: w[rows], gathered once
        self.sampled_weights = weights[rows]
        self._gram: np.ndarray | None = None
        self._column_scale: np.ndarray | None = None

    def apply(self, coefficients: np.ndarray) -> np.ndarray:
        h = unitary_idft(np.asarray(coefficients, dtype=np.complex128))
        return self.sampled_weights * h[self.rows]

    def adjoint(self, measurement: np.ndarray) -> np.ndarray:
        """A^H r; a real r takes a real transform and Hermitian completion.

        While the Gram is not cached, a real r shares one two-row real
        transform with the scattered squared weights: row 0 scaled by
        1/sqrt(m) is the ``norm="ortho"`` adjoint and row 1 gives
        :meth:`gram_by_offset`, both bit for bit, and the Gram is cached for
        :meth:`gram_column` and :meth:`subtract_gram_column`.
        """
        measurement = np.asarray(measurement)
        m = self.n_coefficients
        real = not np.iscomplexobj(measurement)
        paired = real and self._gram is None
        scattered = np.zeros((1 + paired, m), dtype=np.result_type(measurement, float))
        # a row view scatters in about half the time of a 2-d index
        scattered[0][self.rows] = self.sampled_weights * measurement
        if not real:
            return unitary_dft(scattered[0])
        if not paired:
            return _hermitian_completion(np.fft.rfft(scattered[0], norm="ortho"), m)
        scattered[1][self.rows] = self.sampled_weights**2
        transform = np.fft.rfft(scattered)
        self._gram = _hermitian_completion(_gram_from_transform(transform[1], m), m)
        adjoint = transform[0]
        adjoint *= 1 / math.sqrt(m)
        return _hermitian_completion(adjoint, m)

    def column(self, k: int) -> np.ndarray:
        m = self.n_coefficients
        if self._column_scale is None:
            self._column_scale = self.sampled_weights / math.sqrt(m)
        if k % m == 0:
            # the DC column gathers only the root 1, which scales exactly
            return self._column_scale.astype(np.complex128)
        # reducing r*k mod m in integers indexes the phase j*2*pi/m in [0, 2*pi)
        phase = self.rows * (k % m)
        phase %= m
        col = _unit_roots(m).take(phase)
        col *= self._column_scale
        return col

    def column_norms(self) -> np.float64:
        """The one norm ||w[rows]|| / sqrt(m) that every column has."""
        w = self.sampled_weights
        return np.sqrt(w.dot(w)) / math.sqrt(self.n_coefficients)

    def gram_by_offset(self) -> np.ndarray:
        """Column Gram as a function of index offset d = (j - k) mod m.

        <theta_k, theta_j> depends only on d, which makes the full m^2-pair
        coherence an O(m log m) FFT of the scattered squared weights.  The
        weights are real, so g[m - d] = conj(g[d]) and a real transform of
        half the work gives all of g.
        """
        return _hermitian_completion(self._half_gram(), self.n_coefficients)

    def _half_gram(self) -> np.ndarray:
        """g[d] for d = 0..m//2, the half of :meth:`gram_by_offset` that one
        real transform gives."""
        m = self.n_coefficients
        w2 = np.zeros(m)
        w2[self.rows] = self.sampled_weights**2
        return _gram_from_transform(np.fft.rfft(w2), m)

    def gram_column(self, k: int, entries: np.ndarray) -> np.ndarray:
        """Entries j of A^H a_k without a transform: g[(k - j) mod m].

        g is :meth:`gram_by_offset`, computed once per operator.
        """
        if self._gram is None:
            self._gram = self.gram_by_offset()
        return self._gram[(k - np.asarray(entries)) % self.n_coefficients]

    def subtract_gram_column(self, out: np.ndarray, k: int, c: complex) -> None:
        """out -= c (A^H a_k)[: len(out)] in place, without building the column.

        Entries j = 0..k read g[k], ..., g[0] and j = k+1..m-1 read
        g[m-1], ..., g[k+1]: two reversed slices of the cached Gram.  A
        shorter ``out`` updates its entries j = 0..len(out)-1 only.
        """
        if self._gram is None:
            self._gram = self.gram_by_offset()
        k %= self.n_coefficients
        size = len(out)
        out[: k + 1] -= self._gram[k::-1][:size] * c
        out[k + 1 :] -= self._gram[:k:-1][: max(size - k - 1, 0)] * c

    def dense(self) -> np.ndarray:
        """The explicit m_s x m matrix, for small-m checks."""
        return np.stack([self.column(k) for k in range(self.n_coefficients)], axis=1)


@dataclass(frozen=True)
class OmpConfig:
    """Solver knobs shared by the estimators.

    ``k_max = 1``, the budget of a constant sub-channel, is the closed-form
    DC projection of :func:`dc_project`, and the only budget the
    estimators accept: a stable sub-channel's transfer vector and its
    variance vector are each one DC atom.  :func:`omp_solve` takes its own
    ``k_max``.
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

    def __post_init__(self) -> None:
        if not isinstance(self.k_max, numbers.Integral) or isinstance(self.k_max, bool) or self.k_max < 1:
            raise ValueError(f"k_max must be an integer >= 1, got {self.k_max!r}")
        if self.noise_scale is not None and not 0 <= self.noise_scale < math.inf:
            raise ValueError(f"noise_scale must be finite and >= 0, got {self.noise_scale}")


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
    the |S| support entries of the new atom's Gram column and takes the
    forward solve L z = corr0[S] one step further.  The updates run in place
    (``op.subtract_gram_column``).  ``op.column_norms()`` gives one scalar
    or one norm per column; a zero column is never selected.  The residual
    y - sum_s c_s a_s is still formed explicitly for the stop rule, the
    ``shrink_to_delta`` factor and the reported norms.  A non-finite
    measurement, or one whose sum of squares overflows, is rejected.

    Real data stays real, so the adjoint runs a real transform; its
    correlations with columns k and m - k are then exact conjugates, and of
    such a tie the lower index is selected, so the first atom is chosen from
    offsets 0..m//2 alone.  A DC first atom with a real coefficient c
    subtracts c g[-j] from them, with the Gram g Hermitian, so the
    correlations stay exact conjugates and the second atom's update, scores
    and choice run on offsets 0..m//2 too; a roundoff confirmation scores
    all m.  The two transforms of a solve,
    the adjoint and the Gram, run as one two-row real transform (see
    :meth:`RowSampledIdftOperator.adjoint`); a roundoff confirmation adds a
    one-row adjoint.
    """
    y = np.ravel(measurement)
    y = y.astype(np.result_type(y, float), copy=False)
    if y.size != op.n_measurements:
        raise ValueError(
            f"measurement length {y.size} does not match operator ({op.n_measurements})"
        )
    if not isinstance(k_max, numbers.Integral) or isinstance(k_max, bool) or k_max < 1:
        raise ValueError(f"k_max must be an integer >= 1, got {k_max!r}")
    if not 0 <= delta < math.inf:
        raise ValueError("delta must be finite and >= 0")
    # squares past the float range give an infinite norm, not a warning
    with np.errstate(over="ignore"):
        history = [_norm(y)]
    if not math.isfinite(history[0]):
        raise ValueError("measurement must be finite, with a finite sum of squares")

    m = op.n_coefficients
    norm = op.column_norms()  # one scalar when every column has the same norm
    per_column = np.ndim(norm) > 0
    # a zero column correlates 0 with every residual: an infinite divisor
    # scores it 0, and a best score of 0 ends the solve
    if per_column:
        divisor = np.where(norm > 0, norm, np.inf)
    else:
        divisor = float(norm) if norm > 0 else math.inf
    corr0 = op.adjoint(y)
    # a real measurement has a Hermitian adjoint, |corr0[k]| == |corr0[m-k]|
    # bit for bit, so the first atom's lowest-index maximum lies at k <= m//2
    hermitian = y.dtype.kind == "f" and isinstance(op, RowSampledIdftOperator)
    half = m // 2 + 1 if hermitian else m
    corr = np.empty_like(corr0)
    scores = np.empty(m)
    support: list[int] = []
    columns: list[np.ndarray] = []
    chol = np.zeros((min(k_max, 8),) * 2, dtype=np.complex128)
    # forward-substituted corr0[S]: the refit's triangular solve L z = corr0[S]
    z = np.zeros(chol.shape[0], dtype=np.complex128)
    degenerate = False

    while len(support) < k_max and history[-1] > delta:
        n = len(support)
        # a real DC first atom subtracts c g[-j] with g Hermitian and c real,
        # which keeps the mirror symmetry bit for bit, so the second atom is
        # chosen from offsets 0..m//2 as well
        span = half if n == 0 or (n == 1 and support[0] == 0 and coef[0].imag == 0) else m
        if n:
            np.copyto(corr[:span], corr0[:span])
            for c, s in zip(coef, support):
                op.subtract_gram_column(corr[:span], s, c)
        _scores((corr if n else corr0)[:span], divisor, support, scores[:span])
        k = int(scores[:span].argmax())
        if n:
            # a normalized score errs by at most ~eps (||y|| + sum_s |c_s| ||a_s||)
            support_norms = norm[support] if per_column else np.full(n, norm)
            if scores[k] <= ROUNDOFF_SCALE * (history[0] + float(np.abs(coef) @ support_norms)):
                # the update may have cancelled to roundoff; confirm on the residual
                _scores(op.adjoint(residual), divisor, support, scores)
                k = int(scores.argmax())
        if scores[k] <= 0:
            break
        diag = (norm[k] if per_column else norm) ** 2
        if n == chol.shape[0]:
            chol = np.pad(chol, (0, n))
            z = np.pad(z, (0, n))
        pivot = diag
        if n:
            # grow the Cholesky factor of G_SS by G_{S,k}, the new atom's Gram
            # column read at the support (a degenerate pivot leaves row n unread)
            w = _forward_substitute(chol[:n, :n], op.gram_column(k, support))
            pivot = diag - float(np.vdot(w, w).real)
            np.conj(w, out=chol[n, :n])
        if pivot <= PIVOT_TOLERANCE * diag:
            degenerate = True
            break
        chol[n, n] = math.sqrt(pivot)
        # the new row of L takes z one forward-substitution step further; the
        # first atom's dot is empty, and corr0[k] - 0j is corr0[k] bit for bit
        z[n] = (corr0[k] - chol[n, :n] @ z[:n] if n else corr0[k]) / chol[n, n]
        coef = _back_substitute(chol[: n + 1, : n + 1], z[: n + 1])
        support.append(k)
        columns.append(op.column(k))
        fitted = coef[0] * columns[0]
        for c, column in zip(coef[1:], columns[1:]):
            fitted += c * column
        residual = y - fitted
        history.append(_norm(residual))

    residual_norm = history[-1]
    if shrink_to_delta and delta > 0 and support:
        fitted_norm = _norm(fitted)
        if fitted_norm > 0:
            factor = max(0.0, 1.0 - delta / fitted_norm)
            coef = coef * factor
            residual_norm = _norm(y - factor * fitted)

    full = np.zeros(op.n_coefficients, dtype=np.complex128)
    if support:
        full[np.asarray(support)] = coef
    return SparseCoefficients(
        coefficients=full,
        support=np.asarray(support, dtype=np.int64),
        residual_norm=residual_norm,
        residual_history=history,
        degenerate_support=degenerate,
    )


def _norm(v: np.ndarray) -> float:
    """||v||, with the arithmetic of ``np.linalg.norm`` for a 1-d array."""
    if v.dtype.kind == "c":
        return math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))
    return math.sqrt(v.dot(v))


def _scores(corr: np.ndarray, divisor, support: list[int], out: np.ndarray) -> None:
    """Normalized correlation magnitudes into ``out``; -1 marks the support."""
    np.abs(corr, out=out)
    out /= divisor
    if support:
        out[support] = -1.0


def _forward_substitute(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve lower @ z = b for a small lower-triangular matrix."""
    z = np.empty(b.size, dtype=np.complex128)
    # the first row's dot is empty: b[0] - 0j is b[0]
    z[0] = b[0] / lower[0, 0]
    for i in range(1, b.size):
        z[i] = (b[i] - lower[i, :i] @ z[:i]) / lower[i, i]
    return z


def _back_substitute(lower: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Solve L^H c = z given the small lower Cholesky factor L."""
    c = np.empty(z.size, dtype=np.complex128)
    # the last row's dot is empty: z[-1] - 0j is z[-1]
    c[-1] = z[-1] / lower[-1, -1]
    for i in range(z.size - 2, -1, -1):
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
    y = np.array(measurement, dtype=float)
    w = np.asarray(weights, dtype=float)
    if y.ndim != 2 or w.shape not in (y.shape, y.shape[1:]):
        raise ValueError("measurement must be 2-d rows, weights one row each or one shared row")
    delta = np.asarray(delta, dtype=float)
    if delta.size and not 0 <= delta.min() <= delta.max() < math.inf:
        raise ValueError("delta must be finite and >= 0")
    # y is a copy, so the residual may be formed in it
    return _dc_project(w, y, delta, shrink_to_delta, np.empty_like(y))


def _dc_project(
    w: np.ndarray,
    y: np.ndarray,
    delta: np.ndarray,
    shrink_to_delta: bool | np.ndarray,
    scratch: np.ndarray,
) -> DcProjection:
    """:func:`dc_project` of validated float rows, without a temporary of
    their size: the residual y - g w is formed in place in ``y``, with g w in
    ``scratch``, an array of y's shape that may be ``w`` itself.  Both are
    overwritten; every sum over ``w`` and ``y`` is taken first.
    """
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
    np.multiply(gain[:, None], w, out=scratch)
    y -= scratch
    return DcProjection(gain, np.sqrt(_row_dots(y, y)), degenerate, ww, yy)


def mutual_incoherence(op: RowSampledIdftOperator, normalize: bool = False) -> float:
    """Largest off-diagonal column inner product of the sensing matrix ``op``.

    With ``normalize`` the columns are l2-normalized first (the textbook,
    scale-free definition).  Without it, inner products are reported in the
    plain inverse-DFT convention (basis entries 1/m rather than the unitary
    1/sqrt(m)); in that convention the value grows with the number of sampled
    rows, which is the regime the magnitude diagnostics in this package are
    calibrated against.

    All column pairs are evaluated exactly in O(m log m) via the operator's
    offset-circulant Gram; |g[d]| = |g[m - d]|, so offsets 1..m//2 cover
    every column pair, and the half spectrum of one real transform holds
    them without a Hermitian completion.  An operator whose Gram is cached
    (after a real :meth:`~RowSampledIdftOperator.adjoint`, as in an OMP
    solve) takes no transform, and its value keeps the bits of a fresh
    transform, which is not cached.
    """
    m = op.n_coefficients
    if m < 2:
        raise ValueError("mutual incoherence needs at least two columns")
    gram = op._half_gram() if op._gram is None else op._gram
    peak = np.abs(gram[1 : m // 2 + 1]).max()
    scale = gram[0].real if normalize else m
    if normalize and scale <= 0:
        raise ValueError("operator has zero column norms")
    return float(peak / scale)
