"""Independent reference implementations used as test oracles.

Everything here is deliberately brute-force and shares no code path with the
package: direct O(m^2) transforms and the dense IDFT basis, an
explicit-matrix operator and the dense-Gram coherence, exhaustive subset
fits, plain OMP (a fresh adjoint and an lstsq refit per atom, sharing only
the operators with the package's Batch-OMP solver), the one-atom estimates
in scalar arithmetic (one dot product per call), and a numeric
Gaussian-state pipeline (build the full covariance matrix, apply symplectic
beamsplitters and measurement updates, read eigenvalues of |i Omega gamma|),
and the per-value CSV field formatter that the report writer's row templates
replaced.

The exception pins the package's code to an earlier form of itself, bit for
bit: :func:`batch_omp_frozen` is Batch-OMP as written before it kept its
work in place, driven by the package's operators.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from csqkd import sensing
from csqkd.channel import ProtocolParams
from csqkd.security import ChannelSummary
from csqkd.sensing import SparseCoefficients


# ---------------------------------------------------------------------------
# discrete Fourier transforms by direct summation
# ---------------------------------------------------------------------------

def dft_direct(v: np.ndarray) -> np.ndarray:
    """Unitary analysis DFT as an explicit double sum."""
    v = np.asarray(v, dtype=np.complex128)
    m = v.size
    out = np.zeros(m, dtype=np.complex128)
    for k in range(m):
        acc = 0.0 + 0.0j
        for j in range(m):
            acc += v[j] * np.exp(-2j * np.pi * j * k / m)
        out[k] = acc / math.sqrt(m)
    return out


def idft_direct(s: np.ndarray) -> np.ndarray:
    """Unitary synthesis DFT as an explicit double sum."""
    s = np.asarray(s, dtype=np.complex128)
    m = s.size
    out = np.zeros(m, dtype=np.complex128)
    for j in range(m):
        acc = 0.0 + 0.0j
        for k in range(m):
            acc += s[k] * np.exp(2j * np.pi * j * k / m)
        out[j] = acc / math.sqrt(m)
    return out


def idft_basis(m: int) -> np.ndarray:
    """Dense unitary inverse-DFT basis, column k = exp(+2i*pi*j*k/m)/sqrt(m)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    j = np.arange(m)
    return np.exp(2j * np.pi * np.outer(j, j) / m) / math.sqrt(m)


# ---------------------------------------------------------------------------
# explicit-matrix operator and coherence
# ---------------------------------------------------------------------------

class DenseOperator:
    """Explicit-matrix test double with the sensing-operator interface.

    :func:`csqkd.sensing.omp_solve` reads only ``n_coefficients``,
    ``n_measurements``, ``adjoint``, ``column``, ``column_norms``,
    ``gram_column`` and ``subtract_gram_column``, so a generic matrix can
    drive it.
    """

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

    def gram_column(self, k: int, entries: np.ndarray) -> np.ndarray:
        """Entries ``entries`` of column k of the Gram matrix, A^H a_k."""
        return self.adjoint(self.column(k))[entries]

    def subtract_gram_column(self, out: np.ndarray, k: int, c: complex) -> None:
        """out -= c A^H a_k in place."""
        out -= self.adjoint(self.column(k)) * c

    def dense(self) -> np.ndarray:
        return self.matrix


def mutual_incoherence_dense(matrix: np.ndarray, normalize: bool = False) -> float:
    """Largest off-diagonal entry of the explicit Gram matrix.

    Same conventions as :func:`csqkd.sensing.mutual_incoherence`: raw inner
    products divided by m, or the cosine of the most coherent column pair.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    gram = matrix.conj().T @ matrix
    off = np.abs(gram - np.diag(np.diag(gram)))
    if normalize:
        norms = np.sqrt(np.abs(np.diag(gram)))
        return float((off / np.outer(norms, norms)).max())
    return float(off.max()) / matrix.shape[1]


# ---------------------------------------------------------------------------
# exhaustive sparse fits
# ---------------------------------------------------------------------------

def best_subset_fit(matrix: np.ndarray, y: np.ndarray, k: int):
    """Exhaustive best k-column least-squares fit.

    Returns (support tuple, coefficients, residual norm) of the subset with
    the smallest residual; ties resolve to the lexicographically smallest
    support.
    """
    m = matrix.shape[1]
    best: tuple[tuple[int, ...], np.ndarray, float] | None = None
    for support in itertools.combinations(range(m), k):
        cols = matrix[:, support]
        coef, _, rank, _ = np.linalg.lstsq(cols, y, rcond=None)
        if rank < len(support):
            continue
        res = float(np.linalg.norm(y - cols @ coef))
        if best is None or res < best[2] - 1e-15:
            best = (support, coef, res)
    assert best is not None
    return best


def omp_reference(
    op,
    measurement: np.ndarray,
    k_max: int = 1,
    delta: float = 0.0,
    shrink_to_delta: bool = False,
) -> SparseCoefficients:
    """Plain OMP: a fresh adjoint of the residual and an lstsq refit per atom.

    The package's Batch-OMP :func:`csqkd.sensing.omp_solve` must reproduce it.

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


def batch_omp_frozen(
    op,
    measurement: np.ndarray,
    k_max: int = 1,
    delta: float = 0.0,
    shrink_to_delta: bool = False,
) -> SparseCoefficients:
    """Batch-OMP as :func:`csqkd.sensing.omp_solve` was written with a
    length-m norm array, a full Gram column per correlation update and a
    fresh triangular solve per refit; the solver must match it bit for bit.
    A scalar ``column_norms`` is spread to every column."""
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

    norms = np.broadcast_to(op.column_norms(), op.n_coefficients)
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
            corr = corr0.copy()
            for c, s in zip(coef, support):
                update = op.gram_column(s, np.arange(op.n_coefficients))
                update *= c
                corr -= update
        scores = _frozen_scores(corr, norms, unusable, support)
        k = int(np.argmax(scores))
        if support and scores[k] <= sensing.ROUNDOFF_SCALE * (
            history[0] + float(np.abs(coef) @ norms[support])
        ):
            scores = _frozen_scores(op.adjoint(residual), norms, unusable, support)
            k = int(np.argmax(scores))
        if scores[k] <= 0:
            break
        n = len(support)
        if n == chol.shape[0]:
            chol = np.pad(chol, (0, n))
        gram_row = op.gram_column(k, support) if support else np.empty(0, dtype=np.complex128)
        w = _frozen_forward_substitute(chol[:n, :n], gram_row)
        diag = norms[k] ** 2
        pivot = diag - float(np.vdot(w, w).real)
        if pivot <= sensing.PIVOT_TOLERANCE * diag:
            degenerate = True
            break
        chol[n, :n] = w.conj()
        chol[n, n] = math.sqrt(pivot)
        support.append(k)
        columns.append(op.column(k))
        coef = _frozen_cholesky_solve(chol[: n + 1, : n + 1], corr0[support])
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


def _frozen_scores(corr, norms, unusable, support):
    scores = np.abs(corr)
    scores /= norms
    scores[unusable] = -1.0
    scores[support] = -1.0
    return scores


def _frozen_forward_substitute(lower, b):
    z = np.empty(b.size, dtype=np.complex128)
    for i in range(b.size):
        z[i] = (b[i] - lower[i, :i] @ z[:i]) / lower[i, i]
    return z


def _frozen_cholesky_solve(lower, b):
    z = _frozen_forward_substitute(lower, b)
    c = np.empty(b.size, dtype=np.complex128)
    for i in range(b.size - 1, -1, -1):
        c[i] = (z[i] - lower[i + 1 :, i].conj() @ c[i + 1 :]) / lower[i, i]
    return c


def csv_field(value) -> str:
    """One CSV field as the report writer formatted it value by value."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        return format(value, ".12g")
    return str(value)


def scalar_dc_estimate(weights_s, y_s, delta=0.0, shrink=False):
    """One-atom DC fit and the gain in plain scalar arithmetic, one BLAS dot
    at a time: (gain, residual norm); gain 0 when no atom fits."""
    y_norm = float(np.linalg.norm(y_s))
    ww = float(weights_s @ weights_s)
    gain = 0.0
    if y_norm > delta and ww != 0:
        gain = float(weights_s @ y_s) / ww
        if shrink and delta > 0 and abs(gain) * math.sqrt(ww) > 0:
            gain *= max(0.0, 1.0 - delta / (abs(gain) * math.sqrt(ww)))
    return gain, float(np.linalg.norm(y_s - gain * weights_s))


def scalar_variables_estimate(x_s, y_s, eta, floor, delta=0.0, shrink=False):
    """(T_hat, eps_hat, residual) of the one-atom variables fit; T_hat is
    None when the gain is <= 0."""
    gain, residual = scalar_dc_estimate(x_s, y_s, delta, shrink)
    if gain <= 0:
        return None, None, residual
    m_s = y_s.size
    t_hat = gain**2 / eta
    eps_hat = (float(y_s @ y_s) - eta * t_hat * float(x_s @ x_s) - m_s * floor) / (m_s * eta * t_hat)
    return t_hat, eps_hat, residual


def scalar_statistics_estimate(r_s, v_a, eta, delta=0.0, shrink=False):
    """(T_hat, eps_hat, residual) of the one-atom statistics fit of sampled
    floor-removed variances r_s; T_hat is None when the gain is <= 0."""
    m_s = r_s.size
    gain, residual = scalar_dc_estimate(np.full(m_s, v_a), r_s, delta, shrink)
    t_hat = gain / eta
    if t_hat <= 0:
        return None, None, residual
    eps_hat = (float(r_s.sum()) - eta * t_hat * m_s * v_a) / (m_s * eta * t_hat)
    return t_hat, eps_hat, residual


def ls_transmittance(x_s: np.ndarray, y_s: np.ndarray, eta: float) -> float:
    """Closed-form least-squares baseline: sqrt(eta T) = sum(x y) / sum(x^2)."""
    gain = float(x_s @ y_s) / float(x_s @ x_s)
    return gain**2 / eta


# ---------------------------------------------------------------------------
# numeric Gaussian-state pipeline
# ---------------------------------------------------------------------------

def omega(n_modes: int) -> np.ndarray:
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for i in range(n_modes):
        out[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = block
    return out


def symplectic_eigenvalues(gamma: np.ndarray) -> np.ndarray:
    """All symplectic eigenvalues of a covariance matrix, descending."""
    n = gamma.shape[0] // 2
    ev = np.linalg.eigvals(1j * omega(n) @ gamma)
    mags = np.sort(np.abs(ev))
    return mags[::2][::-1].copy()


def epr_cov(variance: float) -> np.ndarray:
    c = math.sqrt(variance**2 - 1.0)
    sz = np.diag([1.0, -1.0])
    top = np.hstack([variance * np.eye(2), c * sz])
    bottom = np.hstack([c * sz, variance * np.eye(2)])
    return np.vstack([top, bottom])


def fading_cov(summary: ChannelSummary, params: ProtocolParams) -> np.ndarray:
    """Two-mode Alice-Bob covariance matrix of the fading channel."""
    v = params.epr_variance
    c = summary.sqrt_t_mean * math.sqrt(v**2 - 1.0)
    b = summary.t_mean * (v - 1.0 + summary.eps_mean) + 1.0
    sz = np.diag([1.0, -1.0])
    top = np.hstack([v * np.eye(2), c * sz])
    bottom = np.hstack([c * sz, b * np.eye(2)])
    return np.vstack([top, bottom])


def beamsplitter(gamma: np.ndarray, mode_a: int, mode_b: int, transmission: float) -> np.ndarray:
    """Mix two modes: out_a = sqrt(t) a + sqrt(1-t) b (orthogonal completion)."""
    n = gamma.shape[0] // 2
    s = np.eye(2 * n)
    t = math.sqrt(transmission)
    r = math.sqrt(1.0 - transmission)
    ia, ib = 2 * mode_a, 2 * mode_b
    for off in range(2):
        s[ia + off, ia + off] = t
        s[ia + off, ib + off] = r
        s[ib + off, ia + off] = -r
        s[ib + off, ib + off] = t
    return s @ gamma @ s.T


def _partition(gamma: np.ndarray, measured_mode: int):
    n = gamma.shape[0] // 2
    keep = [i for i in range(2 * n) if i // 2 != measured_mode]
    drop = [2 * measured_mode, 2 * measured_mode + 1]
    g_rr = gamma[np.ix_(keep, keep)]
    g_rb = gamma[np.ix_(keep, drop)]
    g_bb = gamma[np.ix_(drop, drop)]
    return g_rr, g_rb, g_bb


def condition_homodyne(gamma: np.ndarray, measured_mode: int) -> np.ndarray:
    """Conditional covariance after an x-quadrature homodyne on one mode."""
    g_rr, g_rb, g_bb = _partition(gamma, measured_mode)
    pinv = np.zeros((2, 2))
    pinv[0, 0] = 1.0 / g_bb[0, 0]
    return g_rr - g_rb @ pinv @ g_rb.T


def condition_heterodyne(gamma: np.ndarray, measured_mode: int) -> np.ndarray:
    """Conditional covariance after a heterodyne on one mode."""
    g_rr, g_rb, g_bb = _partition(gamma, measured_mode)
    return g_rr - g_rb @ np.linalg.inv(g_bb + np.eye(2)) @ g_rb.T


def holevo_numeric(summary: ChannelSummary, params: ProtocolParams) -> tuple[float, np.ndarray, np.ndarray]:
    """Numeric (chi_BE, [lambda_1, lambda_2], conditional spectrum).

    Builds Alice-Bob plus the detector EPR pair, mixes the received mode with
    one EPR arm on a beamsplitter of transmission eta, measures the mixed
    mode, and reads all eigenvalues numerically.  For the ideal detector
    (eta = 1, nu_el = 0) the auxiliary modes decouple and are skipped.
    """
    eta = params.detector_efficiency
    nu = params.electronic_noise
    gamma_ab = fading_cov(summary, params)
    lam12 = symplectic_eigenvalues(gamma_ab)

    if eta == 1.0 and nu == 0.0:
        if params.detection == "homodyne":
            cond = condition_homodyne(gamma_ab, measured_mode=1)
        else:
            cond = condition_heterodyne(gamma_ab, measured_mode=1)
        cond_spectrum = symplectic_eigenvalues(cond)
    else:
        if eta == 1.0:
            raise ValueError("numeric oracle needs eta < 1 to host electronic noise")
        if params.detection == "homodyne":
            v_d = 1.0 + nu / (1.0 - eta)
        else:
            v_d = 1.0 + 2.0 * nu / (1.0 - eta)
        # modes: 0 = Alice, 1 = received, 2/3 = detector EPR pair
        gamma = np.zeros((8, 8))
        gamma[:4, :4] = gamma_ab
        gamma[4:, 4:] = epr_cov(v_d)
        gamma = beamsplitter(gamma, mode_a=1, mode_b=2, transmission=eta)
        if params.detection == "homodyne":
            cond = condition_homodyne(gamma, measured_mode=1)
        else:
            cond = condition_heterodyne(gamma, measured_mode=1)
        cond_spectrum = symplectic_eigenvalues(cond)

    def g(x: float) -> float:
        if x <= 1.0:
            return 0.0
        up = (x + 1.0) / 2.0
        down = (x - 1.0) / 2.0
        return up * math.log2(up) - down * math.log2(down)

    chi = sum(g(v) for v in lam12) - sum(g(v) for v in cond_spectrum)
    return chi, lam12, cond_spectrum
