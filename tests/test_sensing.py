"""Sampling plans, DFT basis, OMP solver, and coherence diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from csqkd.sensing import (
    RowSampledIdftOperator,
    make_sampling_plan,
    mutual_incoherence,
    omp_solve,
    unitary_dft,
    unitary_idft,
)

import oracles
from oracles import DenseOperator, idft_basis


# ---------------------------------------------------------------------------
# sampling plans
# ---------------------------------------------------------------------------

def test_full_fraction_plan():
    plan = make_sampling_plan(10, 1.0, seed=0)
    assert np.array_equal(plan.indices, np.arange(10))


def test_ten_percent_plan():
    plan = make_sampling_plan(10_000, 0.1, seed=1)
    assert plan.sample_count == 1000
    assert np.unique(plan.indices).size == 1000
    assert plan.indices.min() >= 0 and plan.indices.max() < 10_000


def test_plan_determinism_and_validation():
    a = make_sampling_plan(8, 0.5, seed=42)
    b = make_sampling_plan(8, 0.5, seed=42)
    assert np.array_equal(a.indices, b.indices)
    assert a.sample_count == 4
    with pytest.raises(ValueError, match="fraction"):
        make_sampling_plan(8, 0.0, seed=0)
    with pytest.raises(ValueError, match="fraction"):
        make_sampling_plan(8, 1.01, seed=0)


def test_tiny_fraction_keeps_one_index():
    plan = make_sampling_plan(100, 0.001, seed=3)
    assert plan.sample_count == 1


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

def test_idft_basis_m1():
    assert np.allclose(idft_basis(1), [[1.0]])


def test_constant_becomes_impulse():
    m = 50
    s = unitary_dft(3.7 * np.ones(m))
    expected = np.zeros(m, dtype=complex)
    expected[0] = 3.7 * math.sqrt(m)
    assert np.allclose(s, expected, atol=1e-12)


def test_roundtrip_against_direct_dft_oracle():
    rng = np.random.default_rng(0)
    v = rng.normal(size=64) + 1j * rng.normal(size=64)
    assert np.linalg.norm(unitary_idft(unitary_dft(v)) - v) <= 1e-10
    # package transforms agree with the explicit double-sum oracle
    assert np.linalg.norm(unitary_dft(v) - oracles.dft_direct(v)) <= 1e-10
    assert np.linalg.norm(unitary_idft(v) - oracles.idft_direct(v)) <= 1e-10


@pytest.mark.parametrize("m", [1, 2, 3, 64, 257, 1024])
def test_basis_unitary_dense(m):
    psi = idft_basis(m)
    gram = psi.conj().T @ psi
    assert np.max(np.abs(gram - np.eye(m))) <= 1e-12


def test_basis_unitary_dense_4096():
    # the analysis transform of every dense basis column is the full Gram;
    # computing it columnwise by FFT avoids the 4096^3 matrix product
    m = 4096
    psi = idft_basis(m)
    gram = np.fft.fft(psi, axis=0, norm="ortho")
    assert np.max(np.abs(gram - np.eye(m))) <= 1e-12


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def test_operator_matches_dense():
    rng = np.random.default_rng(7)
    m = 256
    weights = rng.normal(0, 2.0, m)
    rows = make_sampling_plan(m, 0.4, seed=2).indices
    op = RowSampledIdftOperator(weights, rows)
    dense = op.dense()
    s = rng.normal(size=m) + 1j * rng.normal(size=m)
    r = rng.normal(size=rows.size) + 1j * rng.normal(size=rows.size)
    assert np.linalg.norm(op.apply(s) - dense @ s) <= 1e-10
    assert np.linalg.norm(op.adjoint(r) - dense.conj().T @ r) <= 1e-10
    for k in (0, 1, 100, m - 1):
        e_k = np.zeros(m)
        e_k[k] = 1.0
        assert np.linalg.norm(op.apply(e_k) - dense[:, k]) <= 1e-12
    assert np.allclose(op.column_norms(), np.linalg.norm(dense, axis=0), atol=1e-12)


@pytest.mark.parametrize("m", [1, 2, 7, 8, 256])
def test_real_adjoint_matches_dense_and_is_hermitian(m):
    # a real measurement takes the rfft path; its completion mirrors exactly
    rng = np.random.default_rng(m)
    op = RowSampledIdftOperator(rng.normal(0, 2.0, m), make_sampling_plan(m, 0.5, seed=m).indices)
    r = rng.normal(size=op.n_measurements)
    s = op.adjoint(r)
    assert np.linalg.norm(s - op.dense().conj().T @ r) <= 1e-10
    k = np.arange(m)
    assert np.array_equal(s[(-k) % m], np.conj(s))


@pytest.mark.parametrize("m", [63, 64])
def test_real_gram_and_mip_match_dense(m):
    rng = np.random.default_rng(m)
    op = RowSampledIdftOperator(rng.normal(0, 2.0, m), make_sampling_plan(m, 0.5, seed=3).indices)
    dense = op.dense()
    gram = dense.conj().T @ dense
    g = op.gram_by_offset()
    j, k = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    # entry (j, k) is <theta_j, theta_k> = g[(k - j) mod m]
    assert np.max(np.abs(gram - g[(k - j) % m])) <= 1e-12 * g[0].real
    entries = [m - 1, 0, 5, 2]
    for col in (0, 1, m // 2, m - 1):
        assert np.max(np.abs(op.gram_column(col) - gram[:, col])) <= 1e-12 * g[0].real
        # OMP's Cholesky step gathers a Gram column at the support only
        assert np.array_equal(op.gram_column(col, entries), op.gram_column(col)[entries])
    for normalize in (False, True):
        fast = mutual_incoherence(op, normalize=normalize)
        slow = oracles.mutual_incoherence_dense(dense, normalize=normalize)
        assert fast == pytest.approx(slow, rel=1e-12)


@pytest.mark.parametrize("m", [97, 10_000])
def test_column_is_direct_phase_formula_bit_for_bit(m):
    # the unit-root table holds the direct phase expression's values exactly
    rng = np.random.default_rng(m)
    weights = rng.normal(0, 2.0, m)
    rows = make_sampling_plan(m, 0.3, seed=4).indices
    op = RowSampledIdftOperator(weights, rows)
    for k in (0, 1, m - 1, m, -3):
        phase = (rows * (k % m)) % m * (2 * np.pi / m)
        expected = np.empty(rows.size, dtype=complex)
        expected.real = np.cos(phase)
        expected.imag = np.sin(phase)
        expected *= weights[rows] / math.sqrt(m)
        col = op.column(k)
        assert np.array_equal(col, expected)
        # a caller writing into a column leaves the shared table intact
        col[:] = 0
        assert np.array_equal(op.column(k), expected)


def test_full_fraction_operator_is_unsampled_system():
    rng = np.random.default_rng(3)
    m = 64
    weights = rng.normal(0, 1.0, m)
    op = RowSampledIdftOperator(weights, make_sampling_plan(m, 1.0, seed=0).indices)
    s = rng.normal(size=m) + 1j * rng.normal(size=m)
    assert np.allclose(op.apply(s), weights * unitary_idft(s), atol=0)


def test_operator_input_validation():
    with pytest.raises(ValueError, match="unique"):
        RowSampledIdftOperator(np.ones(4), np.array([0, 0]))
    with pytest.raises(ValueError, match="unique"):
        RowSampledIdftOperator(np.ones(4), np.array([2, 0, 2]))
    # unsorted distinct rows stay valid
    assert RowSampledIdftOperator(np.ones(4), np.array([3, 0, 2])).n_measurements == 3
    with pytest.raises(ValueError, match="out of range"):
        RowSampledIdftOperator(np.ones(4), np.array([4]))


# ---------------------------------------------------------------------------
# OMP
# ---------------------------------------------------------------------------

def test_omp_identity_operator():
    op = DenseOperator(np.eye(8))
    y = np.zeros(8)
    y[2] = 3.0
    sol = omp_solve(op, y, k_max=1)
    assert list(sol.support) == [2]
    assert sol.coefficients[2] == pytest.approx(3.0, abs=1e-12)
    assert sol.residual_norm <= 1e-12


def test_omp_single_atom_against_exhaustive_fit():
    rng = np.random.default_rng(11)
    m = 64
    weights = rng.normal(0, 2.0, m)
    rows = make_sampling_plan(m, 0.25, seed=4).indices
    op = RowSampledIdftOperator(weights, rows)
    truth = np.zeros(m, dtype=complex)
    truth[0] = 5.0
    y = op.apply(truth)
    sol = omp_solve(op, y, k_max=1)
    assert list(sol.support) == [0]
    assert abs(sol.coefficients[0] - 5.0) <= 1e-9
    support, coef, res = oracles.best_subset_fit(op.dense(), y, 1)
    assert support == (0,)
    assert abs(coef[0] - sol.coefficients[0]) <= 1e-9
    assert sol.residual_norm <= 1e-9 and res <= 1e-9


def test_omp_two_atoms_against_brute_force():
    rng = np.random.default_rng(13)
    m = 32
    weights = rng.normal(0, 2.0, m)
    op = RowSampledIdftOperator(weights, np.arange(m))
    truth = np.zeros(m, dtype=complex)
    truth[0] = 4.0
    truth[7] = 2.0
    y = op.apply(truth)
    sol = omp_solve(op, y, k_max=2)
    assert sorted(sol.support) == [0, 7]
    support, coef, _ = oracles.best_subset_fit(op.dense(), y, 2)
    assert support == (0, 7)
    fitted = dict(zip(support, coef))
    for k in support:
        assert abs(sol.coefficients[k] - fitted[k]) <= 1e-8


def test_omp_residual_monotone_and_reported_norm():
    rng = np.random.default_rng(17)
    m = 128
    weights = rng.normal(0, 2.0, m)
    rows = make_sampling_plan(m, 0.5, seed=6).indices
    op = RowSampledIdftOperator(weights, rows)
    y = op.apply(rng.normal(size=m) + 1j * rng.normal(size=m)) + 0.1 * rng.normal(size=rows.size)
    sol = omp_solve(op, y, k_max=8)
    hist = sol.residual_history
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
    # reported residual equals ||y - Theta coeffs|| recomputed independently
    recomputed = np.linalg.norm(y - op.dense() @ sol.coefficients)
    assert sol.residual_norm == pytest.approx(recomputed, rel=1e-9)


def test_omp_degenerate_support_flag():
    # second column is numerically parallel to the first: the refit system is
    # rank-deficient, the newest atom is dropped, and the solve is flagged
    matrix = np.array([[1.0, 1.0], [0.0, 1e-17]])
    op = DenseOperator(matrix)
    sol = omp_solve(op, np.array([2.0, 1.0]), k_max=2)
    assert sol.degenerate_support
    assert list(sol.support) == [0]
    assert sol.coefficients[0] == pytest.approx(2.0, abs=1e-12)


def test_omp_validation():
    op = DenseOperator(np.eye(4))
    with pytest.raises(ValueError, match="k_max"):
        omp_solve(op, np.ones(4), k_max=0)
    with pytest.raises(ValueError, match="delta"):
        omp_solve(op, np.ones(4), delta=-1.0)
    with pytest.raises(ValueError, match="measurement length"):
        omp_solve(op, np.ones(3))


def test_omp_shrink_to_delta_active_constraint():
    rng = np.random.default_rng(23)
    m = 32
    weights = np.full(m, 2.0)
    rows = make_sampling_plan(m, 0.5, seed=8).indices
    op = RowSampledIdftOperator(weights, rows)
    truth = np.zeros(m, dtype=complex)
    truth[0] = 6.0
    y = op.apply(truth)
    delta = 0.3 * float(np.linalg.norm(y))
    sol = omp_solve(op, y, k_max=1, delta=delta, shrink_to_delta=True)
    # a noise-free fit ends with the residual constraint exactly active
    assert sol.residual_norm == pytest.approx(delta, rel=1e-9)
    assert abs(sol.coefficients[0] - 0.7 * 6.0) <= 1e-9


def test_omp_shrink_removes_parallel_disturbance_under_noise():
    # orthogonal stochastic residual does not absorb the shrink: the fitted
    # component still drops by delta / ||theta|| exactly
    rng = np.random.default_rng(27)
    m = 64
    op = RowSampledIdftOperator(np.full(m, 2.0), np.arange(m))
    theta0 = op.column(0)
    y = op.apply(np.eye(m, dtype=complex)[0] * 5.0)
    noise = rng.normal(0, 0.2, m)
    noise -= (noise @ theta0.real / (theta0.real @ theta0.real)) * theta0.real
    y = y + noise
    delta = 1.3
    plain = omp_solve(op, y, k_max=1)
    shrunk = omp_solve(op, y, k_max=1, delta=delta, shrink_to_delta=True)
    drop = plain.coefficients[0] - shrunk.coefficients[0]
    assert abs(drop - delta / np.linalg.norm(theta0)) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_omp_exact_recovery_single_atom(data):
    # noiseless one-sparse signals are recovered exactly whenever no two
    # sensing columns are parallel
    m = data.draw(st.integers(8, 128), label="m")
    fraction = data.draw(st.floats(0.05, 1.0), label="fraction")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    k = data.draw(st.integers(0, m - 1), label="atom")
    scale = data.draw(st.floats(0.5, 4.0), label="scale")
    phase = data.draw(st.floats(0.0, 2 * math.pi), label="phase")

    plan = make_sampling_plan(m, fraction, seed=seed)
    assume(plan.sample_count >= 2)
    weights = np.random.default_rng(seed).normal(0, 1.5, m)
    op = RowSampledIdftOperator(weights, plan.indices)
    gram = op.gram_by_offset()
    assume(np.max(np.abs(gram[1:])) < 0.999 * gram[0].real)

    truth = np.zeros(m, dtype=complex)
    truth[k] = scale * np.exp(1j * phase)
    sol = omp_solve(op, op.apply(truth), k_max=1)
    assert list(sol.support) == [k]
    assert abs(sol.coefficients[k] - truth[k]) <= 1e-9


# ---------------------------------------------------------------------------
# mutual incoherence
# ---------------------------------------------------------------------------

def test_mip_orthonormal_columns_zero():
    op = RowSampledIdftOperator(np.ones(8), np.arange(8))
    assert mutual_incoherence(op) == pytest.approx(0.0, abs=1e-15)
    assert mutual_incoherence(op, normalize=True) == pytest.approx(0.0, abs=1e-15)


def test_mip_fast_path_matches_dense():
    rng = np.random.default_rng(29)
    m = 64
    weights = rng.normal(0, 2.0, m)
    rows = make_sampling_plan(m, 0.5, seed=5).indices
    op = RowSampledIdftOperator(weights, rows)
    for normalize in (False, True):
        fast = mutual_incoherence(op, normalize=normalize)
        slow = oracles.mutual_incoherence_dense(op.dense(), normalize=normalize)
        assert fast == pytest.approx(slow, rel=1e-12)


def test_mip_magnitude_bands_at_experiment_scale():
    # raw-convention coherence of the symbol-weighted model sits well below
    # 1e-3 at full sampling and shrinks with fewer rows
    rng = np.random.default_rng(31)
    m = 10_000
    for trial in range(3):
        weights = rng.normal(0, 2.0, m)  # V_A = 4
        full = mutual_incoherence(
            RowSampledIdftOperator(weights, make_sampling_plan(m, 1.0, seed=trial).indices)
        )
        tenth = mutual_incoherence(
            RowSampledIdftOperator(weights, make_sampling_plan(m, 0.1, seed=trial).indices)
        )
        assert 1e-6 < full < 1e-3
        assert tenth < full


def test_mip_statistics_model_bands():
    m = 10_000
    weights = np.full(m, 4.0)
    tenth = mutual_incoherence(
        RowSampledIdftOperator(weights, make_sampling_plan(m, 0.1, seed=1).indices)
    )
    full = mutual_incoherence(
        RowSampledIdftOperator(weights, make_sampling_plan(m, 1.0, seed=1).indices)
    )
    assert 1e-7 < tenth < 1e-3
    # full selection of a constant-weight operator has exactly orthogonal columns
    assert full <= 1e-10


def test_mip_guards():
    with pytest.raises(ValueError, match="at least two"):
        mutual_incoherence(RowSampledIdftOperator(np.ones(1), np.arange(1)))
    with pytest.raises(ValueError, match="zero column norms"):
        mutual_incoherence(RowSampledIdftOperator(np.zeros(8), np.arange(8)), normalize=True)
