"""Sampling plans, DFT basis, OMP solver, and coherence diagnostics."""

import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from csqkd.sensing import (
    OmpConfig,
    RowSampledIdftOperator,
    _cell_plans,
    _gram_from_transform,
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


@pytest.mark.parametrize("m", [2.5, 2000.0, True, "8", None, 0, -3])
def test_plan_rejects_a_length_that_is_not_a_positive_integer(m):
    # unchecked, 2.5 gave a plan of length 2.5 and 2000.0 failed inside numpy
    with pytest.raises(ValueError, match=rf"m must be an integer >= 1, got {m!r}$"):
        make_sampling_plan(m, 0.1, seed=0)
    assert make_sampling_plan(np.int64(8), 0.5, seed=0).length == 8


def test_tiny_fraction_keeps_one_index():
    plan = make_sampling_plan(100, 0.001, seed=3)
    assert plan.sample_count == 1


@pytest.mark.parametrize(
    ("m", "fraction"),
    [(2000, 0.1), (2000, 0.4), (10_000, 0.1), (10_000, 0.4), (2001, 0.3), (20_000, 0.4), (2000, 1.0), (511, 1.0)],
)
def test_cell_plans_are_the_successive_plans_of_one_generator(m, fraction):
    # the rows of _cell_plans(m, f, rng, count) are the plans of count
    # successive make_sampling_plan(m, f, rng) calls, each the sorted draw of
    # one choice without replacement, and the generator ends in the state
    # those calls leave; at m = 20 000 and f = 0.4 numpy's choice shuffles a
    # tail of 0..m-1 instead of running Floyd's algorithm.  Fraction 1 draws
    # nothing and gives read-only rows of every index
    count = 5
    cell_rng, plan_rng, draw_rng = (np.random.default_rng(17) for _ in range(3))
    before = cell_rng.bit_generator.state
    rows = _cell_plans(m, fraction, cell_rng, count)
    plans = [make_sampling_plan(m, fraction, plan_rng) for _ in range(count)]
    m_s = plans[0].sample_count
    assert rows.shape == (count, m_s) and rows.dtype == np.int64
    for row, plan in zip(rows, plans):
        assert np.array_equal(row, plan.indices)
        if m_s < m:
            assert np.array_equal(row, np.sort(draw_rng.choice(m, size=m_s, replace=False, shuffle=False)))
    assert cell_rng.bit_generator.state == plan_rng.bit_generator.state
    if fraction == 1:
        assert cell_rng.bit_generator.state == before
        assert np.array_equal(rows, np.broadcast_to(np.arange(m), (count, m)))
        assert not rows.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 1
    else:
        assert cell_rng.bit_generator.state != before
        assert (np.diff(rows, axis=1) > 0).all()


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
        full = op.gram_column(col, np.arange(m))
        assert np.max(np.abs(full - gram[:, col])) <= 1e-12 * g[0].real
        # OMP's Cholesky step gathers a Gram column at the support only
        assert np.array_equal(op.gram_column(col, entries), full[entries])
        # its correlation updates subtract the column in place
        out = np.ones(m, dtype=complex)
        op.subtract_gram_column(out, col, 2.0 - 1.0j)
        assert np.max(np.abs(out - (1.0 - (2.0 - 1.0j) * gram[:, col]))) <= 1e-12 * g[0].real
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


@pytest.mark.parametrize("m", [1, 97, 10_000])
def test_dc_column_and_shared_norm_keep_their_bits(m):
    # column 0 skips the unit-root gather: the root there is exactly 1, so
    # scaling the weights alone gives the gathered column's bits, signed
    # zeros included; the one shared column norm has np.linalg.norm's bits
    rng = np.random.default_rng(m)
    weights = rng.normal(0, 2.0, m)
    weights[::7] = 0.0
    weights[3::7] = -0.0
    rows = make_sampling_plan(m, 0.3, seed=4).indices
    op = RowSampledIdftOperator(weights, rows)
    gathered = np.ones(rows.size, dtype=complex)
    gathered *= weights[rows] / math.sqrt(m)
    for k in (0, m, -m):
        assert _same_bits(op.column(k), gathered)
    assert _same_bits(op.column_norms(), np.linalg.norm(weights[rows]) / math.sqrt(m))
    assert _same_bits(op.sampled_weights, weights[rows])


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _scaled_conj(transform, m):
    """conj(transform) with its real and imaginary parts each multiplied by 1/m."""
    return (np.conj(transform).view(np.float64) * (1 / m)).view(np.complex128)


@pytest.mark.parametrize("m", [2, 3, 63, 64, 2000, 10_000])
def test_gram_scaling_matches_complex_division_up_to_the_sign_of_zero(m):
    # numpy divides by m + 0j as (re + im*0) * (1/m), (im - re*0) * (1/m):
    # multiplying the float view by 1/m gives the same bits except where
    # that turns a -0 part into +0
    rng = np.random.default_rng(m)
    transforms = [np.fft.rfft(rng.normal(0, 2.0, (4, m)) ** 2)]
    transforms.append(np.fft.rfft(rng.normal(size=(4, m))) * (rng.random((4, m // 2 + 1)) < 0.5))
    signed = np.array([complex(a, b) for a in (0.0, -0.0, 3.5, -3.5) for b in (0.0, -0.0, 1.25, -1.25)])
    transforms.append(np.resize(signed, (4, m // 2 + 1)))
    for transform in transforms:
        divided = np.conj(transform) / m
        gram = _gram_from_transform(transform.copy(), m)
        assert _same_bits(gram, _scaled_conj(transform, m))
        parts, reference = gram.view(np.float64), divided.view(np.float64)
        assert np.array_equal(parts, reference)
        nonzero = parts != 0
        assert _same_bits(parts[nonzero], reference[nonzero])
        # a zero keeps the sign of conj(transform)
        zero = ~nonzero
        assert np.array_equal(np.signbit(parts[zero]), np.signbit(np.conj(transform).view(np.float64)[zero]))
    # the forms do differ: conj(-3.5 + 0j) / m has imaginary part +0, not -0
    assert not _same_bits(_gram_from_transform(signed.copy(), m), np.conj(signed) / m)
    # the in-place form also scales one row of a two-row transform
    pair = np.fft.rfft(rng.normal(size=(2, m)))
    expected = _scaled_conj(pair[1], m)
    assert _same_bits(_gram_from_transform(pair[1], m), expected) and _same_bits(pair[1], expected)


def _one_row_adjoint(weights, rows, r):
    # the adjoint as its own one-row norm="ortho" transform
    m = weights.size
    scattered = np.zeros(m)
    scattered[rows] = weights[rows] * r
    half = np.fft.rfft(scattered, norm="ortho")
    return np.concatenate((half, np.conj(half[m - half.size : 0 : -1])))


@pytest.mark.parametrize("zeros", [False, True], ids=["weights", "zero-weights"])
@pytest.mark.parametrize("fraction", [0.1, 0.4, 1.0])
@pytest.mark.parametrize("m", [2, 3, 63, 64, 2000, 10_000])
def test_paired_adjoint_and_cached_gram_are_one_row_transforms_bit_for_bit(
    m, fraction, zeros, monkeypatch
):
    # the first real adjoint shares one two-row transform with the Gram:
    # both keep the bits of their own one-row transforms
    rng = np.random.default_rng(m + int(10 * fraction))
    weights = rng.normal(0, 2.0, m)
    if zeros:
        weights[rng.choice(m, m // 3 + 1, replace=False)] = 0.0
    rows = make_sampling_plan(m, fraction, seed=m).indices
    r = rng.normal(size=rows.size)
    op = RowSampledIdftOperator(weights, rows)
    expected = _one_row_adjoint(weights, rows, r)
    shapes = []
    rfft = np.fft.rfft

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    assert _same_bits(op.adjoint(r), expected)
    assert shapes == [(2, m)]
    # the Gram is cached: its columns take no further transform
    cached = [op.gram_column(k, np.arange(m)) for k in (0, 1, m - 1)]
    assert shapes == [(2, m)]
    monkeypatch.undo()
    fresh = RowSampledIdftOperator(weights, rows)
    gram = fresh.gram_by_offset()
    w2 = np.zeros(m)
    w2[rows] = weights[rows] ** 2
    assert _same_bits(gram[: m // 2 + 1], _scaled_conj(np.fft.rfft(w2), m))
    for k, column in zip((0, 1, m - 1), cached):
        assert _same_bits(column, fresh.gram_column(k, np.arange(m)))
    # a later adjoint, with the Gram cached, is a one-row transform
    assert _same_bits(op.adjoint(2.0 * r), _one_row_adjoint(weights, rows, 2.0 * r))


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
    # sorted rows are bounded by their ends, unsorted ones by min and max
    for rows in ([4], [-1, 2], [0, 4], [3, -1, 2], [4, 0]):
        with pytest.raises(ValueError, match="out of range"):
            RowSampledIdftOperator(np.ones(4), np.array(rows))


@pytest.mark.parametrize(
    "rows", [[0.5, 2.5], [0.0, 2.0], np.array([True, False, True, False]), np.array([True, True])]
)
def test_operator_rejects_rows_that_are_not_integers(rows):
    # the int64 cast truncated float rows to [0, 2], and read a mask as the
    # rows 1, 0, 1, 0 ("must be unique") or 1, 1
    with pytest.raises(ValueError, match=r"^row indices must be integers, got dtype (float64|bool)$"):
        RowSampledIdftOperator(np.ones(4), rows)
    for rows in ([0, 2], np.array([0, 2], dtype=np.uint8), np.array([3, 1], dtype=np.int32)):
        op = RowSampledIdftOperator(np.ones(4), rows)
        assert op.rows.dtype == np.int64 and op.rows.tolist() == list(rows)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_omp_rejects_a_delta_that_is_not_finite_and_nonnegative(bad):
    # a NaN or infinite delta used to stop or run the fit silently
    op = DenseOperator(np.eye(4))
    with pytest.raises(ValueError, match="delta must be finite and >= 0"):
        omp_solve(op, np.ones(4), delta=bad)


@pytest.mark.parametrize("k_max", [0, -3, 2.5, 2.0, True, "2", None])
def test_omp_rejects_a_budget_that_is_not_a_positive_integer(k_max):
    # with OmpConfig's message: 2.5 used to raise numpy's TypeError from the
    # Cholesky allocation, and True "an integer is required"
    op = RowSampledIdftOperator(np.full(16, 2.0), make_sampling_plan(16, 0.5, seed=1).indices)
    y = np.random.default_rng(1).normal(size=8)
    with pytest.raises(ValueError, match=rf"^k_max must be an integer >= 1, got {re.escape(repr(k_max))}$"):
        omp_solve(op, y, k_max=k_max)
    assert omp_solve(op, y, k_max=np.int64(2)).support.size == 2


@pytest.mark.parametrize("bad", ["nan", "inf", "one inf", "overflow", "complex nan"])
def test_omp_rejects_a_non_finite_measurement(bad, monkeypatch):
    # an all-NaN measurement used to return an empty support with a NaN
    # residual and no flag, and one inf entry reached the transform with a
    # RuntimeWarning; now neither gets past the norm the solve starts from
    op = RowSampledIdftOperator(np.full(16, 2.0), np.arange(0, 16, 2))
    y = np.ones(8)
    if bad == "nan":
        y[:] = math.nan
    elif bad == "inf":
        y[:] = math.inf
    elif bad == "one inf":
        y[3] = -math.inf
    elif bad == "overflow":
        y[:] = 1e200
    else:
        y = y.astype(complex)
        y[5] = complex(1.0, math.nan)
    transforms = []
    monkeypatch.setattr(np.fft, "rfft", lambda *a, **k: transforms.append(a))
    monkeypatch.setattr(np.fft, "fft", lambda *a, **k: transforms.append(a))
    with warnings.catch_warnings():
        # nothing warns, not even the sum of squares that overflows
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^measurement must be finite, with a finite sum of squares$"):
            omp_solve(op, y, k_max=3)
    assert transforms == []


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"k_max": 0}, "k_max must be an integer >= 1"),
        ({"k_max": -3}, "k_max must be an integer >= 1"),
        ({"k_max": 2.5}, "k_max must be an integer >= 1"),
        ({"noise_scale": math.nan}, "noise_scale must be finite and >= 0"),
        ({"noise_scale": math.inf}, "noise_scale must be finite and >= 0"),
        ({"noise_scale": -0.1}, "noise_scale must be finite and >= 0"),
    ],
)
def test_omp_config_rejects_bad_budget_and_tolerance(kwargs, message):
    # each used to fit or fail mid-fit: k_max = 0 as one atom, k_max = 2.5
    # with a TypeError in the solver, a NaN or infinite scale as an
    # unestimable row, a negative one as "delta must be >= 0"
    with pytest.raises(ValueError, match=message):
        OmpConfig(**kwargs)
    assert OmpConfig(k_max=np.int64(3), noise_scale=0.0).noise_scale == 0.0


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


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("m", [64, 2000])
def test_mip_of_several_operators_equals_single_calls(m, normalize, monkeypatch):
    # the harness passes two operators in one call, whose Gram transforms
    # run as one two-row call; each value equals its single call
    rng = np.random.default_rng(m)
    rows = make_sampling_plan(m, 0.4, seed=2).indices
    ops = [
        RowSampledIdftOperator(rng.normal(0, 2.0, m), rows),
        RowSampledIdftOperator(np.full(m, 4.0), rows),
        RowSampledIdftOperator(rng.normal(0, 1.0, m), make_sampling_plan(m, 0.1, seed=3).indices),
    ]
    single = [mutual_incoherence(op, normalize=normalize) for op in ops]
    assert all(type(value) is float for value in single)
    shapes = []
    rfft = np.fft.rfft

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    pair = mutual_incoherence(ops[0], ops[1], normalize=normalize)
    assert shapes == [(2, m)]
    assert pair == tuple(single[:2])
    # an odd count runs its last operator as a one-row stack
    assert mutual_incoherence(*ops, normalize=normalize) == tuple(single)
    assert shapes[1:] == [(2, m), (1, m)]


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("m", [511, 512])
def test_mip_reads_a_cached_gram_with_the_bits_of_a_fresh_transform(m, normalize, monkeypatch):
    # after a real adjoint, as in an OMP solve, the operator's Gram is cached:
    # its coherence takes no transform and keeps a fresh operator's bits,
    # alone and beside a fresh operator in one call
    rng = np.random.default_rng(m)
    weights = rng.normal(0, 2.0, m)
    rows = make_sampling_plan(m, 0.4, seed=m).indices
    solved = RowSampledIdftOperator(weights, rows)
    omp_solve(solved, rng.normal(size=rows.size), k_max=2)
    other = RowSampledIdftOperator(np.full(m, 4.0), make_sampling_plan(m, 0.1, seed=1).indices)
    fresh = mutual_incoherence(RowSampledIdftOperator(weights, rows), normalize=normalize)
    alone = mutual_incoherence(other, normalize=normalize)
    shapes = []
    rfft = np.fft.rfft

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    assert struct.pack("d", mutual_incoherence(solved, normalize=normalize)) == struct.pack("d", fresh)
    assert shapes == []
    for ops, expected in (((solved, other), (fresh, alone)), ((other, solved), (alone, fresh))):
        values = mutual_incoherence(*ops, normalize=normalize)
        assert struct.pack("2d", *values) == struct.pack("2d", *expected)
    assert shapes == [(1, m), (1, m)]


def test_mip_of_several_operators_needs_one_block_length():
    ops = [
        RowSampledIdftOperator(np.ones(64), np.arange(0, 64, 2)),
        RowSampledIdftOperator(np.ones(32), np.arange(0, 32, 2)),
    ]
    with pytest.raises(ValueError, match="one block length"):
        mutual_incoherence(*ops)
    with pytest.raises(ValueError, match="at least one operator"):
        mutual_incoherence()
