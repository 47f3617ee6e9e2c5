"""Batch-OMP against the plain OMP oracle, its transform budget, and the
closed-form transfer moments the estimators read off the coefficients."""

import numpy as np
import pytest

import csqkd.estimators as estimators
from csqkd.channel import ProtocolParams, build_ensemble, simulate_block
from csqkd.estimators import estimate_subchannel_variables, transfer_moments
from csqkd.sensing import (
    OmpConfig,
    RowSampledIdftOperator,
    make_sampling_plan,
    omp_solve,
    unitary_idft,
)

import oracles
from oracles import DenseOperator

TOL = 1e-9


def _assert_parity(op, y, mirror_ties=False, **kwargs):
    """omp_solve reproduces the oracle's support, flag, coefficients and norms.

    With real data on a real-weighted IDFT operator, columns k and m - k
    score equally in exact arithmetic and roundoff breaks the tie, in the
    oracle's adjoint and in the Gram update alike.  ``mirror_ties`` then also
    accepts the support reached by taking the other side of such ties: the
    same set, or its mirror k -> -k mod m, whose coefficients are the
    conjugate mirror of the oracle's.  Returns the solution.
    """
    got = omp_solve(op, y, **kwargs)
    ref = oracles.omp_reference(op, y, **kwargs)
    assert got.degenerate_support == ref.degenerate_support
    expected = ref.coefficients
    if got.support.tolist() != ref.support.tolist():
        assert mirror_ties, (got.support, ref.support)
        m = op.n_coefficients
        if set(got.support.tolist()) != set(ref.support.tolist()):
            assert set(got.support.tolist()) == {(-k) % m for k in ref.support.tolist()}
            expected = np.conj(expected[(-np.arange(m)) % m])
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(got.coefficients - expected)) <= TOL * scale
    # relative, with a floor at the roundoff of an exact fit
    floor = 1e-12 * float(np.linalg.norm(y))
    assert len(got.residual_history) == len(ref.residual_history)
    for a, b in zip(got.residual_history, ref.residual_history):
        assert abs(a - b) <= TOL * b + floor
    assert abs(got.residual_norm - ref.residual_norm) <= TOL * ref.residual_norm + floor
    return got


def _idft_case(m, fraction, weights, seed):
    rng = np.random.default_rng(seed)
    w = rng.normal(0, 2.0, m) if weights == "symbols" else np.full(m, 4.0)
    rows = make_sampling_plan(m, fraction, seed=seed).indices
    return rng, RowSampledIdftOperator(w, rows)


# ---------------------------------------------------------------------------
# parity with plain OMP
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k_max", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("weights", ["symbols", "constant"])
@pytest.mark.parametrize("fraction", [0.1, 0.4, 1.0])
def test_noisy_real_data_matches_oracle(fraction, weights, k_max):
    # the estimators' setting: a DC transfer vector under real noise
    rng, op = _idft_case(2000, fraction, weights, seed=int(1000 * fraction) + k_max)
    truth = np.zeros(2000, dtype=complex)
    truth[0] = 0.4 * np.sqrt(2000)
    y = op.apply(truth).real + rng.normal(0, 1.0, op.n_measurements)
    sol = _assert_parity(op, y, mirror_ties=True, k_max=k_max)
    assert sol.support.size == k_max


@pytest.mark.parametrize("shrink", [False, True])
@pytest.mark.parametrize("share", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("weights", ["symbols", "constant"])
def test_delta_stop_and_shrink_match_oracle(weights, share, shrink):
    rng, op = _idft_case(2000, 0.4, weights, seed=7)
    truth = np.zeros(2000, dtype=complex)
    truth[[0, 13, 400]] = [9.0, 2.0 - 1.0j, 0.7j]
    y = op.apply(truth).real + rng.normal(0, 0.5, op.n_measurements)
    delta = share * float(np.linalg.norm(y))
    _assert_parity(op, y, mirror_ties=True, k_max=6, delta=delta, shrink_to_delta=shrink)


@pytest.mark.parametrize("k_max", [1, 2, 4, 6, 8])
@pytest.mark.parametrize("m", [256, 2000])
def test_noisy_complex_data_matches_oracle_exactly(m, k_max):
    # complex data breaks the mirror symmetry, so the support must be identical
    rng, op = _idft_case(m, 0.25, "symbols", seed=m + k_max)
    truth = np.zeros(m, dtype=complex)
    truth[rng.choice(m, 4, replace=False)] = rng.normal(size=4) + 1j * rng.normal(size=4)
    noise = rng.normal(0, 0.1, op.n_measurements) + 1j * rng.normal(0, 0.1, op.n_measurements)
    _assert_parity(op, op.apply(5.0 * truth) + noise, k_max=k_max)


@pytest.mark.parametrize("delta", [0.0, 1e-9])
@pytest.mark.parametrize("weights", ["symbols", "constant"])
def test_exact_data_matches_oracle(weights, delta):
    # three atoms fitted exactly; with delta > 0 the stop rule ends the solve
    # before any roundoff-driven fourth atom
    rng, op = _idft_case(256, 0.5, weights, seed=3)
    truth = np.zeros(256, dtype=complex)
    truth[[0, 21, 90]] = [6.0, 2.0 + 1.0j, -1.5j]
    y = op.apply(truth)
    k_max = 3 if delta == 0.0 else 8
    sol = _assert_parity(op, y, k_max=k_max, delta=delta)
    assert sorted(sol.support.tolist()) == [0, 21, 90]
    assert sol.residual_norm <= 1e-9


@pytest.mark.parametrize("k_max", [1, 3, 8])
@pytest.mark.parametrize("delta_share", [0.0, 0.5])
def test_dense_operator_matches_oracle(k_max, delta_share):
    rng = np.random.default_rng(40 + k_max)
    op = DenseOperator(rng.normal(size=(40, 120)) + 1j * rng.normal(size=(40, 120)))
    y = op.matrix[:, [3, 50]] @ np.array([2.0, -1.0j]) + 0.1 * rng.normal(size=40)
    delta = delta_share * float(np.linalg.norm(y))
    _assert_parity(op, y, k_max=k_max, delta=delta, shrink_to_delta=delta > 0)


@pytest.mark.parametrize("m", [63, 64, 2000])
@pytest.mark.parametrize("seed", range(6))
def test_real_data_mirror_tie_breaks_to_lower_index(m, seed):
    # on real data columns k and m - k score exactly alike, because the
    # real adjoint's spectrum is completed by exact conjugate mirroring;
    # the tie goes to the lower index, and then the mirror atom follows
    rng, op = _idft_case(m, 0.4, "symbols", seed=seed)
    k = int(rng.integers(1, (m - 1) // 2))
    truth = np.zeros(m, dtype=complex)
    truth[k] = 3.0 * np.sqrt(m)
    y = op.apply(truth).real + rng.normal(0, 0.1, op.n_measurements)
    corr = op.adjoint(y)
    assert abs(corr[k]) == abs(corr[m - k])
    for _ in range(2):
        sol = omp_solve(op, y, k_max=2)
        assert sol.support.tolist() == [k, m - k]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_degenerate_beyond_row_count_matches_oracle(seed):
    # six rows hold at most six independent columns: the seventh atom is
    # rank-deficient, after a fit that is exact to roundoff
    rng, op = _idft_case(64, 0.1, "symbols", seed=seed)
    y = rng.normal(size=op.n_measurements) + 1j * rng.normal(size=op.n_measurements)
    sol = _assert_parity(op, y, k_max=8)
    assert sol.degenerate_support
    assert sol.support.size == op.n_measurements


def test_parallel_columns_degenerate_matches_oracle():
    # the Gram update cancels to exactly zero here; the exactness check's
    # explicit adjoint still finds the parallel column and flags it
    op = DenseOperator(np.array([[1.0, 1.0], [0.0, 1e-17]]))
    sol = _assert_parity(op, np.array([2.0, 1.0]), k_max=2)
    assert sol.degenerate_support
    assert sol.support.tolist() == [0]


# ---------------------------------------------------------------------------
# transform budget
# ---------------------------------------------------------------------------

def test_batch_omp_budget_one_adjoint_one_gram(monkeypatch):
    calls = {"adjoint": 0, "gram_by_offset": 0}

    def counting(name):
        original = getattr(RowSampledIdftOperator, name)

        def counted(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        return counted

    def refuse(*args, **kwargs):
        raise AssertionError("Batch-OMP must not run a dense least-squares solve")

    for name in calls:
        monkeypatch.setattr(RowSampledIdftOperator, name, counting(name))
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    rng, op = _idft_case(2000, 0.4, "symbols", seed=5)
    y = op.column(0).real * 3.0 + rng.normal(0, 1.0, op.n_measurements)
    sol = omp_solve(op, y, k_max=5)
    assert sol.support.size == 5
    assert calls["adjoint"] <= 1
    assert calls["gram_by_offset"] <= 1


def test_batch_omp_builds_full_gram_columns_only_for_correlation_updates(monkeypatch):
    # a k_max = 5 solve updates its correlations with 1 + 2 + 3 + 4 full Gram
    # columns; the Cholesky step reads only the new atom's entries at the
    # support, so it builds no length-m column
    full = []
    original = RowSampledIdftOperator.gram_column

    def counted(self, k, entries=None):
        if entries is None:
            full.append(k)
        return original(self, k, entries)

    monkeypatch.setattr(RowSampledIdftOperator, "gram_column", counted)
    rng, op = _idft_case(2000, 0.4, "symbols", seed=5)
    y = op.column(0).real * 3.0 + rng.normal(0, 1.0, op.n_measurements)
    sol = omp_solve(op, y, k_max=5)
    assert sol.support.size == 5
    assert len(full) == 1 + 2 + 3 + 4


def test_multi_atom_estimate_runs_two_transforms(monkeypatch):
    # one adjoint and one Gram transform per estimate, both real; no
    # complex transform and no synthesis of h
    counts = {"fft": 0, "ifft": 0, "rfft": 0}

    def counting(name):
        original = getattr(np.fft, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return counted

    params = ProtocolParams(detector_efficiency=0.6, electronic_noise=0.05)
    ens = build_ensemble([0.5], excess_noise=0.02, block_length=2000)
    ds = simulate_block(ens, params, seed=31)
    plan = make_sampling_plan(2000, 0.4, seed=1)
    for name in counts:
        monkeypatch.setattr(np.fft, name, counting(name))
    est = estimate_subchannel_variables(
        ds.alice[0], ds.bob[0], plan, params, omp=OmpConfig(k_max=3)
    )
    assert est.usable
    assert counts == {"fft": 0, "ifft": 0, "rfft": 2}
    # the estimators have no synthesis transform to call
    assert not hasattr(estimators, "unitary_idft")


# ---------------------------------------------------------------------------
# closed-form transfer moments
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("with_dc", [True, False])
@pytest.mark.parametrize("m", [2, 63, 64, 1000])
def test_transfer_moments_match_synthesis(m, with_dc):
    rng = np.random.default_rng(m + with_dc)
    s = np.zeros(m, dtype=complex)
    k = min(5, m - 1)
    support = rng.choice(np.arange(1, m), size=k, replace=False)
    if with_dc:
        support = np.append(support, 0)
    s[support] = rng.normal(size=support.size) + 1j * rng.normal(size=support.size)
    h = unitary_idft(s)
    mean_h, imag_norm = transfer_moments(s, support)
    scale = float(np.linalg.norm(s))
    assert abs(mean_h - h.real.mean()) <= 1e-12 * scale
    assert abs(imag_norm - np.linalg.norm(h.imag)) <= 1e-12 * scale
    if not with_dc:
        assert mean_h == 0.0


def test_transfer_moments_of_real_transfer_vector():
    # a real h has a conjugate-mirrored spectrum and no imaginary residue
    h = np.random.default_rng(2).normal(size=50)
    mean_h, imag_norm = transfer_moments(np.fft.fft(h, norm="ortho"), np.arange(50))
    assert mean_h == pytest.approx(h.mean(), rel=1e-12)
    assert imag_norm <= 1e-12 * np.linalg.norm(h)
