"""Batch-OMP against the plain OMP oracle, and its transform budget."""

import numpy as np
import pytest

import csqkd.sensing as sensing
from csqkd.sensing import RowSampledIdftOperator, make_sampling_plan, omp_solve

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
    # a DC transfer vector under real noise, the sub-channel model
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
# bit-for-bit parity with the solver as written before its in-place work
# ---------------------------------------------------------------------------

def _assert_same_bits(make_op, y, **kwargs):
    """omp_solve on a fresh operator gives the frozen solver's bits exactly."""
    got = omp_solve(make_op(), y, **kwargs)
    ref = oracles.batch_omp_frozen(make_op(), y, **kwargs)
    assert got.support.tolist() == ref.support.tolist()
    assert got.coefficients.tobytes() == ref.coefficients.tobytes()
    assert np.array(got.residual_history).tobytes() == np.array(ref.residual_history).tobytes()
    assert np.float64(got.residual_norm).tobytes() == np.float64(ref.residual_norm).tobytes()
    assert got.degenerate_support == ref.degenerate_support
    return got


def _fresh_idft(m, fraction, weights, seed):
    rng, op = _idft_case(m, fraction, weights, seed)
    return rng, op, lambda: RowSampledIdftOperator(op.weights, op.rows)


@pytest.mark.parametrize("offset", ["low", "high", "half"])
@pytest.mark.parametrize("k_max", [2, 3, 5])
@pytest.mark.parametrize("m", [1999, 2000])
def test_post_dc_atom_scored_on_half_the_spectrum_matches_frozen_solver(m, k_max, offset, monkeypatch):
    # real data whose first atom is DC with a real coefficient: the second
    # atom's update, scores and choice run on offsets 0..m//2 alone, since
    # the post-DC correlations tie at k and m - k bit for bit; a component
    # at m - 37 is then chosen as 37, and one at m//2 as itself.  The bits
    # are those of the frozen solver, which scores all m offsets
    rng, op, make_op = _fresh_idft(m, 0.4, "symbols", seed=m + k_max)
    k = {"low": 37, "high": m - 37, "half": m // 2}[offset]
    truth = np.zeros(m, dtype=complex)
    truth[0] = 0.8 * np.sqrt(m)
    truth[k] = 0.3 * np.sqrt(m)
    y = op.apply(truth).real + rng.normal(0, 0.5, op.n_measurements)
    lengths = []
    subtract = RowSampledIdftOperator.subtract_gram_column

    def counted(self, out, k, c):
        lengths.append(len(out))
        return subtract(self, out, k, c)

    monkeypatch.setattr(RowSampledIdftOperator, "subtract_gram_column", counted)
    sol = _assert_same_bits(make_op, y, k_max=k_max)
    assert sol.support.size == k_max
    first, second = sol.support.tolist()[:2]
    assert (first, second) == (0, min(k, m - k))
    assert lengths[:1] == [m // 2 + 1]
    assert lengths[1:] == [m] * (sum(range(2, k_max)))
    # the tie that the half spectrum relies on, on the full update
    dc = omp_solve(make_op(), y, k_max=1).coefficients[0]
    assert dc.imag == 0
    check = make_op()
    corr = check.adjoint(y)
    subtract(check, corr, 0, dc)
    # one contiguous pass, as the solver scores: a strided np.abs may round
    # differently
    magnitude = np.abs(corr)
    assert magnitude[second] == magnitude[m - second]
    assert np.array_equal(magnitude[1:], magnitude[1:][::-1])


def test_half_spectrum_update_writes_the_leading_entries_of_the_full_one():
    # subtract_gram_column on a shorter out updates its len(out) entries with
    # the bits of the full-length update, for a short and a long head
    rng, op = _idft_case(64, 0.5, "symbols", seed=4)
    corr0 = op.adjoint(rng.normal(size=op.n_measurements))
    for k in (0, 5, 40, 63):
        full = corr0.copy()
        op.subtract_gram_column(full, k, 0.7 - 0.2j)
        for size in (1, 20, 33, 64):
            head = corr0[:size].copy()
            op.subtract_gram_column(head, k, 0.7 - 0.2j)
            assert head.tobytes() == full[:size].tobytes(), (k, size)


@pytest.mark.parametrize("data", ["real", "complex"])
@pytest.mark.parametrize("k_max", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("weights", ["symbols", "constant"])
@pytest.mark.parametrize("fraction", [0.1, 0.4, 1.0])
def test_bits_match_frozen_solver(fraction, weights, k_max, data):
    rng, op, make_op = _fresh_idft(2000, fraction, weights, seed=int(100 * fraction) + k_max)
    truth = np.zeros(2000, dtype=complex)
    truth[[0, 17]] = [0.4 * np.sqrt(2000), 0.1 - 0.2j]
    y = op.apply(truth) + rng.normal(0, 1.0, op.n_measurements)
    if data == "real":
        y = y.real
    sol = _assert_same_bits(make_op, y, k_max=k_max)
    assert sol.support.size == k_max


@pytest.mark.parametrize("shrink", [False, True])
@pytest.mark.parametrize("share", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("data", ["real", "complex"])
def test_bits_match_frozen_solver_with_delta(data, share, shrink):
    rng, op, make_op = _fresh_idft(2000, 0.4, "symbols", seed=7)
    truth = np.zeros(2000, dtype=complex)
    truth[[0, 13, 400]] = [9.0, 2.0 - 1.0j, 0.7j]
    y = op.apply(truth) + rng.normal(0, 0.5, op.n_measurements)
    if data == "real":
        y = y.real
    delta = share * float(np.linalg.norm(y))
    _assert_same_bits(make_op, y, k_max=6, delta=delta, shrink_to_delta=shrink)


@pytest.mark.parametrize("zero_column", [False, True])
@pytest.mark.parametrize("k_max", [1, 2, 3, 5, 8])
def test_dense_bits_match_frozen_solver(k_max, zero_column):
    rng = np.random.default_rng(60 + k_max)
    matrix = rng.normal(size=(40, 120)) + 1j * rng.normal(size=(40, 120))
    if zero_column:
        matrix[:, 50] = 0.0
    y = matrix[:, [3, 50]] @ np.array([2.0, -1.0j]) + 0.1 * rng.normal(size=40)
    delta = 0.3 * float(np.linalg.norm(y)) if k_max == 8 else 0.0
    _assert_same_bits(lambda: DenseOperator(matrix), y, k_max=k_max, delta=delta, shrink_to_delta=True)


@pytest.mark.parametrize("m", [63, 64, 2000])
def test_mirror_tie_bits_match_frozen_solver(m):
    rng, op, make_op = _fresh_idft(m, 0.4, "symbols", seed=m)
    k = int(rng.integers(1, (m - 1) // 2))
    truth = np.zeros(m, dtype=complex)
    truth[k] = 3.0 * np.sqrt(m)
    y = op.apply(truth).real + rng.normal(0, 0.1, op.n_measurements)
    sol = _assert_same_bits(make_op, y, k_max=3)
    assert sol.support.tolist()[:2] == [k, m - k]


def _scored_lengths(monkeypatch):
    """The number of offsets each ``_scores`` call of omp_solve fills, in order."""
    lengths = []
    original = sensing._scores

    def spy(corr, divisor, support, out):
        lengths.append(out.size)
        return original(corr, divisor, support, out)

    monkeypatch.setattr(sensing, "_scores", spy)
    return lengths


def _mirror_pair_measurement(op, rng, k):
    """Real data along column k alone: half of it lies along column m - k."""
    truth = np.zeros(op.n_coefficients, dtype=complex)
    truth[k] = 3.0 * np.sqrt(op.n_coefficients)
    return op.apply(truth).real + rng.normal(0, 0.1, op.n_measurements)


@pytest.mark.parametrize("m", [64, 2000])
def test_nyquist_first_atom_bits_match_frozen_solver(m, monkeypatch):
    # the Nyquist offset m/2 is its own mirror and the last entry of the half
    # spectrum that real data's first atom is scored on
    rng, op, make_op = _fresh_idft(m, 0.4, "symbols", seed=m + 1)
    y = _mirror_pair_measurement(op, rng, m // 2)
    lengths = _scored_lengths(monkeypatch)
    sol = _assert_same_bits(make_op, y, k_max=3)
    assert lengths[0] == m // 2 + 1
    assert lengths[1:] == [m] * (len(lengths) - 1)
    assert sol.support[0] == m // 2


@pytest.mark.parametrize("offset", [0, 1], ids=["(m-1)/2", "(m+1)/2"])
@pytest.mark.parametrize("m", [63, 2001])
def test_odd_middle_first_atom_bits_match_frozen_solver(m, offset, monkeypatch):
    # (m-1)/2 ends the half spectrum and (m+1)/2, its mirror, lies past it:
    # either way real data ties them and the first atom is (m-1)/2
    rng, op, make_op = _fresh_idft(m, 0.4, "symbols", seed=m + offset)
    y = _mirror_pair_measurement(op, rng, (m - 1) // 2 + offset)
    lengths = _scored_lengths(monkeypatch)
    sol = _assert_same_bits(make_op, y, k_max=3)
    assert lengths[0] == (m + 1) // 2
    assert sol.support.tolist()[:2] == [(m - 1) // 2, (m + 1) // 2]


@pytest.mark.parametrize("case", ["complex-idft", "dense"])
def test_first_atom_without_a_hermitian_adjoint_scores_every_offset(case, monkeypatch):
    # complex data, or an operator whose adjoint has no mirror symmetry, keeps
    # full scoring; the planted atom lies past m//2, where a half would miss it
    rng = np.random.default_rng(41)
    if case == "complex-idft":
        m, k = 64, 45
        rng, op, make_op = _fresh_idft(m, 0.4, "symbols", seed=41)
        truth = np.zeros(m, dtype=complex)
        truth[k] = (2.0 - 1.0j) * np.sqrt(m)
        y = op.apply(truth) + rng.normal(0, 0.1, op.n_measurements)
    else:
        m, k = 120, 100
        matrix = rng.normal(size=(40, m))
        y = 3.0 * matrix[:, k] + 0.1 * rng.normal(size=40)
        make_op = lambda: DenseOperator(matrix)  # noqa: E731
    lengths = _scored_lengths(monkeypatch)
    sol = _assert_same_bits(make_op, y, k_max=3)
    assert lengths == [m] * len(lengths)
    assert sol.support[0] == k


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rank_deficient_bits_match_frozen_solver(seed):
    rng, op, make_op = _fresh_idft(64, 0.1, "symbols", seed=seed)
    y = rng.normal(size=op.n_measurements) + 1j * rng.normal(size=op.n_measurements)
    sol = _assert_same_bits(make_op, y, k_max=8)
    assert sol.degenerate_support


def test_roundoff_confirmation_bits_match_frozen_solver(monkeypatch):
    # after an exact three-atom fit the updated correlations are roundoff, so
    # the fourth atom is chosen from an explicit adjoint of the residual
    rng, op, make_op = _fresh_idft(256, 0.5, "symbols", seed=3)
    truth = np.zeros(256, dtype=complex)
    truth[[0, 21, 90]] = [6.0, 2.0 + 1.0j, -1.5j]
    y = op.apply(truth)
    calls = []
    original = RowSampledIdftOperator.adjoint

    def counted(self, r):
        calls.append(r.size)
        return original(self, r)

    monkeypatch.setattr(RowSampledIdftOperator, "adjoint", counted)
    omp_solve(make_op(), y, k_max=5)
    # the first adjoint, then at least one confirmation on the residual
    assert len(calls) >= 2
    sol = _assert_same_bits(make_op, y, k_max=5)
    assert sol.support.size >= 4
    _assert_same_bits(
        lambda: DenseOperator(np.array([[1.0, 1.0], [0.0, 1e-17]])), np.array([2.0, 1.0]), k_max=2
    )


# ---------------------------------------------------------------------------
# zero columns
# ---------------------------------------------------------------------------

def test_all_zero_weights_give_empty_support_without_flag():
    op = RowSampledIdftOperator(np.zeros(500), make_sampling_plan(500, 0.4, seed=1).indices)
    y = np.random.default_rng(1).normal(size=op.n_measurements)
    sol = omp_solve(op, y, k_max=3)
    assert sol.support.size == 0
    assert not sol.degenerate_support
    assert sol.residual_norm == pytest.approx(np.linalg.norm(y), rel=1e-15)
    assert not np.any(sol.coefficients)


def test_dense_zero_column_is_never_selected():
    # y lies along the zero column's neighbours; every other column is usable
    rng = np.random.default_rng(4)
    matrix = rng.normal(size=(12, 30))
    matrix[:, 0] = 0.0
    y = rng.normal(size=12)
    sol = omp_solve(DenseOperator(matrix), y, k_max=12)
    assert 0 not in sol.support.tolist()
    assert sol.support.size >= 11
    assert np.all(np.isfinite(sol.coefficients))


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


def test_batch_omp_updates_correlations_in_place_and_builds_no_gram_column(monkeypatch):
    # a k_max = 5 solve updates its correlations in place from 1 + 2 + 3 + 4
    # Gram columns; the Cholesky step reads only the new atom's entries at
    # the support, so no length-m Gram column is built at all
    updates = []
    gathered = []
    original_update = RowSampledIdftOperator.subtract_gram_column
    original_column = RowSampledIdftOperator.gram_column

    def counted_update(self, out, k, c):
        updates.append(k)
        return original_update(self, out, k, c)

    def counted_column(self, k, entries):
        gathered.append(len(entries))
        return original_column(self, k, entries)

    monkeypatch.setattr(RowSampledIdftOperator, "subtract_gram_column", counted_update)
    monkeypatch.setattr(RowSampledIdftOperator, "gram_column", counted_column)
    rng, op = _idft_case(2000, 0.4, "symbols", seed=5)
    y = op.column(0).real * 3.0 + rng.normal(0, 1.0, op.n_measurements)
    sol = omp_solve(op, y, k_max=5)
    assert sol.support.size == 5
    assert len(updates) == 1 + 2 + 3 + 4
    assert gathered == [1, 2, 3, 4]
