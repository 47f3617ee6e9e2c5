"""Closed-form DC projection against single-atom OMP, and the low-SNR rows
where OMP picked an off-DC atom."""

import math

import numpy as np
import pytest

import csqkd.estimators as estimators
from csqkd.channel import ProtocolParams, build_ensemble, simulate_block
from csqkd.estimators import (
    block_variances,
    estimate_subchannel_statistics,
    estimate_subchannel_variables,
    measured_variance,
    subblock_variances,
)
from csqkd.sensing import (
    OmpConfig,
    RowSampledIdftOperator,
    dc_project,
    make_sampling_plan,
    omp_solve,
    unitary_idft,
)

import oracles

PARAMS = ProtocolParams(detector_efficiency=0.6, electronic_noise=0.05)
TOL = 1e-10


def _omp_reference(weights, rows, y_s, delta=0.0, shrink=False):
    """Single-atom OMP: its support, mean(h) and reported residual norm."""
    op = RowSampledIdftOperator(weights, rows)
    sol = omp_solve(op, y_s, k_max=1, delta=delta, shrink_to_delta=shrink)
    h = unitary_idft(sol.coefficients)
    return sol.support.tolist(), float(h.real.mean()), sol.residual_norm


def _assert_parity(weights, rows, y_s, delta=0.0, shrink=False):
    """dc_project agrees with OMP on a DC-selected case; returns the gain."""
    support, ref_gain, ref_residual = _omp_reference(weights, rows, y_s, delta, shrink)
    assert support == [0]
    fit = dc_project(weights[rows], y_s[None, :], delta, shrink)
    assert not fit.degenerate[0]
    assert abs(fit.gain[0] - ref_gain) <= TOL * max(1.0, abs(ref_gain))
    assert abs(fit.residual_norm[0] - ref_residual) <= TOL * max(1.0, ref_residual)
    return ref_gain


def _variables_case(t=0.5, eps=0.02, m=2000, seed=31, zero_noise=False):
    params = ProtocolParams(
        detector_efficiency=0.6, electronic_noise=0.0 if zero_noise else 0.05
    )
    ens = build_ensemble([t], excess_noise=eps, block_length=m)
    return params, simulate_block(ens, params, seed=seed, zero_noise=zero_noise)


# ---------------------------------------------------------------------------
# parity with single-atom OMP
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fraction", [0.1, 0.4, 1.0])
@pytest.mark.parametrize("zero_noise", [False, True])
def test_variables_route_matches_omp(fraction, zero_noise):
    params, ds = _variables_case(zero_noise=zero_noise)
    x, y = ds.alice[0], ds.bob[0]
    plan = make_sampling_plan(x.size, fraction, seed=8)
    ref_gain = _assert_parity(x, plan.indices, y[plan.indices])
    floor = 0.0 if zero_noise else None
    est = estimate_subchannel_variables(x, y, plan, params, noise_floor=floor)
    assert est.t_hat == pytest.approx(ref_gain**2 / params.detector_efficiency, rel=TOL)
    if zero_noise:
        assert est.t_hat == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("form", ["replicated", "blockwise", "sub-blocks"])
@pytest.mark.parametrize("fraction", [0.1, 1.0])
def test_statistics_route_matches_omp_with_shrink(form, fraction):
    # the variance of the block, its per-entry sub-block variances, or the
    # 20 sub-block variances themselves
    t, eps, m = 0.5, 0.05, 2000
    ens = build_ensemble([t], excess_noise=eps, block_length=m)
    ds = simulate_block(ens, PARAMS, seed=17)
    if form == "replicated":
        measured = measured_variance(ds.bob[0])
        r_y = np.full(m, measured)
    else:
        r_y = block_variances(ds.bob[0], 20)
        measured = r_y if form == "blockwise" else subblock_variances(ds.bob[0], 20)
    plan = make_sampling_plan(m, fraction, seed=3)
    rows = plan.indices
    eta = PARAMS.detector_efficiency
    scale = eta * t * eps
    delta = math.sqrt(rows.size) * scale
    r_vy = r_y - (1.0 + PARAMS.electronic_noise)
    weights = np.full(m, PARAMS.modulation_variance)
    ref_gain = _assert_parity(weights, rows, r_vy[rows], delta=delta, shrink=True)
    cfg = OmpConfig(noise_scale=scale, shrink_to_delta=True)
    est = estimate_subchannel_statistics(measured, PARAMS, m, plan, omp=cfg)
    assert est.t_hat == pytest.approx(ref_gain / eta, rel=TOL)


def test_statistics_zero_noise_matches_omp():
    params = ProtocolParams(detector_efficiency=0.6, electronic_noise=0.0)
    ens = build_ensemble([0.36], excess_noise=0.0, block_length=1024)
    ds = simulate_block(ens, params, seed=5, zero_noise=True)
    measured = block_variances(ds.bob[0], 16)
    plan = make_sampling_plan(1024, 0.3, seed=2)
    weights = np.full(1024, params.modulation_variance)
    ref_gain = _assert_parity(weights, plan.indices, measured[plan.indices])
    est = estimate_subchannel_statistics(measured, params, 1024, plan, noise_floor=0.0)
    assert est.t_hat == pytest.approx(ref_gain / params.detector_efficiency, rel=TOL)


def test_variables_shrink_to_delta_matches_omp():
    _, ds = _variables_case()
    x, y = ds.alice[0], ds.bob[0]
    rows = make_sampling_plan(x.size, 0.4, seed=4).indices
    delta = 0.5 * float(np.linalg.norm(y[rows]))
    gain = _assert_parity(x, rows, y[rows], delta=delta, shrink=True)
    unshrunk = dc_project(x[rows], y[rows][None, :]).gain[0]
    assert 0 < gain < unshrunk


@pytest.mark.parametrize("factor", [1.0, 2.0])
def test_no_atom_when_delta_covers_measurement(factor):
    _, ds = _variables_case()
    x, y = ds.alice[0], ds.bob[0]
    rows = make_sampling_plan(x.size, 0.1, seed=6).indices
    y_norm = float(np.linalg.norm(y[rows]))
    support, ref_gain, ref_residual = _omp_reference(x, rows, y[rows], delta=factor * y_norm)
    assert support == [] and ref_gain == 0.0
    fit = dc_project(x[rows], y[rows][None, :], delta=factor * y_norm)
    assert (fit.gain[0], fit.degenerate[0]) == (0.0, False)
    assert fit.residual_norm[0] == pytest.approx(ref_residual, rel=TOL)


def test_shrink_past_zero_clamps_gain():
    # ||g w|| = 0.1 < delta = 0.5 < ||y||: one atom is fitted, then shrunk to 0
    w = np.array([1.0, 0.0])
    y = np.array([0.1, 1.0])
    fit = dc_project(w, y[None, :], delta=0.5, shrink_to_delta=True)
    assert (fit.gain[0], fit.degenerate[0]) == (0.0, False)
    assert fit.residual_norm[0] == pytest.approx(float(np.linalg.norm(y)))
    assert dc_project(w, y[None, :], delta=0.5).gain[0] == pytest.approx(0.1)


def test_zero_weights_are_degenerate():
    fit = dc_project(np.zeros(4), np.array([[1.0, -1.0, 0.5, 0.0]]))
    assert (fit.gain[0], fit.degenerate[0]) == (0.0, True)
    assert fit.residual_norm[0] == pytest.approx(1.5)


@pytest.mark.parametrize("shared", [False, True])
def test_dc_project_leaves_its_inputs_unchanged(shared):
    # the residual is formed in place in a copy of the measurement, never in
    # the caller's rows or weights
    w = np.array([1.0, 2.0, -1.0]) if shared else np.array([[1.0, 2.0, -1.0], [0.5, 0.0, 3.0]])
    y = np.array([[2.0, 1.0, 0.5], [1.0, -2.0, 4.0]])
    w_before, y_before = w.copy(), y.copy()
    fit = dc_project(w, y)
    assert np.array_equal(w, w_before) and np.array_equal(y, y_before)
    residual = y - fit.gain[:, None] * w
    assert fit.residual_norm.tobytes() == np.sqrt((residual[:, None, :] @ residual[:, :, None])[:, 0, 0]).tobytes()


def test_dc_project_validation():
    with pytest.raises(ValueError, match="2-d rows"):
        dc_project(np.ones(3), np.ones((1, 4)))
    with pytest.raises(ValueError, match="2-d rows"):
        dc_project(np.ones(3), np.ones(3))
    with pytest.raises(ValueError, match="2-d rows"):
        dc_project(np.ones((2, 3)), np.ones((1, 3)))
    with pytest.raises(ValueError, match="delta"):
        dc_project(np.ones(3), np.ones((1, 3)), delta=-1.0)
    with pytest.raises(ValueError, match="delta"):
        dc_project(np.ones(3), np.ones((2, 3)), delta=np.array([0.0, -1.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_dc_project_rejects_a_delta_that_is_not_finite(bad):
    # a NaN delta fitted no atom and an infinite one stopped every fit: both
    # used to pass as an unestimable row with T_hat = 0
    with pytest.raises(ValueError, match="delta must be finite and >= 0"):
        dc_project(np.ones(3), np.ones((1, 3)), delta=bad)
    with pytest.raises(ValueError, match="delta must be finite and >= 0"):
        dc_project(np.ones(3), np.ones((2, 3)), delta=np.array([0.0, bad]))


def test_single_atom_budget_never_runs_omp(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the one-atom budget must not build an operator or run OMP")

    monkeypatch.setattr(estimators, "omp_solve", refuse)
    monkeypatch.setattr(estimators, "RowSampledIdftOperator", refuse)
    params, ds = _variables_case(m=256)
    plan = make_sampling_plan(256, 0.5, seed=1)
    estimate_subchannel_variables(ds.alice[0], ds.bob[0], plan, params)
    estimate_subchannel_statistics(measured_variance(ds.bob[0]), params, 256, plan)
    # a larger budget is refused, not solved
    with pytest.raises(ValueError, match=r"^omp\.k_max must be 1 "):
        estimate_subchannel_variables(
            ds.alice[0], ds.bob[0], plan, params, omp=OmpConfig(k_max=2)
        )


# ---------------------------------------------------------------------------
# low-SNR garbage no longer passes as usable
# ---------------------------------------------------------------------------

def test_low_snr_blockwise_statistics_gives_dc_estimate():
    # single-atom OMP picks an off-DC atom here and returns an unflagged
    # t_hat of order 1e-20; the DC projection lands near the truth
    t, eps, m = 0.003, 0.01, 10_000
    ens = build_ensemble([t], excess_noise=eps, block_length=m)
    ds = simulate_block(ens, PARAMS, seed=5)
    measured = block_variances(ds.bob[0], 100)
    plan = make_sampling_plan(m, 0.1, seed=1)
    weights = np.full(m, PARAMS.modulation_variance)
    r_vy = measured - (1.0 + PARAMS.electronic_noise)
    support, _, _ = _omp_reference(weights, plan.indices, r_vy[plan.indices])
    assert support != [0]
    cfg = OmpConfig(noise_scale=PARAMS.detector_efficiency * t * eps, shrink_to_delta=True)
    est = estimate_subchannel_statistics(measured, PARAMS, m, plan, omp=cfg)
    assert est.usable
    assert 0.5 * t < est.t_hat < 2.0 * t


@pytest.mark.parametrize("fraction", [0.1, 0.4, 1.0])
def test_low_snr_variables_gives_the_one_atom_projection(fraction):
    # at T = 0.003 OMP puts an off-DC atom first on these rows at f = 0.1
    # and 1, where a multi-atom budget flagged the row or refitted it; the
    # variables fit is the scalar DC projection of the sampled pairs,
    # unflagged, whatever atom OMP would pick
    params, ds = _variables_case(t=0.003, eps=0.01, m=2000, seed=3)
    x, y = ds.alice[0], ds.bob[0]
    plan = make_sampling_plan(2000, fraction, seed=1)
    support, _, _ = _omp_reference(x, plan.indices, y[plan.indices])
    assert (support == [0]) == (fraction == 0.4)
    est = estimate_subchannel_variables(x, y, plan, params)
    reference = oracles.scalar_variables_estimate(x[plan.indices], y[plan.indices], 0.6, 1.05)
    assert est.flags == () and est.usable
    assert (est.t_hat, est.eps_hat, est.residual_norm) == reference
