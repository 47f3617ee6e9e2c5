"""Closed-form DC projection against single-atom OMP, and the off-DC guard."""

import math

import numpy as np
import pytest

import csqkd.estimators as estimators
from csqkd.channel import ProtocolParams, build_ensemble, simulate_block
from csqkd.estimators import (
    FLAG_OFF_DC,
    block_variances,
    estimate_subchannel_statistics,
    estimate_subchannel_variables,
    measured_variance,
)
from csqkd.sensing import (
    OmpConfig,
    RowSampledIdftOperator,
    dc_fit,
    make_sampling_plan,
    omp_solve,
    unitary_idft,
)

PARAMS = ProtocolParams(detector_efficiency=0.6, electronic_noise=0.05)
TOL = 1e-10


def _omp_reference(weights, rows, y_s, delta=0.0, shrink=False):
    """Single-atom OMP: its support, mean(h) and reported residual norm."""
    op = RowSampledIdftOperator(weights, rows)
    sol = omp_solve(op, y_s, k_max=1, delta=delta, shrink_to_delta=shrink)
    h = unitary_idft(sol.coefficients)
    return sol.support.tolist(), float(h.real.mean()), sol.residual_norm


def _assert_parity(weights, rows, y_s, delta=0.0, shrink=False):
    """dc_fit agrees with OMP on a DC-selected case; returns the gain."""
    support, ref_gain, ref_residual = _omp_reference(weights, rows, y_s, delta, shrink)
    assert support == [0]
    gain, residual, degenerate = dc_fit(weights[rows], y_s, delta=delta, shrink_to_delta=shrink)
    assert not degenerate
    assert abs(gain - ref_gain) <= TOL * max(1.0, abs(ref_gain))
    assert abs(residual - ref_residual) <= TOL * max(1.0, ref_residual)
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
    assert est.imag_norm == 0.0
    if zero_noise:
        assert est.t_hat == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("mode", ["replicated", "blockwise"])
@pytest.mark.parametrize("fraction", [0.1, 1.0])
def test_statistics_route_matches_omp_with_shrink(mode, fraction):
    t, eps, m = 0.5, 0.05, 2000
    ens = build_ensemble([t], excess_noise=eps, block_length=m)
    ds = simulate_block(ens, PARAMS, seed=17)
    if mode == "replicated":
        measured = measured_variance(ds.bob[0])
        r_y = np.full(m, measured)
    else:
        measured = block_variances(ds.bob[0], 20)
        r_y = measured
    plan = make_sampling_plan(m, fraction, seed=3)
    rows = plan.indices
    eta = PARAMS.detector_efficiency
    scale = eta * t * eps
    delta = math.sqrt(rows.size) * scale
    r_vy = r_y - (1.0 + PARAMS.electronic_noise)
    weights = np.full(m, PARAMS.modulation_variance)
    ref_gain = _assert_parity(weights, rows, r_vy[rows], delta=delta, shrink=True)
    cfg = OmpConfig(noise_scale=scale, shrink_to_delta=True)
    est = estimate_subchannel_statistics(measured, PARAMS, m, plan, omp=cfg, mode=mode)
    assert est.t_hat == pytest.approx(ref_gain / eta, rel=TOL)


def test_statistics_zero_noise_matches_omp():
    params = ProtocolParams(detector_efficiency=0.6, electronic_noise=0.0)
    ens = build_ensemble([0.36], excess_noise=0.0, block_length=1024)
    ds = simulate_block(ens, params, seed=5, zero_noise=True)
    measured = block_variances(ds.bob[0], 16)
    plan = make_sampling_plan(1024, 0.3, seed=2)
    weights = np.full(1024, params.modulation_variance)
    ref_gain = _assert_parity(weights, plan.indices, measured[plan.indices])
    est = estimate_subchannel_statistics(
        measured, params, 1024, plan, mode="blockwise", noise_floor=0.0
    )
    assert est.t_hat == pytest.approx(ref_gain / params.detector_efficiency, rel=TOL)


def test_variables_shrink_to_delta_matches_omp():
    _, ds = _variables_case()
    x, y = ds.alice[0], ds.bob[0]
    rows = make_sampling_plan(x.size, 0.4, seed=4).indices
    delta = 0.5 * float(np.linalg.norm(y[rows]))
    gain = _assert_parity(x, rows, y[rows], delta=delta, shrink=True)
    unshrunk, _, _ = dc_fit(x[rows], y[rows])
    assert 0 < gain < unshrunk


@pytest.mark.parametrize("factor", [1.0, 2.0])
def test_no_atom_when_delta_covers_measurement(factor):
    _, ds = _variables_case()
    x, y = ds.alice[0], ds.bob[0]
    rows = make_sampling_plan(x.size, 0.1, seed=6).indices
    y_norm = float(np.linalg.norm(y[rows]))
    support, ref_gain, ref_residual = _omp_reference(x, rows, y[rows], delta=factor * y_norm)
    assert support == [] and ref_gain == 0.0
    gain, residual, degenerate = dc_fit(x[rows], y[rows], delta=factor * y_norm)
    assert (gain, degenerate) == (0.0, False)
    assert residual == pytest.approx(ref_residual, rel=TOL)


def test_shrink_past_zero_clamps_gain():
    # ||g w|| = 0.1 < delta = 0.5 < ||y||: one atom is fitted, then shrunk to 0
    w = np.array([1.0, 0.0])
    y = np.array([0.1, 1.0])
    gain, residual, degenerate = dc_fit(w, y, delta=0.5, shrink_to_delta=True)
    assert (gain, degenerate) == (0.0, False)
    assert residual == pytest.approx(float(np.linalg.norm(y)))
    assert dc_fit(w, y, delta=0.5)[0] == pytest.approx(0.1)


def test_zero_weights_are_degenerate():
    gain, residual, degenerate = dc_fit(np.zeros(4), np.array([1.0, -1.0, 0.5, 0.0]))
    assert (gain, degenerate) == (0.0, True)
    assert residual == pytest.approx(1.5)


def test_dc_fit_validation():
    with pytest.raises(ValueError, match="equal length"):
        dc_fit(np.ones(3), np.ones(4))
    with pytest.raises(ValueError, match="delta"):
        dc_fit(np.ones(3), np.ones(3), delta=-1.0)


def test_single_atom_budget_never_runs_omp(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the one-atom budget must not build an operator or run OMP")

    monkeypatch.setattr(estimators, "omp_solve", refuse)
    monkeypatch.setattr(estimators, "RowSampledIdftOperator", refuse)
    params, ds = _variables_case(m=256)
    plan = make_sampling_plan(256, 0.5, seed=1)
    estimate_subchannel_variables(ds.alice[0], ds.bob[0], plan, params)
    estimate_subchannel_statistics(measured_variance(ds.bob[0]), params, 256, plan)
    with pytest.raises(AssertionError, match="one-atom"):
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
    est = estimate_subchannel_statistics(measured, PARAMS, m, plan, omp=cfg, mode="blockwise")
    assert est.usable
    assert 0.5 * t < est.t_hat < 2.0 * t


def test_multi_atom_off_dc_support_is_flagged():
    # at this SNR three-atom OMP misses the DC column, so mean(h) is roundoff
    params, ds = _variables_case(t=0.003, eps=0.01, m=2000, seed=3)
    x, y = ds.alice[0], ds.bob[0]
    plan = make_sampling_plan(2000, 0.1, seed=1)
    sol = omp_solve(RowSampledIdftOperator(x, plan.indices), y[plan.indices], k_max=3)
    assert sol.support.size == 3 and 0 not in sol.support
    est = estimate_subchannel_variables(x, y, plan, params, omp=OmpConfig(k_max=3))
    assert FLAG_OFF_DC in est.flags
    assert not est.usable
    assert est.imag_norm > 0


def test_multi_atom_dc_support_is_not_flagged():
    params, ds = _variables_case()
    plan = make_sampling_plan(2000, 0.4, seed=1)
    est = estimate_subchannel_variables(
        ds.alice[0], ds.bob[0], plan, params, omp=OmpConfig(k_max=3)
    )
    assert est.flags == ()
    assert est.t_hat == pytest.approx(0.5, abs=0.05)
