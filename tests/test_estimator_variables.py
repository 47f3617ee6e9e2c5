"""Variable-based (symbol-disclosing) sub-channel estimation."""

import math

import numpy as np
import pytest

from csqkd.channel import ProtocolParams, build_ensemble, simulate_block
from csqkd.estimators import (
    FLAG_DEGENERATE,
    FLAG_UNESTIMABLE,
    estimate_subchannel_variables,
)
from csqkd.sensing import OmpConfig, make_sampling_plan

import oracles


def _zero_noise_case(t, eta, m=1024, seed=5, eps=0.0):
    params = ProtocolParams(detector_efficiency=eta, electronic_noise=0.0)
    ens = build_ensemble([t], excess_noise=eps, block_length=m)
    ds = simulate_block(ens, params, seed=seed, zero_noise=True)
    return params, ds


def test_zero_noise_exact_recovery_single_case():
    params, ds = _zero_noise_case(0.64, 1.0)
    plan = make_sampling_plan(1024, 1.0, seed=1)
    est = estimate_subchannel_variables(ds.alice[0], ds.bob[0], plan, params, noise_floor=0.0)
    assert est.t_hat == pytest.approx(0.64, abs=1e-9)
    assert est.eps_hat == pytest.approx(0.0, abs=1e-9)
    assert est.flags == ()


@pytest.mark.parametrize("t", [0.2, 0.5, 0.9])
@pytest.mark.parametrize("eta", [0.3, 1.0])
@pytest.mark.parametrize("fraction", [0.1, 1.0])
def test_zero_noise_exact_recovery_grid(t, eta, fraction):
    params, ds = _zero_noise_case(t, eta)
    plan = make_sampling_plan(1024, fraction, seed=7)
    assert plan.sample_count >= 8
    est = estimate_subchannel_variables(ds.alice[0], ds.bob[0], plan, params, noise_floor=0.0)
    assert est.t_hat == pytest.approx(t, abs=1e-9)


def test_matches_least_squares_oracle():
    # with a single-atom budget the reconstruction collapses to the
    # closed-form least-squares gain on the sampled pairs
    params = ProtocolParams(detector_efficiency=0.6, electronic_noise=0.05)
    ens = build_ensemble([0.5], excess_noise=0.02, block_length=10_000)
    ds = simulate_block(ens, params, seed=31)
    plan = make_sampling_plan(10_000, 0.4, seed=8)
    est = estimate_subchannel_variables(ds.alice[0], ds.bob[0], plan, params)
    x_s = ds.alice[0][plan.indices]
    y_s = ds.bob[0][plan.indices]
    t_ls = oracles.ls_transmittance(x_s, y_s, params.detector_efficiency)
    assert abs(est.t_hat - t_ls) <= 1e-10
    # a fortiori within the statistical band of the baseline
    sigma2 = 1 + 0.6 * 0.5 * 0.02 + 0.05
    stderr_t = 2 * math.sqrt(0.5 / 0.6) * math.sqrt(sigma2 / (x_s @ x_s))
    assert abs(est.t_hat - t_ls) <= 5 * stderr_t


def test_mean_unbiased_and_mse_order():
    params = ProtocolParams(detector_efficiency=0.6, electronic_noise=0.05)
    t_true, eps_true = 0.5, 0.02
    ens = build_ensemble([t_true], excess_noise=eps_true, block_length=10_000)
    plan = make_sampling_plan(10_000, 0.4, seed=9)
    t_hats = []
    for seed in range(100):
        ds = simulate_block(ens, params, seed=1000 + seed)
        est = estimate_subchannel_variables(ds.alice[0], ds.bob[0], plan, params)
        t_hats.append(est.t_hat)
    t_hats = np.array(t_hats)
    stderr = t_hats.std(ddof=1) / math.sqrt(t_hats.size)
    assert abs(t_hats.mean() - t_true) <= 3 * stderr
    mse = float(np.mean((t_hats - t_true) ** 2))
    assert 2e-5 < mse < 2e-3  # one decade around the expected 1e-4 order


def test_excess_noise_plugin_unbiased_at_true_t():
    # the plug-in form with the transmittance pinned to truth is unbiased
    params = ProtocolParams(detector_efficiency=0.6, electronic_noise=0.05)
    t_true, eps_true = 0.5, 0.02
    eta = params.detector_efficiency
    ens = build_ensemble([t_true], excess_noise=eps_true, block_length=4000)
    eps_hats = []
    for seed in range(200):
        ds = simulate_block(ens, params, seed=2000 + seed)
        x, y = ds.alice[0], ds.bob[0]
        m_s = x.size
        eps_hats.append(
            (float(y @ y) - eta * t_true * float(x @ x) - m_s * (1 + params.electronic_noise))
            / (m_s * eta * t_true)
        )
    eps_hats = np.array(eps_hats)
    stderr = eps_hats.std(ddof=1) / math.sqrt(eps_hats.size)
    assert abs(eps_hats.mean() - eps_true) <= 3 * stderr


def test_fraction_monotonicity():
    params = ProtocolParams(detector_efficiency=0.6, electronic_noise=0.05)
    t_true = 0.5
    ens = build_ensemble([t_true], excess_noise=0.02, block_length=2048)
    errs = {0.1: [], 1.0: []}
    for seed in range(100):
        ds = simulate_block(ens, params, seed=3000 + seed)
        for fraction in errs:
            plan = make_sampling_plan(2048, fraction, seed=seed)
            est = estimate_subchannel_variables(ds.alice[0], ds.bob[0], plan, params)
            errs[fraction].append((est.t_hat - t_true) ** 2)
    assert np.mean(errs[1.0]) <= np.mean(errs[0.1])


def test_scaling_covariance_zero_noise():
    params, ds = _zero_noise_case(0.49, 0.6)
    plan = make_sampling_plan(1024, 0.5, seed=3)
    base = estimate_subchannel_variables(ds.alice[0], ds.bob[0], plan, params, noise_floor=0.0)
    scaled = estimate_subchannel_variables(
        ds.alice[0], 3.0 * ds.bob[0], plan, params, noise_floor=0.0
    )
    assert scaled.t_hat == pytest.approx(9.0 * base.t_hat, abs=1e-9)


def test_zero_weight_row_is_kept_and_only_all_zero_block_flagged():
    # a zero Alice symbol adds nothing to the least-squares sums, so the row
    # stays in the plan: its Bob symbol still feeds the excess-noise plug-in
    params = ProtocolParams(detector_efficiency=0.6, electronic_noise=0.05)
    rng = np.random.default_rng(4)
    x = rng.normal(0.0, 2.0, 64)
    y = 0.5 * x + rng.normal(size=64)
    plan = make_sampling_plan(64, 0.5, seed=2)
    zeroed = x.copy()
    zeroed[plan.indices[:3]] = 0.0
    zeroed[plan.indices[3]] = 1e-12
    est = estimate_subchannel_variables(zeroed, y, plan, params)
    assert est.flags == ()
    assert est.sample_count == plan.sample_count - 3
    x_s, y_s = zeroed[plan.indices], y[plan.indices]
    m_s = plan.sample_count
    gain = float(x_s @ y_s) / float(x_s @ x_s)
    assert est.t_hat == gain**2 / 0.6
    eps = (float(y_s @ y_s) - 0.6 * est.t_hat * float(x_s @ x_s) - m_s * 1.05) / (
        m_s * 0.6 * est.t_hat
    )
    assert est.eps_hat == pytest.approx(eps, rel=1e-12)
    # every sampled symbol zero: flagged, whatever the rest of the block holds
    blank = x.copy()
    blank[plan.indices] = 0.0
    est = estimate_subchannel_variables(blank, y, plan, params)
    assert est.flags == (FLAG_DEGENERATE, FLAG_UNESTIMABLE)
    assert est.sample_count == 0
    assert est.residual_norm == pytest.approx(float(np.linalg.norm(y_s)), rel=1e-15)


def test_all_degenerate_symbols_give_flagged_estimate():
    # every sampled Alice symbol zero: nothing to fit
    params = ProtocolParams(detector_efficiency=0.6, electronic_noise=0.05)
    y = np.random.default_rng(9).normal(size=64)
    plan = make_sampling_plan(64, 0.5, seed=2)
    est = estimate_subchannel_variables(np.zeros(64), y, plan, params)
    assert est.flags == (FLAG_DEGENERATE, FLAG_UNESTIMABLE)
    assert est.sample_count == 0
    assert est.t_hat == 0.0 and math.isnan(est.eps_hat)
    assert not est.usable


def test_unestimable_flag_on_sign_flipped_channel():
    params = ProtocolParams(detector_efficiency=1.0, electronic_noise=0.0)
    ens = build_ensemble([0.81], excess_noise=0.0, block_length=256)
    ds = simulate_block(ens, params, seed=6, zero_noise=True)
    plan = make_sampling_plan(256, 1.0, seed=0)
    est = estimate_subchannel_variables(ds.alice[0], -ds.bob[0], plan, params, noise_floor=0.0)
    assert FLAG_UNESTIMABLE in est.flags
    assert est.t_hat == 0.0
    assert math.isnan(est.eps_hat)


@pytest.mark.parametrize("k_max", [2, 3])
def test_variables_fit_one_atom_only(k_max):
    # a stable sub-channel's transfer vector is one DC atom: a larger budget
    # is rejected before any work, so before a non-finite block or a plan of
    # another length
    params = ProtocolParams(detector_efficiency=0.6, electronic_noise=0.05)
    x = np.random.default_rng(3).normal(size=64)
    plan = make_sampling_plan(64, 0.5, seed=1)
    omp = OmpConfig(k_max=k_max, noise_scale=0.1, shrink_to_delta=True)
    for x_block, y_block in ((x, 0.5 * x), (x, np.full(64, math.nan)), (np.ones(128), np.ones(128))):
        with pytest.raises(ValueError, match=rf"^omp\.k_max must be 1 .*, got {k_max}$"):
            estimate_subchannel_variables(x_block, y_block, plan, params, omp=omp)
