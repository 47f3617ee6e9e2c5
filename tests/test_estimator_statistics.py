"""Statistics-based (no-symbol) sub-channel estimation."""

import inspect
import math

import numpy as np
import pytest

from csqkd.channel import ProtocolParams, build_ensemble, simulate_block
from csqkd.estimators import (
    FLAG_BELOW_FLOOR,
    SubChannelEstimate,
    aggregate_estimates,
    block_variances,
    estimate_subchannel_statistics,
    estimate_subchannel_variables,
    measured_variance,
    subblock_variances,
)
from csqkd.sensing import OmpConfig, make_sampling_plan


def analytic_variance(t, eps, params):
    eta = params.detector_efficiency
    return eta * t * params.modulation_variance + 1.0 + eta * t * eps + params.electronic_noise


def exact_cfg(t, eps, params):
    """Solver config with the residual constraint active at the model-exact
    disturbance scale eta*T*eps."""
    scale = params.detector_efficiency * t * eps
    return OmpConfig(k_max=1, noise_scale=scale, shrink_to_delta=True)


def test_measured_variance_plus_minus_one():
    assert measured_variance(np.array([1.0, -1.0])) == 1.0
    with pytest.raises(ValueError):
        measured_variance(np.array([]))
    with pytest.raises(ValueError):
        measured_variance(np.array([1.0]))


def test_measured_variance_identity_channel():
    params = ProtocolParams(detector_efficiency=1.0, electronic_noise=0.0)
    ens = build_ensemble([1.0], excess_noise=0.0, block_length=100_000)
    ds = simulate_block(ens, params, seed=3, zero_noise=True)
    v_b = measured_variance(ds.bob[0])
    assert v_b == measured_variance(ds.alice[0])
    v_a = params.modulation_variance
    assert abs(v_b - v_a) <= 5 * v_a * math.sqrt(2.0 / 100_000)


def test_measured_variance_monte_carlo_model_check():
    params = ProtocolParams(detector_efficiency=0.6, electronic_noise=0.01)
    ens = build_ensemble([0.5], excess_noise=0.05, block_length=100_000)
    ds = simulate_block(ens, params, seed=19)
    expected = analytic_variance(0.5, 0.05, params)
    stderr = expected * math.sqrt(2.0 / 100_000)
    assert abs(measured_variance(ds.bob[0]) - expected) <= 3 * stderr


def test_exact_inversion_example():
    params = ProtocolParams(detector_efficiency=0.5, electronic_noise=0.02)
    t, eps = 0.36, 0.04
    v_b = analytic_variance(t, eps, params)
    for fraction in (0.13, 0.5, 1.0):
        plan = make_sampling_plan(1024, fraction, seed=2)
        est = estimate_subchannel_statistics(
            v_b, params, 1024, plan, omp=exact_cfg(t, eps, params)
        )
        assert est.t_hat == pytest.approx(t, abs=1e-9)
        assert est.eps_hat == pytest.approx(eps, abs=1e-9)


@pytest.mark.parametrize("t", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("eps", [0.0, 0.02, 0.1])
@pytest.mark.parametrize("eta", [0.5, 1.0])
@pytest.mark.parametrize("nu_el", [0.0, 0.05])
def test_exact_inversion_grid(t, eps, eta, nu_el):
    params = ProtocolParams(detector_efficiency=eta, electronic_noise=nu_el)
    v_b = analytic_variance(t, eps, params)
    plan = make_sampling_plan(512, 0.4, seed=4)
    est = estimate_subchannel_statistics(v_b, params, 512, plan, omp=exact_cfg(t, eps, params))
    assert est.t_hat == pytest.approx(t, abs=1e-9)
    assert est.eps_hat == pytest.approx(eps, abs=1e-9)


def test_replicated_plan_invariance():
    # replicated-mode measurement entries are all equal, so any two sampling
    # plans of any fractions give the same estimate
    params = ProtocolParams()
    ens = build_ensemble([0.55], excess_noise=0.03, block_length=10_000)
    ds = simulate_block(ens, params, seed=23)
    v_b = measured_variance(ds.bob[0])
    cfg = exact_cfg(0.55, 0.03, params)
    estimates = [
        estimate_subchannel_statistics(
            v_b, params, 10_000, make_sampling_plan(10_000, f, seed=s), omp=cfg
        )
        for f, s in ((0.01, 1), (0.37, 2), (1.0, 3))
    ]
    for other in estimates[1:]:
        assert abs(other.t_hat - estimates[0].t_hat) <= 1e-12


def test_blockwise_unbiased_over_seeds():
    params = ProtocolParams(detector_efficiency=0.6, electronic_noise=0.05)
    t_true, eps_true = 0.5, 0.05
    ens = build_ensemble([t_true], excess_noise=eps_true, block_length=10_000)
    plan = make_sampling_plan(10_000, 1.0, seed=5)
    cfg = exact_cfg(t_true, eps_true, params)
    t_hats = []
    for seed in range(100):
        ds = simulate_block(ens, params, seed=4000 + seed)
        variances = block_variances(ds.bob[0], n_blocks=100)
        est = estimate_subchannel_statistics(variances, params, 10_000, plan, omp=cfg)
        t_hats.append(est.t_hat)
    t_hats = np.array(t_hats)
    stderr = t_hats.std(ddof=1) / math.sqrt(t_hats.size)
    assert abs(t_hats.mean() - t_true) <= 3 * stderr


def test_block_variances_layout():
    y = np.array([1.0, -1.0, 2.0, -2.0, 0.0, 0.0, 3.0, 3.0])
    v = block_variances(y, n_blocks=4)
    assert v.shape == (8,)
    assert np.allclose(v, [1, 1, 4, 4, 0, 0, 9, 9])
    with pytest.raises(ValueError, match="divisible"):
        block_variances(y, n_blocks=3)


@pytest.mark.parametrize("shape, n_blocks", [((13, 10_000), 100), ((20, 2000), 100), ((5, 512), 8), ((3, 511), 7)])
def test_subblock_variances_of_a_plane_are_those_of_its_rows(shape, n_blocks):
    # the sweep takes a plane's sub-block variances in one call: each row
    # keeps the bits of its own call
    plane = np.random.default_rng(shape[1]).normal(0, 3.0, shape)
    rows = np.stack([subblock_variances(y, n_blocks) for y in plane])
    assert subblock_variances(plane, n_blocks).tobytes() == rows.tobytes()
    with pytest.raises(ValueError, match="at least 2 samples"):
        subblock_variances(plane[:, :3], 3)


def test_noise_split_reconstitutes_total_variance():
    # constant floor plus signal-dependent part recovers the z-variance
    params = ProtocolParams(detector_efficiency=0.6, electronic_noise=0.05)
    for t, eps in ((0.2, 0.01), (0.9, 0.1)):
        signal_part = params.detector_efficiency * t * eps
        floor = 1.0 + params.electronic_noise
        sigma2 = 1.0 + params.detector_efficiency * t * eps + params.electronic_noise
        assert signal_part + floor == pytest.approx(sigma2, rel=1e-15)


def test_below_floor_flag():
    params = ProtocolParams(electronic_noise=0.05)
    plan = make_sampling_plan(128, 1.0, seed=1)
    est = estimate_subchannel_statistics(0.9, params, 128, plan)
    assert est.flags == (FLAG_BELOW_FLOOR,)
    assert est.t_hat == 0.0
    assert math.isnan(est.eps_hat)


def test_statistics_consume_no_symbols():
    names = set(inspect.signature(estimate_subchannel_statistics).parameters)
    assert not {"x_block", "alice", "x"} & names


@pytest.mark.parametrize("k_max", [2, 3])
def test_statistics_fit_one_atom_only(k_max):
    # a variance vector is one DC atom: a larger budget is rejected before
    # any work, so before a non-finite variance or a plan of another length
    plan = make_sampling_plan(64, 0.5, seed=1)
    omp = OmpConfig(k_max=k_max, noise_scale=0.1, shrink_to_delta=True)
    for measured, length in ((4.0, 64), (math.nan, 64), (np.ones(7), 128)):
        with pytest.raises(ValueError, match=rf"^omp\.k_max must be 1 .*, got {k_max}$"):
            estimate_subchannel_statistics(measured, ProtocolParams(), length, plan, omp=omp)


def test_cross_check_against_variable_estimator():
    params = ProtocolParams(detector_efficiency=0.6, electronic_noise=0.05)
    t_true, eps_true = 0.5, 0.02
    ens = build_ensemble([t_true], excess_noise=eps_true, block_length=4096)
    plan = make_sampling_plan(4096, 1.0, seed=6)
    cfg = exact_cfg(t_true, eps_true, params)
    diffs, var_hats = [], []
    for seed in range(50):
        ds = simulate_block(ens, params, seed=5000 + seed)
        var_est = estimate_subchannel_variables(ds.alice[0], ds.bob[0], plan, params)
        stat_est = estimate_subchannel_statistics(
            measured_variance(ds.bob[0]), params, 4096, plan, omp=cfg
        )
        var_hats.append(var_est.t_hat)
        diffs.append(abs(stat_est.t_hat - var_est.t_hat))
    spread = float(np.std(var_hats, ddof=1))
    assert max(diffs) <= 5 * spread


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _estimate(i, t, eps, flags=()):
    return SubChannelEstimate(
        index=i, t_hat=t, eps_hat=eps, residual_norm=0.0, sample_count=10, flags=flags
    )


def test_aggregate_constant():
    agg = aggregate_estimates([_estimate(i, 0.4, 0.01) for i in range(5)])
    assert agg.t_mean == pytest.approx(0.4, abs=1e-15)
    assert agg.eps_mean == pytest.approx(0.01, abs=1e-15)
    assert agg.excluded == 0


def test_aggregate_weighted_mean():
    agg = aggregate_estimates(
        [_estimate(0, 0.2, 0.0), _estimate(1, 0.4, 0.0)], probabilities=[0.25, 0.75]
    )
    assert agg.t_mean == pytest.approx(0.35, abs=1e-15)


def test_aggregate_matches_summation_oracle():
    rng = np.random.default_rng(51)
    t = rng.uniform(0.1, 0.9, 20)
    eps = rng.uniform(0.0, 0.1, 20)
    p = rng.dirichlet(np.ones(20))
    ests = [_estimate(i, t[i], eps[i]) for i in range(20)]
    agg = aggregate_estimates(ests, probabilities=p)
    # independent summation order
    t_oracle = math.fsum(p[i] * t[i] for i in reversed(range(20)))
    e_oracle = math.fsum(p[i] * eps[i] for i in reversed(range(20)))
    s_oracle = math.fsum(p[i] * math.sqrt(t[i]) for i in reversed(range(20)))
    assert agg.t_mean == pytest.approx(t_oracle, abs=1e-12)
    assert agg.eps_mean == pytest.approx(e_oracle, abs=1e-12)
    assert agg.sqrt_t_mean == pytest.approx(s_oracle, abs=1e-12)


def test_aggregate_excludes_flagged_and_renormalizes():
    ests = [
        _estimate(0, 0.2, 0.01),
        _estimate(1, 0.0, math.nan, flags=(FLAG_BELOW_FLOOR,)),
        _estimate(2, 0.4, 0.03),
    ]
    agg = aggregate_estimates(ests, probabilities=[0.25, 0.5, 0.25])
    assert agg.excluded == 1
    assert agg.t_mean == pytest.approx(0.3, abs=1e-15)
    assert agg.eps_mean == pytest.approx(0.02, abs=1e-15)
    with pytest.raises(ValueError, match="flagged"):
        aggregate_estimates([_estimate(0, 0.0, math.nan, flags=(FLAG_BELOW_FLOOR,))])


@pytest.mark.parametrize(
    "probabilities, index, value",
    [([-1.0, 2.0], 0, "-1.0"), ([0.5, 2.0], 1, "2.0"), ([math.nan, 1.0], 0, "nan"), ([1.0, math.inf], 1, "inf")],
)
def test_aggregate_rejects_probabilities_outside_unit_interval(probabilities, index, value):
    # unchecked, [-1, 2] gave t_mean = 0.7, outside the range of the two
    # estimates, and a NaN or infinite weight gave NaN means
    ests = [_estimate(0, 0.5, 0.01), _estimate(1, 0.6, 0.02)]
    with pytest.raises(ValueError, match=rf"probability out of \[0, 1\] at index {index}: {value}$"):
        aggregate_estimates(ests, probabilities=probabilities)
    assert aggregate_estimates(ests, probabilities=[0.0, 1.0]).t_mean == 0.6
