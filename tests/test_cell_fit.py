"""One-atom cell fits: bit parity with the per-sub-channel estimators,
chunking, degenerate rows, and rejection of non-finite inputs."""

import math
import struct

import numpy as np
import pytest

import csqkd.estimators as estimators
from csqkd.channel import ProtocolParams, build_ensemble, simulate_block
from csqkd.estimators import (
    FLAG_BELOW_FLOOR,
    FLAG_DEGENERATE,
    FLAG_UNESTIMABLE,
    block_variances,
    estimate_subchannel_statistics,
    estimate_subchannel_variables,
    fit_cell_statistics,
    fit_cell_variables,
    measured_variance,
    subblock_variances,
)
from csqkd.sensing import OmpConfig, dc_fit, make_sampling_plan

import oracles

PARAMS = ProtocolParams(detector_efficiency=0.6, electronic_noise=0.05)
M, m, FRACTION = 7, 400, 0.3


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def assert_identical(cell, single):
    """Every field equal bit for bit (NaN included), index and flags too."""
    assert len(cell) == len(single)
    for a, b in zip(cell, single):
        assert (a.index, a.flags, a.sample_count) == (b.index, b.flags, b.sample_count)
        for field in ("t_hat", "eps_hat", "residual_norm", "imag_norm"):
            assert _bits(getattr(a, field)) == _bits(getattr(b, field)), (a.index, field)


def assert_scalar_reference(estimate, reference):
    """The estimate equals the scalar-arithmetic reference bit for bit."""
    t_hat, eps_hat, residual = reference
    assert t_hat is not None
    assert (_bits(estimate.t_hat), _bits(estimate.eps_hat), _bits(estimate.residual_norm)) == (
        _bits(t_hat), _bits(eps_hat), _bits(residual)
    )


def _dataset(seed=3):
    t = np.linspace(0.2, 0.9, M)
    ens = build_ensemble(t, excess_noise=0.02, block_length=m)
    ds = simulate_block(ens, PARAMS, seed=seed)
    return ens, [x.copy() for x in ds.alice], [y.copy() for y in ds.bob]


def _plans(seed=5, fraction=FRACTION):
    return [make_sampling_plan(m, fraction, seed=seed + i) for i in range(M)]


@pytest.fixture(params=[None, 3], ids=["default-chunk", "chunk-of-3"])
def chunk_rows(request, monkeypatch):
    """Run with the module's chunk budget, and with one that splits M = 7
    sub-channels into chunks of 3, 3 and 1."""
    if request.param is not None:
        m_s = _plans()[0].sample_count
        monkeypatch.setattr(estimators, "CHUNK_BYTES", 8 * m_s * request.param)
    return request.param


@pytest.mark.parametrize("shrink", [False, True])
def test_variables_cell_matches_per_channel_bit_for_bit(chunk_rows, shrink):
    _, alice, bob = _dataset()
    plans = _plans()
    alice[1][:] = 0.0                       # all-zero Alice block
    bob[2] = -bob[2]                        # sign-flipped channel
    alice[3][plans[3].indices[:2]] = 1e-12  # near-zero sampled Alice symbols
    alice[4][plans[4].indices[5]] = 0.0     # one zero weight
    omp = OmpConfig(noise_scale=0.3, shrink_to_delta=True) if shrink else OmpConfig()
    cell = fit_cell_variables(alice, bob, plans, PARAMS, omp=omp)
    single = [
        estimate_subchannel_variables(x, y, p, PARAMS, omp=omp, index=i)
        for i, (x, y, p) in enumerate(zip(alice, bob, plans))
    ]
    assert_identical(cell, single)
    assert cell[1].flags == (FLAG_DEGENERATE, FLAG_UNESTIMABLE)
    assert cell[1].sample_count == 0
    assert cell[2].flags == (FLAG_UNESTIMABLE,)
    assert cell[3].flags == () and cell[3].sample_count == plans[3].sample_count
    assert cell[4].sample_count == plans[4].sample_count - 1
    assert all(e.flags == () for i, e in enumerate(cell) if i not in (1, 2))
    delta = 1.1 * math.sqrt(plans[0].sample_count) * 0.3 if shrink else 0.0
    for i in (0, 3, 4, 5, 6):
        rows = plans[i].indices
        reference = oracles.scalar_variables_estimate(
            alice[i][rows], bob[i][rows], 0.6, 1.05, delta, shrink
        )
        assert_scalar_reference(cell[i], reference)


def _statistics_inputs(bob, mode):
    if mode == "replicated":
        per_cell = [measured_variance(y) for y in bob]
        return per_cell, per_cell
    per_cell = [subblock_variances(y, 20) for y in bob]
    return per_cell, [block_variances(y, 20) for y in bob]


@pytest.mark.parametrize("mode", ["replicated", "blockwise"])
def test_statistics_cell_matches_per_channel_bit_for_bit(chunk_rows, mode):
    ens, _, bob = _dataset()
    plans = _plans()
    floor = 1.0 + PARAMS.electronic_noise
    bob[1] *= 0.5       # variance below the 1 + nu_el floor
    bob[2][:] = 0.0     # zero variance: below the floor too
    per_cell, per_channel = _statistics_inputs(bob, mode)
    if mode == "replicated":
        per_cell[3] = per_channel[3] = floor - 0.5e-6   # within the floor grace: g < 0
    else:
        # a mean above the floor with every sampled entry below it: g < 0;
        # the cell takes this one as per-entry variances (sub-blocks of width 1)
        low = np.full(m, 50.0)
        low[plans[3].indices] = floor - 0.01
        per_cell[3] = per_channel[3] = low
    configs = [
        OmpConfig(noise_scale=PARAMS.detector_efficiency * s.transmittance * s.excess_noise,
                  shrink_to_delta=True)
        for s in ens.channels
    ]
    cell = fit_cell_statistics(per_cell, PARAMS, plans, omp=configs, mode=mode)
    single = [
        estimate_subchannel_statistics(v, PARAMS, m, p, omp=c, mode=mode, index=i)
        for i, (v, p, c) in enumerate(zip(per_channel, plans, configs))
    ]
    assert_identical(cell, single)
    assert cell[1].flags == cell[2].flags == (FLAG_BELOW_FLOOR,)
    assert cell[3].flags == (FLAG_UNESTIMABLE,)
    assert all(e.flags == () for e in cell[4:] + cell[:1])
    for i in (0, 4, 5, 6):
        rows = plans[i].indices
        r_s = np.broadcast_to(per_channel[i], (m,))[rows] - floor
        delta = math.sqrt(rows.size) * configs[i].noise_scale
        reference = oracles.scalar_statistics_estimate(r_s, 4.0, 0.6, delta, shrink=True)
        assert_scalar_reference(cell[i], reference)


@pytest.mark.parametrize("gain", [14.530216986498635, 8.415343471753795e-05, 0.00105462862336806])
def test_transmittance_squares_the_gain_with_python_float_power(gain):
    # g**2 of a Python float (libm pow) and numpy's square can differ in the
    # last bit; the fits keep the scalar form, so outputs keep their bytes
    params = ProtocolParams(detector_efficiency=1.0, electronic_noise=0.0)
    x, y = np.ones(2), np.full(2, gain)
    plan = make_sampling_plan(2, 1.0, seed=0)
    (est,) = fit_cell_variables([x], [y], [plan], params)
    assert _bits(est.t_hat) == _bits(gain**2)


def test_chunks_fit_the_byte_budget():
    for m_s in (1, 200, 800, 2000, estimators.CHUNK_BYTES // 8, 10_000):
        chunks = estimators._chunks(50, m_s)
        assert [i for c in chunks for i in range(c.start, c.stop)] == list(range(50))
        for c in chunks:
            assert (c.stop - c.start) * m_s * 8 <= max(estimators.CHUNK_BYTES, m_s * 8)


def test_cell_rejects_mixed_inputs():
    _, alice, bob = _dataset()
    plans = _plans()
    with pytest.raises(ValueError, match="share one sample count"):
        fit_cell_variables(alice, bob, plans[:-1] + [make_sampling_plan(m, 0.5, seed=1)], PARAMS)
    with pytest.raises(ValueError, match="k_max > 1"):
        fit_cell_variables(alice, bob, plans, PARAMS, omp=OmpConfig(k_max=2))
    with pytest.raises(ValueError, match="solver configs"):
        fit_cell_statistics([4.0] * M, PARAMS, plans, omp=[OmpConfig()] * (M - 1))
    with pytest.raises(ValueError, match="one entry per sub-channel"):
        fit_cell_variables(alice[:-1], bob, plans, PARAMS)
    with pytest.raises(ValueError, match="divides the block length"):
        fit_cell_statistics([np.ones(7)] * M, PARAMS, plans, mode="blockwise")


def test_zero_weights_are_degenerate_whatever_delta():
    # a zero column is degenerate even when delta already covers ||y||
    y = np.array([0.1, -0.1, 0.05])
    assert dc_fit(np.zeros(3), y, delta=1.0) == (0.0, float(np.linalg.norm(y)), True)
    assert dc_fit(np.ones(3), y, delta=1.0) == (0.0, float(np.linalg.norm(y)), False)


# ---------------------------------------------------------------------------
# non-finite inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("k_max", [1, 3])
def test_variables_reject_non_finite_blocks(bad, k_max):
    _, alice, bob = _dataset()
    plan = _plans()[0]
    omp = OmpConfig(k_max=k_max)
    for name, x, y in (
        ("x_block", np.where(np.arange(m) == 7, bad, alice[0]), bob[0]),
        ("y_block", alice[0], np.where(np.arange(m) == 7, bad, bob[0])),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            estimate_subchannel_variables(x, y, plan, PARAMS, omp=omp)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cell_variables_reject_non_finite_blocks(bad):
    _, alice, bob = _dataset()
    bob[4][11] = bad
    with pytest.raises(ValueError, match=r"^y_blocks\[4\] must be finite"):
        fit_cell_variables(alice, bob, _plans(), PARAMS)
    _, alice, bob = _dataset()
    alice[2][0] = bad
    with pytest.raises(ValueError, match=r"^x_blocks\[2\] must be finite"):
        fit_cell_variables(alice, bob, _plans(), PARAMS)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("k_max", [1, 2])
def test_statistics_reject_non_finite_variances(bad, k_max):
    plan = make_sampling_plan(m, 0.5, seed=1)
    omp = OmpConfig(k_max=k_max)
    with pytest.raises(ValueError, match="^measured must be finite"):
        estimate_subchannel_statistics(bad, PARAMS, m, plan, omp=omp)
    vector = np.full(m, 3.0)
    vector[9] = bad
    with pytest.raises(ValueError, match="^measured must be finite"):
        estimate_subchannel_statistics(vector, PARAMS, m, plan, omp=omp, mode="blockwise")
    plans = _plans()
    with pytest.raises(ValueError, match=r"^measured\[5\] must be finite"):
        fit_cell_statistics([3.0] * 5 + [bad, 3.0], PARAMS, plans)
    blocks = [np.full(20, 3.0) for _ in range(M)]
    blocks[0][3] = bad
    with pytest.raises(ValueError, match=r"^measured\[0\] must be finite"):
        fit_cell_statistics(blocks, PARAMS, plans, mode="blockwise")
