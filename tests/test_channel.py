"""Channel container and synthetic data generation tests."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from csqkd.channel import (
    ProtocolParams,
    SubChannelEnsemble,
    build_ensemble,
    ensemble_from_csv,
    ensemble_means,
    attenuate,
    noise_variance,
    read_transmittance_csv,
    sample_lognormal_transmittances,
    simulate_block,
)
from csqkd.sensing import make_sampling_plan


def test_protocol_params_validation():
    with pytest.raises(ValueError, match="modulation_variance"):
        ProtocolParams(modulation_variance=0.0)
    with pytest.raises(ValueError, match="detector_efficiency"):
        ProtocolParams(detector_efficiency=1.5)
    with pytest.raises(ValueError, match="electronic_noise"):
        ProtocolParams(electronic_noise=-0.1)
    with pytest.raises(ValueError, match="reconciliation_efficiency"):
        ProtocolParams(reconciliation_efficiency=0.0)
    with pytest.raises(ValueError, match="detection"):
        ProtocolParams(detection="direct")
    assert ProtocolParams(modulation_variance=4.0).epr_variance == 5.0


def test_subchannel_validation():
    with pytest.raises(ValueError, match=r"transmittance out of \(0, 1\] at index 3: 0\.0$"):
        build_ensemble([0.5, 0.5, 0.5, 0.0], excess_noise=0.0, block_length=10)
    with pytest.raises(ValueError, match=r"excess_noise out of \[0, inf\) at index 0: -1\.0$"):
        build_ensemble([0.5, 0.5], excess_noise=[-1.0, 0.0], block_length=10)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"transmittances": [0.5, math.nan, 0.5, 0.5]}, r"transmittance out of \(0, 1\] at index 1: nan$"),
        ({"transmittances": [0.5, 0.6, 1.5, 0.8]}, r"transmittance out of \(0, 1\] at index 2: 1\.5$"),
        ({"excess_noises": [0.0, 0.0, 0.0, -0.5]}, r"excess_noise out of \[0, inf\) at index 3: -0\.5$"),
        ({"probabilities": [0.5, 0.5, 1.5, -1.5]}, r"probability out of \[0, 1\] at index 2: 1\.5$"),
        ({"probabilities": [0.5, 0.5, 0.5, 0.5]}, r"probabilities must sum to 1 \(got 2\.0\)$"),
        ({"block_length": 0}, r"block_length must be an integer >= 1, got 0$"),
        ({"block_length": 64.0}, r"block_length must be an integer >= 1, got 64\.0$"),
        ({"block_length": [64, 33, 100, 90]}, r"block_length must be an integer >= 1, got \[64, 33, 100, 90\]$"),
    ],
    ids=["T-nan", "T-above-one", "eps-negative", "p-above-one", "p-sum", "m-zero", "m-float", "m-per-sub-channel"],
)
def test_ensemble_validation_names_field_index_and_value(fields, message):
    good = {
        "transmittances": [0.5, 0.6, 0.7, 0.8],
        "excess_noises": [0.0, 0.01, 0.0, 0.02],
        "probabilities": [0.25, 0.25, 0.25, 0.25],
        "block_length": 10,
    }
    SubChannelEnsemble(**good)
    with pytest.raises(ValueError, match=message):
        SubChannelEnsemble(**{**good, **fields})


def test_ensemble_arrays_are_read_only_copies():
    t = np.array([0.5, 0.6])
    ens = build_ensemble(t, excess_noise=0.02, block_length=8)
    t[0] = 0.9
    assert ens.transmittances.tolist() == [0.5, 0.6]
    for values in (ens.transmittances, ens.excess_noises, ens.probabilities):
        assert values.dtype == float and values.shape == (2,)
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.1
    assert ens.excess_noises.tolist() == [0.02, 0.02]
    assert ens.block_length == 8 and type(ens.block_length) is int


@pytest.mark.parametrize("count", [1, 3, 7, 50, 100])
def test_default_probabilities_are_one_over_m(count):
    # bit-equal to m / (M * m), the block-length share they were before
    ens = build_ensemble(np.full(count, 0.5), block_length=10_000)
    assert ens.probabilities.tobytes() == np.full(count, 10_000 / (count * 10_000)).tobytes()


def test_noise_variance_above_one():
    params = ProtocolParams(electronic_noise=0.05)
    sigma2 = noise_variance(0.7, 0.02, params)
    assert sigma2 == 1.0 + 0.6 * 0.7 * 0.02 + 0.05
    assert sigma2 > 1.0


def test_symmetric_ensemble_from_file(tmp_path):
    path = tmp_path / "ens.csv"
    path.write_text("index,T\n0,0.5\n1,0.5\n")
    ens = ensemble_from_csv(path, excess_noise=0.01, block_length=100)
    assert ens.count == 2
    assert np.allclose(ens.probabilities, [0.5, 0.5])
    t_mean, _, eps_mean = ensemble_means(ens)
    assert t_mean == pytest.approx(0.5, abs=1e-15)
    assert eps_mean == pytest.approx(0.01, abs=1e-15)


def test_csv_optional_columns(tmp_path):
    path = tmp_path / "ens.csv"
    path.write_text("index,T,epsilon,p\n0,0.4,0.02,0.25\n1,0.8,0.03,0.75\n")
    t, eps, p = read_transmittance_csv(path)
    assert np.allclose(t, [0.4, 0.8])
    assert np.allclose(eps, [0.02, 0.03])
    assert np.allclose(p, [0.25, 0.75])
    ens = ensemble_from_csv(path, block_length=50)
    assert ens.excess_noises[1] == 0.03
    assert ens.probabilities[1] == 0.75


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_subchannel_rejects_non_finite_excess_noise(bad):
    with pytest.raises(ValueError, match=rf"excess_noise out of \[0, inf\) at index 2: {bad!r}$"):
        build_ensemble([0.5, 0.5, 0.5], excess_noise=[0.0, 0.0, bad], block_length=10)


@pytest.mark.parametrize(
    "table, row, column",
    [
        ("index,T,epsilon,p\n0,0.5,0.07,0.5\n1,0.4,,0.5\n", 2, "epsilon"),
        ("index,T,epsilon,p\n0,0.5,,0.5\n1,0.4,0.07,0.5\n", 1, "epsilon"),
        ("index,T,epsilon,p\n0,0.5,0.07,0.5\n1,0.4,0.07,\n", 2, "p"),
        ("index,T,p\n0,0.5,0.5\n1,0.4\n", 2, "p"),
    ],
)
def test_csv_partly_filled_column_rejected(tmp_path, table, row, column):
    # a partial column may not fall back to the config default
    path = tmp_path / "ens.csv"
    path.write_text(table)
    with pytest.raises(ValueError, match=f"ens.csv: row {row}, column '{column}': blank"):
        read_transmittance_csv(path)


@pytest.mark.parametrize("column", ["T", "epsilon", "p"])
@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "abc", ""])
def test_csv_non_finite_value_rejected(tmp_path, column, text):
    cells = {"T": "0.4", "epsilon": "0.02", "p": "0.5"}
    cells[column] = text
    path = tmp_path / "ens.csv"
    path.write_text(f"index,T,epsilon,p\n0,0.5,0.01,0.5\n1,{cells['T']},{cells['epsilon']},{cells['p']}\n")
    reason = "blank" if text == "" else "expected a finite number"
    with pytest.raises(ValueError, match=f"ens.csv: row 2, column '{column}': {reason}"):
        read_transmittance_csv(path)


def test_csv_blank_optional_columns_are_unused(tmp_path):
    path = tmp_path / "ens.csv"
    path.write_text("index,T,epsilon,p\n0,0.4,,\n1,0.8,,\n")
    t, eps, p = read_transmittance_csv(path)
    assert t.tolist() == [0.4, 0.8]
    assert eps is None and p is None


@pytest.mark.parametrize(
    "table, row, text",
    [
        # repeated, missing and out-of-order indices used to load as 0, 1, 2
        ("index,T\n1,0.5\n1,0.4\n7,0.3\n", 1, "'1'"),
        ("index,T\n0,0.5\n2,0.4\n1,0.3\n", 2, "'2'"),
        ("index,T\n0,0.5\n1.5,0.4\n", 2, "'1.5'"),
        ("index,T\n0,0.5\n,0.4\n", 2, "''"),
    ],
)
def test_csv_index_must_count_rows(tmp_path, table, row, text):
    path = tmp_path / "ens.csv"
    path.write_text(table)
    with pytest.raises(ValueError, match=f"ens.csv: row {row}, column 'index': expected {row - 1},.* got {text}"):
        read_transmittance_csv(path)


def test_experiment_scale_ensemble():
    ens = build_ensemble(np.full(100, 0.3), block_length=10_000)
    assert ens.count == 100
    assert ens.count * ens.block_length == 1_000_000


def test_build_ensemble_rejections():
    with pytest.raises(ValueError, match="index 1"):
        build_ensemble([0.5, 1.2])
    with pytest.raises(ValueError, match="index 0"):
        build_ensemble([0.0, 0.5])
    with pytest.raises(ValueError, match="at least one"):
        build_ensemble([])
    with pytest.raises(ValueError, match="sum to 1"):
        build_ensemble([0.5, 0.5], probabilities=[0.6, 0.6])
    with pytest.raises(ValueError, match="block_length must be an integer >= 1, got -1"):
        build_ensemble([0.5, 0.5], block_length=-1)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        # not numpy's broadcast or scalar-conversion errors, which name no argument
        ({"excess_noise": [0.01, 0.02, 0.03]}, r"excess_noises must have shape \(2,\) like transmittances, got shape \(3,\)"),
        ({"excess_noise": [[0.01, 0.02]]}, r"excess_noises must have shape \(2,\) like transmittances, got shape \(1, 2\)"),
        ({"probabilities": [1.0]}, r"probabilities must have shape \(2,\) like transmittances, got shape \(1,\)"),
        ({"probabilities": 0.5}, r"probabilities must have shape \(2,\) like transmittances, got shape \(\)"),
        ({"transmittances": [[0.5, 0.6]]}, r"transmittances must have shape \(M,\), got shape \(1, 2\)"),
        ({"transmittances": 0.5}, r"transmittances must have shape \(M,\), got shape \(\)"),
    ],
    ids=["eps-too-long", "eps-2d", "p-too-short", "p-scalar", "T-2d", "T-scalar"],
)
def test_build_ensemble_rejects_mis_shaped_arrays(kwargs, message):
    with pytest.raises(ValueError, match=message):
        build_ensemble(**{"transmittances": [0.5, 0.6], **kwargs})


def test_lognormal_sampler_deterministic():
    a = sample_lognormal_transmittances(50, 10.0, seed=123)
    b = sample_lognormal_transmittances(50, 10.0, seed=123)
    c = sample_lognormal_transmittances(50, 10.0, seed=124)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all((a > 0) & (a <= 1.0))


def test_lognormal_sampler_rejects_an_underflowing_mean():
    # exp(-0.15 * 4966) is still a subnormal float; at 4968 km it is 0
    assert sample_lognormal_transmittances(3, 4966.0, seed=1).size == 3
    with pytest.raises(ValueError, match="distance_km = 4968.0"):
        sample_lognormal_transmittances(3, 4968.0, seed=1)


def test_identity_channel_zero_noise():
    params = ProtocolParams(detector_efficiency=1.0, electronic_noise=0.0)
    ens = build_ensemble([1.0], excess_noise=0.0, block_length=256)
    ds = simulate_block(ens, params, seed=5, zero_noise=True)
    assert np.array_equal(ds.bob[0], ds.alice[0])


def test_pure_attenuation():
    out = attenuate(np.array([2.0, -4.0]), transmittance=0.25, detector_efficiency=1.0)
    assert np.allclose(out, [1.0, -2.0], atol=0)


def test_zero_noise_gain_exact():
    params = ProtocolParams(detector_efficiency=0.6)
    ens = build_ensemble([0.37], block_length=512)
    ds = simulate_block(ens, params, seed=9, zero_noise=True)
    x, y = ds.alice[0], ds.bob[0]
    gain = math.sqrt(0.6 * 0.37)
    assert np.all(y[x != 0] / x[x != 0] == pytest.approx(gain, rel=1e-15))


def test_measured_variance_matches_model():
    # Monte-Carlo check of the output-variance identity at 3 standard errors
    params = ProtocolParams(detector_efficiency=0.6, electronic_noise=0.01)
    ens = build_ensemble([0.5], excess_noise=0.05, block_length=100_000)
    ds = simulate_block(ens, params, seed=77)
    y = ds.bob[0]
    v_b = 0.6 * 0.5 * 4.0 + 1.0 + 0.6 * 0.5 * 0.05 + 0.01
    stderr = v_b * math.sqrt(2.0 / y.size)
    assert abs(float(y @ y) / y.size - v_b) <= 3 * stderr


def test_alice_variance_within_five_stderr():
    params = ProtocolParams()
    ens = build_ensemble([0.5], block_length=50_000)
    ds = simulate_block(ens, params, seed=8)
    x = ds.alice[0]
    v_a = params.modulation_variance
    stderr = v_a * math.sqrt(2.0 / x.size)
    assert abs(float(x @ x) / x.size - v_a) <= 5 * stderr


def test_simulation_bitwise_deterministic():
    params = ProtocolParams()
    ens = build_ensemble([0.5, 0.7], excess_noise=0.02, block_length=300)
    a = simulate_block(ens, params, seed=21)
    b = simulate_block(ens, params, seed=21)
    for xa, xb in zip((*a.alice, *a.bob), (*b.alice, *b.bob)):
        assert np.array_equal(xa, xb)
    assert all(len(x) == len(y) for x, y in zip(a.alice, a.bob))


def test_simulation_blocks_view_one_buffer_with_per_block_draws():
    # a dataset is one (2, M, m) allocation, Alice's blocks in the first
    # plane; each block keeps the bits of its own child seed's draws
    params = ProtocolParams()
    ens = build_ensemble([0.5, 0.2, 0.8], excess_noise=0.02, block_length=33)
    ds = simulate_block(ens, params, seed=5)
    base = ds.alice[0].base
    assert base is not None and base.shape == (2, 3, 33)
    assert all(block.base is base for block in (*ds.alice, *ds.bob))
    assert all(np.shares_memory(x, base[0, i]) and np.shares_memory(y, base[1, i])
               for i, (x, y) in enumerate(zip(ds.alice, ds.bob)))
    children = np.random.SeedSequence(5).spawn(ens.count)
    for t, eps, child, x, y in zip(ens.transmittances, ens.excess_noises, children, ds.alice, ds.bob):
        rng = np.random.default_rng(child)
        x_ref = rng.normal(0.0, math.sqrt(params.modulation_variance), ens.block_length)
        z = rng.normal(0.0, math.sqrt(noise_variance(float(t), float(eps), params)), ens.block_length)
        y_ref = attenuate(x_ref, float(t), params.detector_efficiency) + z
        assert x.tobytes() == x_ref.tobytes()
        assert y.tobytes() == y_ref.tobytes()


@pytest.mark.parametrize("zero_noise", [False, True])
@pytest.mark.parametrize("seed", range(5))
def test_simulation_draws_in_place_with_the_normal_formula_bits(seed, zero_noise):
    # the blocks are drawn into the dataset buffer, and keep the bits of
    # x = rng.normal(0, sqrt(V_A)) and y = sqrt(eta*T) x + z, z = rng.normal
    # (0, sqrt(noise variance)) or zeros
    params = ProtocolParams()
    ens = build_ensemble([0.9, 0.05, 0.4, 1e-4], excess_noise=0.03, block_length=257)
    ds = simulate_block(ens, params, seed=seed, zero_noise=zero_noise)
    children = np.random.SeedSequence(seed).spawn(ens.count)
    for t, eps, child, x, y in zip(ens.transmittances, ens.excess_noises, children, ds.alice, ds.bob):
        rng = np.random.default_rng(child)
        x_ref = rng.normal(0.0, math.sqrt(params.modulation_variance), ens.block_length)
        if zero_noise:
            z = np.zeros(ens.block_length)
        else:
            z = rng.normal(0.0, math.sqrt(noise_variance(float(t), float(eps), params)), ens.block_length)
        y_ref = attenuate(x_ref, float(t), params.detector_efficiency) + z
        assert x.tobytes() == x_ref.tobytes()
        assert y.tobytes() == y_ref.tobytes()


def test_subchannel_seeds_independent_of_count():
    # each sub-channel draws from its own child seed, so a channel's block
    # does not depend on how many channels follow it (parallel == serial)
    params = ProtocolParams()
    one = simulate_block(build_ensemble([0.5], block_length=64), params, seed=3)
    two = simulate_block(build_ensemble([0.5, 0.8], block_length=64), params, seed=3)
    assert np.array_equal(one.alice[0], two.alice[0])
    assert np.array_equal(one.bob[0], two.bob[0])


@pytest.mark.parametrize("zero_noise", [False, True])
@pytest.mark.parametrize("subchannels", [range(0, 1), range(1, 4), range(2, 5), range(5), range(4, 0, -2)])
def test_simulation_of_a_range_is_the_full_datasets_blocks(subchannels, zero_noise):
    # a range draws each of its sub-channels from the child spawn(M) gives
    # it, so its blocks are the full dataset's bit for bit, in the range's
    # order, as views of one buffer of its own
    params = ProtocolParams()
    ens = build_ensemble([0.9, 0.05, 0.4, 1e-4, 0.7], excess_noise=0.03, block_length=257)
    full = simulate_block(ens, params, seed=12, zero_noise=zero_noise)
    part = simulate_block(ens, params, seed=12, zero_noise=zero_noise, subchannels=subchannels)
    assert len(part.alice) == len(part.bob) == len(subchannels)
    base = part.alice[0].base
    assert base is not None and base is not full.alice[0].base
    assert base.shape == (2, len(subchannels), ens.block_length)
    assert all(block.base is base for block in (*part.alice, *part.bob))
    for i, x, y in zip(subchannels, part.alice, part.bob):
        assert x.tobytes() == full.alice[i].tobytes()
        assert y.tobytes() == full.bob[i].tobytes()


@pytest.mark.parametrize("subchannels", [range(0), range(2, 2), range(-1, 2), range(3, 6), range(5, 6)])
def test_simulation_rejects_a_range_outside_the_ensemble(subchannels):
    ens = build_ensemble([0.5, 0.6, 0.7, 0.8, 0.9], block_length=16)
    with pytest.raises(ValueError, match="subchannels"):
        simulate_block(ens, ProtocolParams(), seed=1, subchannels=subchannels)


@pytest.mark.parametrize("subchannels", [range(7, 40, 3), None], ids=["stepped", "full"])
@pytest.mark.parametrize(
    "seed",
    [0, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 3, np.int64(2**40 + 9), np.uint32(2**32 - 2)],
    ids=["0", "2^32-1", "2^32", "2^64+5", "2^128+3", "int64", "uint32"],
)
def test_simulation_draws_from_numpys_spawned_children(seed, subchannels):
    # seeds of one to five entropy words, numpy integers too: every block
    # holds the draws of numpy's own child of SeedSequence(seed).spawn(M)
    params = ProtocolParams()
    ens = build_ensemble(np.linspace(0.05, 0.95, 40), excess_noise=0.02, block_length=19)
    ds = simulate_block(ens, params, seed=seed, subchannels=subchannels)
    indices = range(ens.count) if subchannels is None else subchannels
    assert ds.alice.shape == ds.bob.shape == (len(indices), ens.block_length)
    children = np.random.SeedSequence(seed).spawn(ens.count)
    for i, x, y in zip(indices, ds.alice, ds.bob):
        t, eps = float(ens.transmittances[i]), float(ens.excess_noises[i])
        rng = np.random.default_rng(children[i])
        x_ref = rng.normal(0.0, math.sqrt(params.modulation_variance), ens.block_length)
        z = rng.normal(0.0, math.sqrt(noise_variance(t, eps, params)), ens.block_length)
        assert x.tobytes() == x_ref.tobytes()
        assert y.tobytes() == (attenuate(x_ref, t, params.detector_efficiency) + z).tobytes()


_SEEDED = {
    "simulate_block": lambda seed: simulate_block(build_ensemble([0.5, 0.7], block_length=16), ProtocolParams(), seed).bob,
    "make_sampling_plan": lambda seed: make_sampling_plan(64, 0.25, seed).indices,
    "make_sampling_plan, fraction 1": lambda seed: make_sampling_plan(64, 1.0, seed).indices,
    "sample_lognormal_transmittances": lambda seed: sample_lognormal_transmittances(4, 10.0, seed),
}


@pytest.mark.parametrize("function", list(_SEEDED))
@pytest.mark.parametrize(
    "seed", [True, False, np.bool_(True), 1.0, np.float64(2.0), 2.5, [1, 2], (3,), "4", None, -1],
    ids=["True", "False", "np.bool_", "1.0", "np.float64", "2.5", "list", "tuple", "str", "None", "-1"],
)
def test_seeded_functions_reject_a_seed_that_is_not_an_integer(function, seed):
    # a bool, a float, a sequence or a negative number is not a seed, and the
    # error names it; a numpy integer is one, and make_sampling_plan also
    # takes a Generator
    with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got "):
        _SEEDED[function](seed)
    draw = _SEEDED[function]
    assert np.array_equal(draw(np.int64(3)), draw(3))
    assert np.array_equal(draw(np.uint32(3)), draw(3))
    if function.startswith("make_sampling_plan"):
        assert np.array_equal(draw(np.random.default_rng(3)), draw(3))


def test_zero_noise_shares_alice_draws():
    # zero noise keeps Alice's draws, and Bob's block is then the noiseless
    # channel map of them bit for bit, which the noisy block is not
    params = ProtocolParams()
    ens = build_ensemble([0.5], block_length=128)
    noisy = simulate_block(ens, params, seed=4)
    clean = simulate_block(ens, params, seed=4, zero_noise=True)
    assert np.array_equal(noisy.alice[0], clean.alice[0])
    signal = attenuate(clean.alice[0], 0.5, params.detector_efficiency)
    assert clean.bob[0].tobytes() == signal.tobytes()
    assert not np.array_equal(noisy.bob[0], signal)


def test_ensemble_means_single_channel():
    ens = build_ensemble([0.81], block_length=10)
    t_mean, sqrt_t_mean, _ = ensemble_means(ens)
    assert t_mean == pytest.approx(0.81, abs=1e-15)
    assert sqrt_t_mean == pytest.approx(0.9, abs=1e-15)


def test_ensemble_means_two_point():
    ens = build_ensemble([0.25, 1.0], block_length=10, probabilities=[0.5, 0.5])
    t_mean, sqrt_t_mean, _ = ensemble_means(ens)
    assert t_mean == pytest.approx(0.625, abs=1e-15)
    assert sqrt_t_mean == pytest.approx(0.75, abs=1e-15)


@given(ts=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=12))
def test_jensen_gap(ts):
    # strict gap for any ensemble with a material transmittance spread
    ens = build_ensemble(ts, block_length=10)
    t_mean, sqrt_t_mean, _ = ensemble_means(ens)
    # independent direct-summation oracle
    p = 1.0 / len(ts)
    t_direct = sum(p * t for t in ts)
    s_direct = sum(p * math.sqrt(t) for t in ts)
    assert t_mean == pytest.approx(t_direct, rel=1e-12)
    assert sqrt_t_mean == pytest.approx(s_direct, rel=1e-12)
    assert sqrt_t_mean**2 <= t_mean + 1e-12
    if max(ts) - min(ts) > 1e-6:
        assert sqrt_t_mean**2 < t_mean

