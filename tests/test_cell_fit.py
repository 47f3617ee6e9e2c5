"""Cell fits, run as the sweep runs them (``estimators._fit_*``, one atom and
one ``shrink_to_delta`` per cell): bit parity with the per-sub-channel
estimators and with scalar references; cells split as the sweep's groups
split them, the work area, degenerate rows, and rejection of non-finite
inputs."""

import itertools
import math
import mmap
import struct

import numpy as np
import pytest

import csqkd.estimators as estimators
import csqkd.harness as harness
import csqkd.sensing as sensing
from csqkd.channel import ProtocolParams, build_ensemble, simulate_block
from csqkd.estimators import (
    FLAG_BELOW_FLOOR,
    FLAG_DEGENERATE,
    FLAG_UNESTIMABLE,
    block_variances,
    estimate_subchannel_statistics,
    estimate_subchannel_variables,
    measured_variance,
    subblock_variances,
)
from csqkd.sensing import OmpConfig, dc_project, make_sampling_plan

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
        for field in ("t_hat", "eps_hat", "residual_norm"):
            assert _bits(getattr(a, field)) == _bits(getattr(b, field)), (a.index, field)


def assert_scalar_reference(estimate, reference):
    """The estimate equals the scalar-arithmetic reference bit for bit."""
    t_hat, eps_hat, residual = reference
    assert t_hat is not None
    assert (_bits(estimate.t_hat), _bits(estimate.eps_hat), _bits(estimate.residual_norm)) == (
        _bits(t_hat), _bits(eps_hat), _bits(residual)
    )


def _cell(alice, bob, plans):
    """The (n, m) planes of the blocks and the rows of the plans: the
    arguments that the sweep passes the variables fit."""
    return np.stack(alice), np.stack(bob), estimators._plan_rows(plans)


def _variances(measured):
    """Per-sub-channel variances of one form as the statistics fit takes
    them: scalars as one 1-d array, sub-block variances as the rows of one."""
    return np.array(measured) if np.ndim(measured[0]) == 0 else np.stack(measured)


def fit_variables(alice, bob, plans, omp=OmpConfig(), params=PARAMS, work=None):
    """The records of the sweep's variables fit at ``omp``'s settings."""
    fit = estimators._fit_variables(
        *_cell(alice, bob, plans), params, omp.noise_scale or 0.0, omp.shrink_to_delta, work=work
    )
    return estimators._records(fit)


def _noise_scale(ens):
    """eta*T_i*eps_i of each sub-channel, the statistics noise scale of the sweep."""
    return PARAMS.detector_efficiency * ens.transmittances * ens.excess_noises


def fit_statistics(measured, plans, ens=None, work=None):
    """The records of the sweep's statistics fit: with ``ens``
    at each sub-channel's noise scale and ``shrink_to_delta``, as
    :func:`_statistics_configs` gives them one each; without, at neither.
    A cell fit takes variances of one form and blocks of one length, so
    mixed ones (a per-entry vector among sub-block variances, plans of two
    block lengths) are fitted as runs of one form and length, joined in
    order as the sweep joins its groups' fits."""
    noise_scale = 0.0 if ens is None else _noise_scale(ens)
    rows = estimators._plan_rows(plans)
    fits = []
    for (_, length), run in itertools.groupby(
        range(len(measured)), key=lambda i: (np.shape(measured[i]), plans[i].length)
    ):
        run = list(run)
        a, b = run[0], run[-1] + 1
        fits.append(estimators._fit_statistics(
            _variances(measured[a:b]), PARAMS, length, rows[a:b],
            noise_scale if ens is None else noise_scale[a:b], ens is not None, work=work,
        ))
    return estimators._records(harness._joined(fits))


def _dataset(seed=3):
    t = np.linspace(0.2, 0.9, M)
    ens = build_ensemble(t, excess_noise=0.02, block_length=m)
    ds = simulate_block(ens, PARAMS, seed=seed)
    return ens, [x.copy() for x in ds.alice], [y.copy() for y in ds.bob]


def _plans(seed=5, fraction=FRACTION):
    return [make_sampling_plan(m, fraction, seed=seed + i) for i in range(M)]


def _in_runs(fit, per_channel, size):
    """``fit`` of a cell as the fits of its runs of ``size`` consecutive
    sub-channels joined in order, as the sweep joins its groups' fits;
    ``per_channel`` holds the positions of the per-sub-channel arguments."""
    def run(*args, **kwargs):
        return harness._joined([
            fit(*(arg[a : a + size] if i in per_channel and not isinstance(arg, float) else arg
                  for i, arg in enumerate(args)), **kwargs)
            for a in range(0, len(args[0]), size)
        ])
    return run


@pytest.fixture(params=[None, 3], ids=["default-chunk", "chunk-of-3"])
def split_cell(request, monkeypatch):
    """Fit each cell whole ("default-chunk"), and as runs of 3, 3 and 1 of
    the M = 7 sub-channels ("chunk-of-3"), each fitted on its own and joined."""
    if request.param is not None:
        for name, per_channel in (("_fit_variables", (0, 1, 2, 4)), ("_fit_statistics", (0, 3, 4))):
            monkeypatch.setattr(estimators, name, _in_runs(getattr(estimators, name), per_channel, request.param))
    return request.param


@pytest.mark.parametrize("shrink", [False, True])
def test_variables_cell_matches_per_channel_bit_for_bit(split_cell, shrink):
    _, alice, bob = _dataset()
    plans = _plans()
    alice[1][:] = 0.0                       # all-zero Alice block
    bob[2] = -bob[2]                        # sign-flipped channel
    alice[3][plans[3].indices[:2]] = 1e-12  # near-zero sampled Alice symbols
    alice[4][plans[4].indices[5]] = 0.0     # one zero weight
    omp = OmpConfig(noise_scale=0.3, shrink_to_delta=True) if shrink else OmpConfig()
    cell = fit_variables(alice, bob, plans, omp)
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


def _statistics_inputs(bob, form):
    """(cell input, per-sub-channel input) in one variance form: a scalar
    (``replicated``), the scalar in a 1-element array (``one-element``), 20
    sub-block variances on both sides (``sub-blocks``), or those for the cell
    and their per-entry repetition for the per-sub-channel estimator
    (``blockwise``)."""
    if form == "replicated":
        per_cell = [measured_variance(y) for y in bob]
        return per_cell, per_cell
    if form == "one-element":
        per_cell = [np.array([measured_variance(y)]) for y in bob]
        return per_cell, per_cell
    per_cell = [subblock_variances(y, 20) for y in bob]
    if form == "sub-blocks":
        return per_cell, per_cell
    return per_cell, [block_variances(y, 20) for y in bob]


def _statistics_configs(ens):
    """The one-atom settings of the sweep's statistics fit, one per sub-channel."""
    return [
        OmpConfig(noise_scale=PARAMS.detector_efficiency * t * eps, shrink_to_delta=True)
        for t, eps in zip(ens.transmittances.tolist(), ens.excess_noises.tolist())
    ]


@pytest.mark.parametrize("form", ["replicated", "blockwise", "one-element", "sub-blocks"])
def test_statistics_cell_matches_per_channel_bit_for_bit(split_cell, form):
    ens, _, bob = _dataset()
    plans = _plans()
    floor = 1.0 + PARAMS.electronic_noise
    bob[1] *= 0.5       # variance below the 1 + nu_el floor
    bob[2][:] = 0.0     # zero variance: below the floor too
    per_cell, per_channel = _statistics_inputs(bob, form)
    if form == "replicated":
        per_cell[3] = per_channel[3] = floor - 0.5e-6   # within the floor grace: g < 0
    elif form == "one-element":
        per_cell[3] = per_channel[3] = np.array([floor - 0.5e-6])
    else:
        # a mean above the floor with every sampled entry below it: g < 0;
        # both sides take this one as per-entry variances (sub-blocks of width 1)
        low = np.full(m, 50.0)
        low[plans[3].indices] = floor - 0.01
        per_cell[3] = per_channel[3] = low
    configs = _statistics_configs(ens)
    cell = fit_statistics(per_cell, plans, ens)
    single = [
        estimate_subchannel_statistics(v, PARAMS, m, p, omp=c, index=i)
        for i, (v, p, c) in enumerate(zip(per_channel, plans, configs))
    ]
    assert_identical(cell, single)
    if form == "one-element":
        # the same value as a scalar gives the same bits
        scalars = [float(v[0]) for v in per_cell]
        assert_identical(cell, fit_statistics(scalars, plans, ens))
    assert cell[1].flags == cell[2].flags == (FLAG_BELOW_FLOOR,)
    assert cell[3].flags == (FLAG_UNESTIMABLE,)
    assert all(e.flags == () for e in cell[4:] + cell[:1])
    for i in (0, 4, 5, 6):
        rows = plans[i].indices
        v = np.atleast_1d(per_channel[i])
        r_s = np.repeat(v, m // v.size)[rows] - floor
        delta = math.sqrt(rows.size) * configs[i].noise_scale
        reference = oracles.scalar_statistics_estimate(r_s, 4.0, 0.6, delta, shrink=True)
        assert_scalar_reference(cell[i], reference)


# ---------------------------------------------------------------------------
# low-SNR rows
# ---------------------------------------------------------------------------

#: low transmittances at rows 2, 4 and 6, where a multi-atom OMP fit missed
#: the DC column
LOW_SNR_T = (0.5, 0.2, 0.003, 0.9, 0.002, 0.35, 0.001)


def _low_snr_dataset(length=m, subchannels=None):
    ens = build_ensemble(LOW_SNR_T, excess_noise=0.02, block_length=length)
    ds = simulate_block(ens, PARAMS, seed=7, subchannels=subchannels)
    return ens, [x.copy() for x in ds.alice], [y.copy() for y in ds.bob]


def _flagged(estimates, flag):
    return {e.index for e in estimates if flag in e.flags}


@pytest.mark.parametrize("fraction", [FRACTION, 3 / m], ids=["sampled", "three-rows"])
@pytest.mark.parametrize("shrink", [False, True])
def test_variables_cell_matches_one_atom_reference(split_cell, shrink, fraction):
    # the low-SNR rows 2, 4 and 6, where a multi-atom OMP fit missed the DC
    # column, and 3 sampled rows, where it stopped on a rank-deficient
    # support: the variables fit is the one-atom DC projection of every row,
    # so only the zero Alice column is degenerate, and a row is unestimable
    # exactly where its scalar gain is <= 0
    _, alice, bob = _low_snr_dataset()
    plans = _plans(fraction=fraction)
    alice[1][:] = 0.0   # all-zero Alice block
    bob[5] = -bob[5]    # sign-flipped channel
    omp = OmpConfig(noise_scale=0.3, shrink_to_delta=True) if shrink else OmpConfig()
    cell = fit_variables(alice, bob, plans, omp)
    single = [
        estimate_subchannel_variables(x, y, p, PARAMS, omp=omp, index=i)
        for i, (x, y, p) in enumerate(zip(alice, bob, plans))
    ]
    assert_identical(cell, single)
    assert cell[1].flags == (FLAG_DEGENERATE, FLAG_UNESTIMABLE)
    assert cell[5].flags == (FLAG_UNESTIMABLE,)
    assert _flagged(cell, FLAG_DEGENERATE) == {1}
    delta = 1.1 * math.sqrt(plans[0].sample_count) * 0.3 if shrink else 0.0
    usable = []
    for i in (0, 2, 3, 4, 6):
        rows = plans[i].indices
        reference = oracles.scalar_variables_estimate(alice[i][rows], bob[i][rows], 0.6, 1.05, delta, shrink)
        if reference[0] is None:
            assert cell[i].flags == (FLAG_UNESTIMABLE,), i
            assert _bits(cell[i].residual_norm) == _bits(reference[2]), i
        else:
            assert cell[i].flags == (), i
            assert_scalar_reference(cell[i], reference)
            usable.append(i)
    assert 0 in usable


@pytest.mark.parametrize("fraction", [FRACTION, 3 / m], ids=["sampled", "three-rows"])
@pytest.mark.parametrize("shrink", [False, True])
@pytest.mark.parametrize("mode", ["replicated", "blockwise"])
def test_statistics_cell_matches_one_atom_reference(split_cell, mode, shrink, fraction):
    # the low-SNR rows, where a multi-atom OMP fit missed the DC column, and
    # 3 sampled rows, where it stopped on a rank-deficient support: the
    # statistics fit is the one-atom DC projection of every row, so no row
    # is degenerate
    ens, _, bob = _low_snr_dataset()
    plans = _plans(fraction=fraction)
    floor = 1.0 + PARAMS.electronic_noise
    bob[3] *= 0.5       # variance below the 1 + nu_el floor
    per_cell, per_channel = _statistics_inputs(bob, mode)
    configs = _statistics_configs(ens) if shrink else [OmpConfig()] * M
    cell = fit_statistics(per_cell, plans, ens if shrink else None)
    single = [
        estimate_subchannel_statistics(v, PARAMS, m, p, omp=c, index=i)
        for i, (v, p, c) in enumerate(zip(per_channel, plans, configs))
    ]
    assert_identical(cell, single)
    assert cell[3].flags == (FLAG_BELOW_FLOOR,)
    assert cell[0].flags == ()
    assert _flagged(cell, FLAG_DEGENERATE) == set()
    checked = [i for i, e in enumerate(cell) if not e.flags]
    assert 0 in checked
    for i in checked:
        rows = plans[i].indices
        r_s = np.broadcast_to(per_channel[i], m)[rows] - floor
        delta = math.sqrt(rows.size) * configs[i].noise_scale if shrink else 0.0
        reference = oracles.scalar_statistics_estimate(r_s, 4.0, 0.6, delta, shrink)
        assert_scalar_reference(cell[i], reference)


@pytest.mark.parametrize("mode", ["replicated", "blockwise"])
def test_statistics_fit_projects_every_row_and_solves_none(split_cell, mode, monkeypatch):
    # the statistics fit takes no atom budget: the DC projection sees every
    # row of the cell once, a row below the floor too, and OMP none
    ens, _, bob = _low_snr_dataset()
    plans = _plans()
    bob[3] *= 0.5       # below the floor
    per_cell, _ = _statistics_inputs(bob, mode)
    expected = fit_statistics(per_cell, plans, ens)
    projected, solved = [], []
    project = estimators._dc_project

    def spy_project(weights, measurement, *args):
        projected.extend(row.copy() for row in measurement)
        return project(weights, measurement, *args)

    monkeypatch.setattr(estimators, "_dc_project", spy_project)
    monkeypatch.setattr(estimators, "omp_solve", lambda *args, **kwargs: solved.append(args))
    cell = fit_statistics(per_cell, plans, ens)
    assert_identical(cell, expected)
    assert cell[3].flags == (FLAG_BELOW_FLOOR,)
    assert len(projected) == M and solved == []


def test_variables_fit_projects_every_row_and_solves_none(split_cell, monkeypatch):
    # the variables fit is one atom too: the DC projection sees every row of
    # the cell once, a zero Alice column (sub-channel 0) too, and OMP none;
    # each usable row is the scalar projection of its sampled pairs
    _, alice, bob = _low_snr_dataset()
    plans = _plans()
    alice[0][:] = 0.0
    omp = OmpConfig(noise_scale=0.3)
    expected = fit_variables(alice, bob, plans, omp)
    projected, solved = [], []
    project = estimators._dc_project

    def spy_project(weights, measurement, *args):
        projected.extend(row.copy() for row in measurement)
        return project(weights, measurement, *args)

    monkeypatch.setattr(estimators, "_dc_project", spy_project)
    monkeypatch.setattr(estimators, "omp_solve", lambda *args, **kwargs: solved.append(args))
    cell = fit_variables(alice, bob, plans, omp)
    assert_identical(cell, expected)
    assert cell[0].flags == (FLAG_DEGENERATE, FLAG_UNESTIMABLE)
    assert len(projected) == M and solved == []
    checked = [i for i, e in enumerate(cell) if not e.flags]
    assert 3 in checked
    delta = 1.1 * math.sqrt(plans[0].sample_count) * 0.3
    for i in checked:
        rows = plans[i].indices
        reference = oracles.scalar_variables_estimate(alice[i][rows], bob[i][rows], 0.6, 1.05, delta)
        assert_scalar_reference(cell[i], reference)


@pytest.mark.parametrize("mode", ["replicated", "blockwise"])
def test_statistics_plans_of_two_lengths(split_cell, mode):
    # blocks of 400 and 200 sampled at 120 rows each, the first four
    # sub-channels from an ensemble of length 400 and the last three from
    # one of length 200, fitted as a cell per length and joined: each row
    # gathers its variances at its own block length
    lengths = [m] * 4 + [m // 2] * 3
    ens, _, bob = _low_snr_dataset(m, range(0, 4))
    bob += _low_snr_dataset(m // 2, range(4, M))[2]
    plans = [make_sampling_plan(n, 120 / n, seed=5 + i) for i, n in enumerate(lengths)]
    assert {p.sample_count for p in plans} == {120}
    per_cell, per_channel = _statistics_inputs(bob, mode)
    cell = fit_statistics(per_cell, plans, ens)
    single = [
        estimate_subchannel_statistics(v, PARAMS, n, p, omp=c, index=i)
        for i, (v, n, p, c) in enumerate(zip(per_channel, lengths, plans, _statistics_configs(ens)))
    ]
    assert_identical(cell, single)
    assert any(e.usable for e in cell)


@pytest.mark.parametrize(
    ("route", "setting"),
    [("variables", 1), ("variables", "shrink"), ("statistics", "blockwise"), ("statistics", "replicated")],
)
def test_cell_records_are_the_core_columns(split_cell, route, setting):
    # row i of the cell fit's columns is the record of sub-channel i that the
    # per-sub-channel estimator builds from its one-channel fit; the setting
    # is the variables route's one atom, bare (1) or with shrink_to_delta,
    # and the statistics route's variance form
    ens, alice, bob = _low_snr_dataset()
    plans = _plans()
    if route == "variables":
        alice[1][:] = 0.0   # degenerate and unestimable
        shrink = setting == "shrink"
        omp = OmpConfig(noise_scale=0.3, shrink_to_delta=shrink)
        fit = estimators._fit_variables(*_cell(alice, bob, plans), PARAMS, 0.3, shrink)
        cell = [
            estimate_subchannel_variables(x, y, p, PARAMS, omp, index=i)
            for i, (x, y, p) in enumerate(zip(alice, bob, plans))
        ]
    else:
        bob[3] *= 0.5       # below the floor
        per_cell, _ = _statistics_inputs(bob, setting)
        fit = estimators._fit_statistics(
            _variances(per_cell), PARAMS, m, estimators._plan_rows(plans), _noise_scale(ens), True
        )
        cell = [
            estimate_subchannel_statistics(v, PARAMS, m, p, c, index=i)
            for i, (v, p, c) in enumerate(zip(per_cell, plans, _statistics_configs(ens)))
        ]
    for column, field in (("t_hat", "t_hat"), ("eps_hat", "eps_hat"), ("residual", "residual_norm")):
        assert getattr(fit, column).tobytes() == np.array([getattr(e, field) for e in cell]).tobytes(), column
    assert fit.sample_count.tolist() == [e.sample_count for e in cell]
    assert fit.flags == [";".join(e.flags) for e in cell]
    assert fit.usable.dtype == bool and fit.usable.tolist() == [e.usable for e in cell]
    assert not fit.usable.all() and fit.usable.any()
    # the key-rate aggregate reads the columns as it reads the records
    p = np.linspace(1.0, 2.0, M) / np.linspace(1.0, 2.0, M).sum()
    assert estimators.aggregate_estimates(fit, p) == estimators.aggregate_estimates(cell, p)


@pytest.mark.parametrize("groups", [[(0, 7)], [(0, 2), (2, 3), (3, 7)], [(i, i + 1) for i in range(M)]])
@pytest.mark.parametrize(
    ("route", "setting"),
    [("variables", 1), ("variables", "shrink"), ("statistics", "blockwise"), ("statistics", "replicated")],
)
def test_row_passes_over_groups_finish_as_one_fit(split_cell, route, setting, groups):
    # the sweep fits a cell one group of sub-channels at a time and joins
    # the group fits in order; the columns are the one-fit bits
    ens, alice, bob = _low_snr_dataset()
    plans = _plans()
    if route == "variables":
        alice[1][:] = 0.0
        shrink = setting == "shrink"

        def fit(a, b):
            return estimators._fit_variables(*_cell(alice[a:b], bob[a:b], plans[a:b]), PARAMS, 0.3, shrink)
    else:
        bob[3] *= 0.5
        per_cell, _ = _statistics_inputs(bob, setting)
        noise_scale = _noise_scale(ens)

        def fit(a, b):
            return estimators._fit_statistics(
                _variances(per_cell[a:b]), PARAMS, m, estimators._plan_rows(plans[a:b]), noise_scale[a:b], True
            )
    whole = fit(0, M)
    split = harness._joined([fit(a, b) for a, b in groups])
    for column in ("t_hat", "eps_hat", "residual", "sample_count", "usable"):
        assert getattr(split, column).tobytes() == getattr(whole, column).tobytes(), column
    assert split.flags == whole.flags
    assert not whole.usable.all() and whole.usable.any()


def test_work_area_has_a_mapping_of_its_own():
    # two writable float rows of a cell's size, held in an anonymous mapping
    # rather than on the malloc heap, where the place the sweep's area took
    # moved the process's peak RSS by the area's size from run to run
    work = estimators._work_area(3 * 5)
    assert work.shape == (2, 15) and work.dtype == np.float64
    assert work.flags.c_contiguous and work.flags.writeable
    owner = work
    while isinstance(owner, (np.ndarray, memoryview)):
        owner = owner.base if isinstance(owner, np.ndarray) else owner.obj
    assert isinstance(owner, mmap.mmap)
    assert work.ctypes.data % mmap.PAGESIZE == 0


@pytest.mark.parametrize("inputs", ["variables", "variables-shrink", "replicated", "blockwise"])
def test_reused_work_area_gives_the_per_channel_bits(split_cell, inputs):
    # cells of three sample counts fitted one after another in one work area,
    # NaN-filled before the first: no row of the fill or of an earlier cell
    # leaks into a fit, after an earlier cell formed its residuals in the
    # area.  The variables fits run bare or with shrink_to_delta; the
    # statistics fits run each but the first after a variables cell, as in a
    # sweep of both estimators.
    # The per-sub-channel estimates, cells of one row, are the reference.
    # The area holds the largest cell exactly (fraction 0.6), as the sweep's does
    ens, alice, bob = _low_snr_dataset()
    omp = OmpConfig(noise_scale=0.3, shrink_to_delta=inputs == "variables-shrink")
    variables = inputs.startswith("variables")
    if variables:
        alice[1][:] = 0.0   # a zero column
    else:
        bob[3] *= 0.5       # below the floor
        measured, _ = _statistics_inputs(bob, inputs)
    work = estimators._work_area(M * _plans(fraction=0.6)[0].sample_count)
    work.fill(np.nan)
    for c_idx, fraction in enumerate((0.3, 0.6, 0.1)):
        plans = _plans(fraction=fraction)
        if variables:
            cell = fit_variables(alice, bob, plans, omp, work=work)
            single = [
                estimate_subchannel_variables(alice[i], bob[i], plans[i], PARAMS, omp, index=i)
                for i in range(M)
            ]
        else:
            if c_idx:
                fit_variables(alice, bob, plans, omp, work=work)
            cell = fit_statistics(measured, plans, ens, work=work)
            single = [
                estimate_subchannel_statistics(measured[i], PARAMS, m, plans[i], c, index=i)
                for i, c in enumerate(_statistics_configs(ens))
            ]
        assert_identical(cell, single)
        assert any(e.usable for e in cell) and not all(e.usable for e in cell)
    # the fraction-0.6 cell, or its largest run, gathered into the first row
    # as far as it reaches: the whole area when the cell is fitted whole
    reach = (split_cell or M) * _plans(fraction=0.6)[0].sample_count
    assert not np.isnan(work[0, :reach]).any()


@pytest.mark.parametrize("gain", [14.530216986498635, 8.415343471753795e-05, 0.00105462862336806])
def test_transmittance_squares_the_gain_with_python_float_power(gain):
    # g**2 of a Python float (libm pow) and numpy's square can differ in the
    # last bit; the fits keep the scalar form, so outputs keep their bytes
    params = ProtocolParams(detector_efficiency=1.0, electronic_noise=0.0)
    x, y = np.ones(2), np.full(2, gain)
    plan = make_sampling_plan(2, 1.0, seed=0)
    (est,) = fit_variables([x], [y], [plan], params=params)
    assert _bits(est.t_hat) == _bits(gain**2)


def test_groups_fit_the_byte_budget():
    # consecutive ranges over every sub-channel; a group's (x, y) blocks fit
    # GROUP_BYTES, and only a block larger than that is a group of its own
    budget = harness.GROUP_BYTES
    for count, n in ((50, 10_000), (20, 2000), (3, budget // 16), (4, budget // 16 + 1), (2, budget), (5, 7), (1, 64)):
        groups = harness._groups(count, n)
        assert [i for g in groups for i in g] == list(range(count))
        for g in groups:
            assert g.step == 1
            assert 16 * n * len(g) <= budget or len(g) == 1
        for g in groups[:-1]:
            assert 16 * n * (len(g) + 1) > budget
    assert [len(g) for g in harness._groups(50, 10_000)] == [13, 13, 13, 11]
    assert len(harness._groups(20, 2000)) == 1


def test_cell_rejects_mixed_inputs():
    # the plans of a cell share one sample count and lie in their block, and
    # the sweep's validator takes sub-block variances only in a count that
    # divides the block
    _, alice, bob = _dataset()
    plans = _plans()[:-1] + [make_sampling_plan(m, 0.5, seed=1)]
    with pytest.raises(ValueError, match="share one sample count"):
        fit_variables(alice, bob, plans)
    with pytest.raises(ValueError, match="share one sample count"):
        fit_statistics([4.0] * M, plans)
    for indices in ([0, m], [-1, 3]):
        outside = sensing.SamplingPlan(length=m, indices=np.array(indices))
        with pytest.raises(ValueError, match=r"^plan indices must lie in 0\.\.length-1$"):
            estimate_subchannel_variables(alice[0], bob[0], outside, PARAMS)
        with pytest.raises(ValueError, match=r"^plan indices must lie in 0\.\.length-1$"):
            estimate_subchannel_statistics(4.0, PARAMS, m, outside)
    with pytest.raises(ValueError, match=r"^measured\[2\] must be a scalar .* divides the block length"):
        estimators._statistics_input(np.ones(7), m, "measured[2]")


def test_zero_weights_are_degenerate_whatever_delta():
    # a zero column is degenerate even when delta already covers ||y||
    y = np.array([0.1, -0.1, 0.05])
    fit = dc_project(np.stack([np.zeros(3), np.ones(3)]), np.stack([y, y]), delta=1.0)
    assert fit.gain.tolist() == [0.0, 0.0]
    assert fit.residual_norm.tolist() == [float(np.linalg.norm(y))] * 2
    assert fit.degenerate.tolist() == [True, False]


# ---------------------------------------------------------------------------
# non-finite inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_variables_reject_non_finite_blocks(bad):
    _, alice, bob = _dataset()
    plan = _plans()[0]
    for name, x, y in (
        ("x_block", np.where(np.arange(m) == 7, bad, alice[0]), bob[0]),
        ("y_block", alice[0], np.where(np.arange(m) == 7, bad, bob[0])),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            estimate_subchannel_variables(x, y, plan, PARAMS)


def _poisoned_sweep(monkeypatch, estimators_, variance_mode, poison):
    """A one-cell sweep of the M sub-channels whose simulated blocks
    ``poison(alice, bob)`` edits before the sweep validates them."""
    simulate = harness.simulate_block

    def poisoned(*args, **kwargs):
        dataset = simulate(*args, **kwargs)
        poison(dataset.alice, dataset.bob)
        return dataset

    monkeypatch.setattr(harness, "simulate_block", poisoned)
    config = harness.ExperimentConfig(
        distances_km=(5.0,), subchannels=M, block_length=m, fractions=(FRACTION,), seeds=(1,),
        estimators=estimators_, variance_mode=variance_mode, variance_blocks=20,
    )
    return lambda: harness.run_sweep(config)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cell_variables_reject_non_finite_blocks(bad, monkeypatch):
    # the sweep validates a group's blocks before it fits them, naming the
    # sub-channel's block
    sweep = _poisoned_sweep(monkeypatch, "variables", "replicated", lambda a, b: b[4].__setitem__(11, bad))
    with pytest.raises(ValueError, match=r"^y_blocks\[4\] must be finite"):
        sweep()
    sweep = _poisoned_sweep(monkeypatch, "variables", "replicated", lambda a, b: a[2].__setitem__(0, bad))
    with pytest.raises(ValueError, match=r"^x_blocks\[2\] must be finite"):
        sweep()


@pytest.mark.parametrize("route", ["variables", "statistics"])
def test_squares_that_overflow_raise_the_documented_error(route, monkeypatch):
    # finite entries whose sum of squares overflows are rejected with the
    # ValueError that names the argument, under the suite's warnings-as-errors
    # filter too, rather than with numpy's overflow RuntimeWarning
    plan = make_sampling_plan(8, 0.5, seed=1)
    with pytest.raises(ValueError, match="^y must be finite, with a finite sum of squares$"):
        estimators._require_finite("y", np.full(4, 1e200))
    if route == "variables":
        with pytest.raises(ValueError, match="^y_block must be finite"):
            estimate_subchannel_variables(np.ones(8), np.full(8, 1e200), plan, PARAMS)
        expected = r"^y_blocks\[4\] must be finite"
    else:
        with pytest.raises(ValueError, match="^measured must be finite"):
            estimate_subchannel_statistics(np.full(8, 1e200), PARAMS, 8, plan)
        # the sweep's replicated variances, y.y / m of each row of a group's plane
        expected = r"^measured\[4\] must be finite"
    sweep = _poisoned_sweep(monkeypatch, route, "replicated", lambda a, b: b[4].__setitem__(slice(None), 1e200))
    with pytest.raises(ValueError, match=expected):
        sweep()


def test_sub_block_variances_that_overflow_raise_the_documented_error(monkeypatch):
    # finite entries whose squares overflow give infinite sub-block
    # variances, which the statistics input rejects with its ValueError,
    # rather than with numpy's overflow RuntimeWarning
    with pytest.raises(ValueError, match="^measured must be finite"):
        estimators._statistics_input(subblock_variances(np.full(8, 1e200), 2), 8)
    # the sweep's blockwise variances, the sub-blocks of each row of a group's plane
    sweep = _poisoned_sweep(monkeypatch, "statistics", "blockwise", lambda a, b: b[4].__setitem__(slice(None), 1e200))
    with pytest.raises(ValueError, match=r"^measured\[4\] must be finite"):
        sweep()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_statistics_reject_non_finite_variances(bad, monkeypatch):
    plan = make_sampling_plan(m, 0.5, seed=1)
    with pytest.raises(ValueError, match="^measured must be finite"):
        estimate_subchannel_statistics(bad, PARAMS, m, plan)
    vector = np.full(m, 3.0)
    vector[9] = bad
    with pytest.raises(ValueError, match="^measured must be finite"):
        estimate_subchannel_statistics(vector, PARAMS, m, plan)
    # the sweep validates a group's measured variances before it fits them
    sweep = _poisoned_sweep(monkeypatch, "statistics", "replicated", lambda a, b: b[5].__setitem__(9, bad))
    with pytest.raises(ValueError, match=r"^measured\[5\] must be finite"):
        sweep()
    sweep = _poisoned_sweep(monkeypatch, "statistics", "blockwise", lambda a, b: b[0].__setitem__(3, bad))
    with pytest.raises(ValueError, match=r"^measured\[0\] must be finite"):
        sweep()
