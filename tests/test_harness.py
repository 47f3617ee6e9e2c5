"""Config ingestion, sweep reporting, CSV schemas, and the CLI."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from csqkd.channel import ensemble_means
from csqkd.cli import main as cli_main
from csqkd.harness import (
    ExperimentConfig,
    compute_mse,
    config_hash,
    load_config,
    preset_config,
    run_sweep,
    write_config,
    write_reports,
    _ensemble_for,
)
from csqkd.security import secret_key_rate, summary_from_means

GOLDEN = Path(__file__).resolve().parents[1] / "configs" / "golden.cfg"

FAST = dataclasses.replace(
    preset_config("desk"),
    subchannels=5,
    block_length=512,
    seeds=(1, 2),
    fractions=(0.25, 1.0),
    distances_km=(2.0,),
)


# ---------------------------------------------------------------------------
# MSE
# ---------------------------------------------------------------------------

def test_mse_zero_on_equal():
    assert compute_mse([0.1, 0.2], [0.1, 0.2]) == 0.0


def test_mse_single_term():
    assert compute_mse([0.5], [0.4]) == pytest.approx(0.01, abs=1e-15)


def test_mse_matches_summation_oracle():
    rng = np.random.default_rng(5)
    a = rng.uniform(0, 1, 100)
    b = rng.uniform(0, 1, 100)
    oracle = math.fsum((x - y) ** 2 for x, y in zip(reversed(a), reversed(b))) / 100
    assert compute_mse(a, b) == pytest.approx(oracle, rel=1e-15)


def test_mse_rejects_mismatch():
    with pytest.raises(ValueError):
        compute_mse([0.1], [0.1, 0.2])


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def test_minimal_config_applies_defaults(tmp_path):
    ens = tmp_path / "ens.csv"
    ens.write_text("index,T\n0,0.5\n1,0.7\n")
    cfg_file = tmp_path / "min.cfg"
    cfg_file.write_text(f"[ensemble]\nsource = file\nfile = {ens.name}\n")
    config = load_config(cfg_file)
    assert config.source == "file"
    assert Path(config.ensemble_file) == ens
    defaults = ExperimentConfig()
    assert config.fractions == defaults.fractions
    assert config.modulation_variance == defaults.modulation_variance


def test_unknown_keys_rejected(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("[ensemble]\nsource = sampler\nwavelength = 1550\n[turbo]\nmode = on\n")
    with pytest.raises(ValueError) as err:
        load_config(cfg_file)
    assert "ensemble.wavelength" in str(err.value)
    assert "turbo.mode" in str(err.value)


def test_bad_fraction_named(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("[estimation]\nfractions = 0.5,1.5\n")
    with pytest.raises(ValueError, match="estimation.fractions"):
        load_config(cfg_file)


def test_missing_ensemble_file_rejected(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("[ensemble]\nsource = file\nfile = nowhere.csv\n")
    with pytest.raises(ValueError, match="does not exist"):
        load_config(cfg_file)


def test_config_round_trip(tmp_path):
    config = dataclasses.replace(FAST, detections=("homodyne",), estimators="statistics")
    path = tmp_path / "rt.cfg"
    write_config(config, path)
    assert load_config(path) == config


def test_empty_sampler_distances_rejected():
    with pytest.raises(ValueError, match="distances_km"):
        dataclasses.replace(FAST, distances_km=())


def test_empty_fractions_rejected(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("[estimation]\nfractions =\n")
    with pytest.raises(ValueError, match="estimation.fractions"):
        load_config(cfg_file)


@pytest.mark.parametrize(
    "field, values",
    [("distances_km", (2.0, 2.0)), ("fractions", (0.25, 1.0, 0.25)), ("seeds", (1, 2, 1))],
)
def test_duplicate_grid_entries_rejected(field, values):
    with pytest.raises(ValueError, match="repeat"):
        dataclasses.replace(FAST, **{field: values})


def test_negative_excess_noise_rejected():
    with pytest.raises(ValueError, match="excess_noise"):
        dataclasses.replace(FAST, excess_noise=-0.01)


@pytest.mark.parametrize("blocks", [0, 3, 512])
def test_bad_variance_blocks_rejected(blocks):
    # block_length = 512: 3 does not divide it, 512 leaves 1 sample per block
    with pytest.raises(ValueError, match="variance_blocks"):
        dataclasses.replace(FAST, variance_mode="blockwise", variance_blocks=blocks)
    # replicated mode never reads variance_blocks
    assert dataclasses.replace(FAST, variance_blocks=blocks).variance_blocks == blocks


def test_preset_validation():
    assert preset_config("desk").subchannels == 20
    assert preset_config("paper").block_length == 10_000
    with pytest.raises(ValueError):
        preset_config("galactic")


# ---------------------------------------------------------------------------
# sweep reports
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fast_report():
    return run_sweep(FAST)


def test_report_completeness(fast_report):
    seen = set()
    for row in fast_report.estimate_rows:
        key = (row.distance, row.subchannel, row.fraction, row.seed, row.estimator)
        assert key not in seen
        seen.add(key)
    expected = 1 * 5 * 2 * 2 * 2  # distances x channels x fractions x seeds x estimators
    assert len(seen) == expected


def test_keyrate_true_rows_match_direct_call(fast_report):
    ensemble = _ensemble_for(FAST, 0)
    t_mean, sqrt_t_mean, eps_mean = ensemble_means(ensemble)
    summary = summary_from_means(t_mean, sqrt_t_mean, eps_mean)
    for row in fast_report.keyrate_rows:
        if row.source != "true":
            continue
        params = dataclasses.replace(FAST.protocol, detection=row.detection)
        direct = secret_key_rate(summary, params)
        assert row.k == pytest.approx(direct.key_rate, abs=1e-12)
        assert row.i_ab == pytest.approx(direct.i_ab, abs=1e-12)
        assert row.chi_be == pytest.approx(direct.chi_be, abs=1e-12)


def test_statistics_sampling_insensitive_end_to_end(fast_report):
    # replicated-mode statistics rows are identical across fractions
    by_key = {}
    for row in fast_report.estimate_rows:
        if row.estimator != "statistics":
            continue
        by_key.setdefault((row.subchannel, row.seed), {})[row.fraction] = row.t_hat
    assert by_key
    for values in by_key.values():
        assert abs(values[0.25] - values[1.0]) <= 1e-12


def test_mip_rows_structure(fast_report):
    assert len(fast_report.mip_rows) == 1 * 5 * 2 * 2
    for row in fast_report.mip_rows:
        assert row.model in ("variables", "statistics")
        assert row.mip >= 0.0
        assert row.subsampled is False


def test_variable_mse_fraction_band():
    config = dataclasses.replace(
        preset_config("desk"),
        distances_km=(2.0,),
        fractions=(0.4, 1.0),
        seeds=tuple(range(1, 11)),
        estimators="variables",
        detections=("homodyne",),
    )
    report = run_sweep(config)
    mse = {row.fraction: row.mse_t for row in report.mse_rows}
    assert mse[0.4] <= 3.0 * mse[1.0]
    # desk-scale blocks (m = 2000); the experiment-scale bound lives in acceptance
    assert mse[1.0] < 2e-3 and mse[0.4] < 5e-3


def test_written_files_and_headers(tmp_path, fast_report):
    files = write_reports(fast_report, tmp_path)
    assert files["estimates"].read_text().splitlines()[0] == (
        "distance,subchannel,fraction,seed,estimator,T_true,T_hat,eps_true,eps_hat,residual,flags"
    )
    assert files["mse"].read_text().splitlines()[0] == "distance,fraction,estimator,seeds,MSE_T,MSE_eps"
    assert files["keyrate"].read_text().splitlines()[0] == "distance,detection,source,I_AB,chi_BE,K"
    assert files["mip"].read_text().splitlines()[0] == "distance,subchannel,fraction,model,mip,subsampled"
    assert files["manifest"].exists()


def test_golden_config_runs_deterministically(tmp_path):
    config = dataclasses.replace(load_config(GOLDEN), out_dir=str(tmp_path / "a"))
    first = write_reports(run_sweep(config), config.out_dir)
    second = write_reports(run_sweep(config), tmp_path / "b")
    for name in ("estimates", "mse", "keyrate", "mip"):
        assert first[name].read_bytes() == second[name].read_bytes()


def test_config_hash_stable():
    assert config_hash(FAST) == config_hash(dataclasses.replace(FAST))
    assert config_hash(FAST) != config_hash(dataclasses.replace(FAST, sampler_seed=8))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_sweep_and_simulate(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli_main(["sweep", "--config", str(GOLDEN), "--out", str(out)])
    assert rc == 0
    for name in ("estimates.csv", "mse.csv", "keyrate.csv", "mip.csv", "run.json"):
        assert (out / name).exists()
    rc = cli_main(["simulate", "--config", str(GOLDEN), "--out", str(tmp_path / "sim"), "--seed", "4"])
    assert rc == 0
    assert (tmp_path / "sim" / "dataset_2km.csv").exists()
    capsys.readouterr()


def test_cli_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[estimation]\nfractions = 2.0\n")
    rc = cli_main(["estimate", "--config", str(bad)])
    assert rc == 2
    assert "fractions" in capsys.readouterr().err
