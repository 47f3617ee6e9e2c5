"""Config ingestion, sweep reporting, CSV schemas, and the CLI."""

import collections
import dataclasses
import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
import weakref
from pathlib import Path
from typing import get_origin

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from csqkd import estimators, harness
from csqkd.channel import DETECTIONS, QuadratureDataset, SubChannelEnsemble, build_ensemble, ensemble_means
from csqkd.cli import main as cli_main
from csqkd.harness import (
    DistanceEstimates,
    EstimateRow,
    ExperimentConfig,
    KeyrateRow,
    MipRow,
    MseRow,
    compute_mse,
    config_hash,
    load_config,
    preset_config,
    run_sweep,
    write_config,
    write_reports,
    _KEYS,
    _SECTIONS,
    _ensemble_for,
    _write_csv,
    _write_estimates,
)
from csqkd.security import secret_key_rate, summary_from_means
from csqkd.sensing import OmpConfig, RowSampledIdftOperator, mutual_incoherence

import oracles

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "configs" / "golden.cfg"

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


def _readme_config_example() -> str:
    return (ROOT / "README.md").read_text().split("```ini\n", 1)[1].split("```", 1)[0]


def test_readme_config_example_loads(tmp_path):
    # the documented example must load as written, comments included
    block = _readme_config_example()
    cfg_file = tmp_path / "readme.cfg"
    cfg_file.write_text(block)
    config = load_config(cfg_file)
    assert config.source == "sampler"
    assert config.estimators == "both"
    assert config.variance_mode == "replicated"
    assert config.distances_km == (5.0, 10.0)


def test_readme_config_example_names_every_key():
    # as a `key =` line of its section, or inside a `;` comment there; a
    # key with choices has a `; key:` comment there that names every choice
    parts = re.split(r"^\[(\w+)\]\n", _readme_config_example(), flags=re.M)
    sections = dict(zip(parts[1::2], parts[2::2]))
    for key in _KEYS.values():
        section = sections.get(key.section, "")
        assert re.search(rf"^(;.*\W)?{key.name} =", section, re.M), str(key)
        if key.choices is not None:
            comment = re.search(rf"^; {key.name}:(.*)$", section, re.M)
            assert comment, str(key)
            named = set(re.findall(r"\w+", comment[1]))
            assert set(key.choices) <= named, (str(key), comment[0])


def test_config_keys_are_declared_once_per_field():
    # like each table's columns on its row type: one (section, key) a field,
    # no two fields sharing one, under the sections in their write order
    assert list(_KEYS) == [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert len({(key.section, key.name) for key in _KEYS.values()}) == len(_KEYS)
    assert sorted({key.section for key in _KEYS.values()}, key=_SECTIONS.index) == list(_SECTIONS)
    declared = [(key.section, key.name) for section in _SECTIONS for key in _KEYS.values() if key.section == section]
    for config in (ExperimentConfig(), ExperimentConfig(ensemble_file="ens.csv")):
        written, section = [], None
        for line in write_config(config).splitlines():
            if line.startswith("["):
                section = line[1:-1]
            elif line:
                written.append((section, line.split(" = ", 1)[0]))
        # an unset file is not written
        assert written == [k for k in declared if config.ensemble_file or k != ("ensemble", "file")]
        assert re.findall(r"^\[(\w+)\]$", write_config(config), re.M) == list(_SECTIONS)


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


def test_unreadable_ensemble_file_name_rejected(tmp_path):
    # a name the file system refuses to look up is a config error too
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"[ensemble]\nsource = file\nfile = {'x' * 300}.csv\n")
    with pytest.raises(ValueError, match="does not exist"):
        load_config(cfg_file)


def _floats(*args, **kwargs):
    """Floats of ``st.floats(*args, **kwargs)``, some as ``np.float64``."""
    values = st.floats(*args, **kwargs)
    return st.one_of(values, values.map(np.float64))


_NON_NEGATIVE = _floats(0.0, 1e6)
_UNIT = _floats(0.0, 1.0, exclude_min=True)


@st.composite
def sampler_configs(draw):
    """Valid sampler-source configs over every schema key."""
    variance_mode = draw(st.sampled_from(("replicated", "blockwise")))
    variance_blocks = draw(st.integers(1, 64))
    sub_block = draw(st.integers(2, 64))
    if variance_mode == "blockwise":
        block_length = variance_blocks * sub_block
    else:
        block_length = draw(st.integers(2, 10_000))
    distances = draw(st.lists(_NON_NEGATIVE, min_size=1, max_size=4, unique=True))
    return ExperimentConfig(
        source="sampler",
        distances_km=tuple(distances),
        subchannels=draw(st.integers(1, 500)),
        block_length=block_length,
        excess_noise=draw(_NON_NEGATIVE),
        sampler_seed=draw(st.integers(0, 2**63 - 1)),
        # exp(-attenuation_per_km * d) must not underflow to 0
        attenuation_per_km=draw(_floats(0.0, 700.0 / max(1.0, *distances))),
        sigma_log=draw(_NON_NEGATIVE),
        fractions=tuple(draw(st.lists(_UNIT, min_size=1, max_size=4, unique=True))),
        seeds=tuple(draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4, unique=True))),
        estimators=draw(st.sampled_from(("variables", "statistics", "both"))),
        variance_mode=variance_mode,
        variance_blocks=variance_blocks,
        modulation_variance=draw(_floats(1e-6, 1e6)),
        detector_efficiency=draw(_UNIT),
        electronic_noise=draw(_NON_NEGATIVE),
        reconciliation_efficiency=draw(_UNIT),
        detections=tuple(draw(st.lists(st.sampled_from(DETECTIONS), min_size=1, unique=True))),
        out_dir=draw(st.text("abcXYZ019_-./", min_size=1, max_size=20)),
    )


@settings(max_examples=100, deadline=None)
@given(config=sampler_configs())
@example(config=dataclasses.replace(FAST, detections=("homodyne",), estimators="statistics"))
# numpy floats are written in the digits of their value, not as np.float64(...)
@example(config=dataclasses.replace(FAST, excess_noise=np.float64(0.02), fractions=(np.float64(0.5),)))
def test_config_round_trip(tmp_path_factory, config):
    path = tmp_path_factory.getbasetemp() / "rt.cfg"
    write_config(config, path)
    assert load_config(path) == config


@pytest.mark.parametrize("field", sorted(key.field for key in _KEYS.values() if key.item is float))
def test_numpy_float_keys_are_written_in_the_digits_of_their_value(tmp_path, field):
    # numpy 2's repr of np.float64(0.1) is np.float64(0.1), which load_config
    # refuses; each float key is written by float.__repr__ and loads back as
    # a Python float of the same value
    key = _KEYS[field]
    many = get_origin(key.kind) is tuple
    value = np.float64(0.1)
    config = dataclasses.replace(FAST, **{field: (value,) if many else value})
    path = tmp_path / "numpy.cfg"
    write_config(config, path)
    assert re.search(rf"^{key.name} = 0\.1$", path.read_text(), re.MULTILINE)
    loaded = load_config(path)
    assert loaded == config
    written = getattr(loaded, field)
    assert type(written[0] if many else written) is float


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
    [
        ("distances_km", (2.0, 2.0)),
        ("fractions", (0.25, 1.0, 0.25)),
        ("seeds", (1, 2, 1)),
        ("detections", ("homodyne", "homodyne")),
    ],
)
def test_duplicate_grid_entries_rejected(field, values):
    with pytest.raises(ValueError, match="repeat"):
        dataclasses.replace(FAST, **{field: values})


def test_declared_config_rules_are_enforced():
    # walked from the declarations on the fields: each value that breaks a
    # declared rule is rejected by a message that starts with the key's
    # section.key and names the value
    broken = set()
    for key in _KEYS.values():
        many = get_origin(key.kind) is tuple
        cases = []
        if key.choices is not None:
            cases.append(("choices", "nonesuch"))
        if key.least is not None:
            cases.append(("least", key.least - 1))
        if key.item is float:
            cases.extend(("float", v) for v in (math.nan, math.inf, -math.inf))
            # no write_config text of these loads back: np.float32(0.1) is
            # written as 0.1, which loads as another value
            cases.extend(("real", v) for v in ("0.1", None, True, np.float32(0.1)))
            # an integer is a float's value
            assert dataclasses.replace(FAST, **{key.field: (1,) if many else 1})
        if many:
            cases.append(("repeat", getattr(FAST, key.field)[0]))
        for rule, entry in cases:
            value = (entry, entry) if rule == "repeat" else (entry,) if many else entry
            with pytest.raises(ValueError) as caught:
                dataclasses.replace(FAST, **{key.field: value})
            message = str(caught.value)
            assert re.match(rf"{re.escape(str(key))}\b", message), (rule, message)
            assert str(entry) in message, (rule, message)
            broken.add(rule)
    # every kind of rule is declared on some key
    assert broken == {"choices", "least", "float", "real", "repeat"}


@pytest.mark.parametrize(
    "field, value",
    [
        ("fractions", 0.5), ("seeds", 3), ("distances_km", [1.0, 2.0]), ("detections", "homodyne"),
        ("fractions", [0.5]), ("seeds", [1, 2]), ("distances_km", 2.0), ("detections", ["homodyne"]),
    ],
)
def test_tuple_config_keys_require_a_tuple(field, value):
    # the repeat check, the entries' rules and the config hash read a tuple:
    # each tuple key refuses a scalar and a list
    key = _KEYS[field]
    with pytest.raises(ValueError, match=rf"^{re.escape(str(key))} must be a tuple, got {re.escape(repr(value))}$"):
        dataclasses.replace(FAST, **{field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        ("detections", ()),
        ("distances_km", (2.0, -1.0)),
        ("attenuation_per_km", -0.15),
        ("sigma_log", -0.3),
    ],
)
def test_empty_or_negative_grid_keys_rejected(field, value):
    # otherwise each passes loading and then writes a header-only CSV or
    # fails in the middle of the sweep
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(FAST, **{field: value})


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


@pytest.mark.parametrize(
    "field, value, key",
    [
        ("block_length", 100.5, "ensemble.block_length"),
        ("subchannels", 5.0, "ensemble.subchannels"),
        ("subchannels", "5", "ensemble.subchannels"),
        ("variance_blocks", 4.0, "estimation.variance_blocks"),
        ("sampler_seed", 7.5, "ensemble.sampler_seed"),
        ("seeds", (1, 2.5), "estimation.seeds entries"),
    ],
)
def test_non_integer_config_keys_rejected(field, value, key):
    # block_length = 100.5 ran as 100 while run.json recorded 100.5
    with pytest.raises(ValueError, match=rf"^{re.escape(key)} must be an integer, got "):
        dataclasses.replace(FAST, **{field: value})
    # a numpy integer is an integer
    three = (np.int64(3),) if field == "seeds" else np.int64(3)
    assert getattr(dataclasses.replace(FAST, **{field: three}), field) == three


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ExperimentConfig(seeds=(True, 2)), "estimation.seeds entries must be an integer, got True"),
        (lambda: OmpConfig(k_max=True), "k_max must be an integer >= 1, got True"),
        (lambda: build_ensemble([0.5], block_length=True), "block_length must be an integer >= 1, got True"),
    ],
    ids=["config-seeds", "omp-k_max", "ensemble-block_length"],
)
def test_bool_is_not_an_integer(build, message):
    # a bool is a numbers.Integral, and a config holding one was written as
    # `seeds = True,2`, which load_config then rejected
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        build()


_VALUES = st.one_of(
    st.text(max_size=12),
    st.sampled_from(("-1", "0", "nan", "inf", "-inf", "1e400", "0.5,0.5", "1,,2", "sampler",
                     "file", "both", "blockwise", "homodyne")),
    st.integers(-(2**70), 2**70).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_LINES = st.one_of(
    st.sampled_from(sorted(_SECTIONS)).map(lambda name: f"[{name}]"),
    st.text(max_size=10).map(lambda name: f"[{name}]"),
    st.tuples(
        # the declared keys and the retired estimation.k_max
        st.sampled_from(sorted({key.name for key in _KEYS.values()} | {"k_max"})),
        st.sampled_from(("=", ":", " = ", "")),
        _VALUES,
    ).map("".join),
    st.text(max_size=20),
    st.sampled_from(("", "# comment", "; comment", "  continued")),
)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.text(), st.lists(_LINES, max_size=12).map("\n".join)))
def test_load_config_fuzz_returns_config_or_value_error(tmp_path_factory, text):
    # malformed files, bad values and bad combinations all surface as a
    # ValueError naming the file or the key, never as another exception; the
    # one warning is the retired estimation.k_max's
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            config = load_config(path)
        except ValueError:
            config = None
    assert all(w.category is UserWarning and "estimation.k_max" in str(w.message) for w in caught)
    assert config is None or isinstance(config, ExperimentConfig)


def test_config_hash_ignores_output_directory():
    a = dataclasses.replace(FAST, out_dir="run/a")
    b = dataclasses.replace(FAST, out_dir="elsewhere/b")
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(dataclasses.replace(a, sampler_seed=8))
    # the written config still records where the results go
    assert "directory = run/a" in write_config(a)


def test_config_hash_of_the_sampler_configs_is_pinned():
    assert config_hash(preset_config("desk")) == "3254380d2d7650e1"
    assert config_hash(load_config(GOLDEN)) == "b79336df5c509eb7"


def test_config_hash_of_a_file_ensemble_follows_its_bytes_not_its_path(tmp_path):
    text = "index,T,epsilon,p\n0,0.5,0.02,0.3\n1,0.2,0.01,0.7\n"
    copies = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "ens.csv").write_text(text)
        (tmp_path / name / "run.cfg").write_text("[ensemble]\nsource = file\nfile = ens.csv\n")
        copies.append(load_config(tmp_path / name / "run.cfg"))
    a, b = copies
    assert a.ensemble_file != b.ensemble_file
    assert config_hash(a) == config_hash(b)
    # one changed byte in place, under an unchanged config
    (tmp_path / "b" / "ens.csv").write_text(text.replace("0,0.5,", "0,0.6,"))
    assert config_hash(b) != config_hash(a)


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
    assert MipRow._fields == ("distance", "subchannel", "fraction", "model", "mip")


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
    assert files["mip"].read_text().splitlines()[0] == "distance,subchannel,fraction,model,mip"
    assert files["manifest"].exists()
    # each table's columns are declared once, on its row type: one name a field
    for name, row_type in (("estimates", EstimateRow), ("mse", MseRow), ("keyrate", KeyrateRow), ("mip", MipRow)):
        assert len(row_type.header) == len(row_type._fields)
        assert files[name].read_text().splitlines()[0] == ",".join(row_type.header)


def test_manifest_carries_the_csv_schema_version(tmp_path, fast_report):
    # schema 2: mip.csv without the subsampled column; a manifest without the
    # field is schema 1
    manifest = json.loads(write_reports(fast_report, tmp_path)["manifest"].read_text())
    assert manifest["schema"] == 2
    assert list(manifest) == ["schema", "config_hash", "package_version", "config"]
    assert manifest["config_hash"] == fast_report.config_hash


def test_write_reports_refuses_an_empty_directory(tmp_path, monkeypatch):
    # "" names the working directory, whose files the sweep would overwrite:
    # refused by name before anything is written, as load_config and the CLI
    # refuse it.  ExperimentConfig itself admits an empty directory
    monkeypatch.chdir(tmp_path)
    config = dataclasses.replace(FAST, out_dir="")
    with pytest.raises(ValueError, match=r"^output\.directory must not be empty$"):
        write_reports(run_sweep(config), config.out_dir)
    assert list(tmp_path.iterdir()) == []


def test_write_csv_templates_match_value_formatter(tmp_path):
    odd = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 5e-324, -1.5e300, 0.1, 1 / 3]
    tables = [
        (EstimateRow, [EstimateRow(5.0, i, 0.1, 2**40 + i, "variables", v, -v, 1e-300, v, 0.0,
                                   "degenerate_support;unestimable_transmittance")
                       for i, v in enumerate(odd)]),
        (MseRow, [MseRow(v, 1.0, "statistics", 16, v, math.nan) for v in odd]),
        (KeyrateRow, [KeyrateRow(100.0, "homodyne", "estimated-variables", v, v, v) for v in odd]),
        (MipRow, [MipRow(v, 3, 0.4, model, v) for v in odd for model in ("variables", "statistics")]),
    ]
    for row_type, rows in tables:
        path = tmp_path / f"{row_type.__name__}.csv"
        _write_csv(path, row_type, rows)
        expected = ",".join(row_type.header) + "\n" + "".join(
            ",".join(oracles.csv_field(getattr(r, name)) for name in row_type._fields) + "\n" for r in rows
        )
        assert path.read_bytes() == expected.encode()
    _write_csv(tmp_path / "empty.csv", MseRow, [])
    assert (tmp_path / "empty.csv").read_text() == "distance,fraction,estimator,seeds,MSE_T,MSE_eps\n"


def test_estimates_writer_matches_the_row_writer(tmp_path):
    # estimates.csv is written from the columns, a cell at a time, with the
    # text _write_csv gives the same rows one by one: odd floats in every
    # float column, a seed past 32 bits, and a "%" in a constant field
    odd = np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 5e-324, -1.5e300, 0.1, 1 / 3])
    n = odd.size

    def fit(shift):
        values = np.roll(odd, shift)
        return estimators.CellFit(
            values, -values, np.roll(odd, 2 * shift), np.full(n, 7),
            ["degenerate_support;unestimable_transmittance" if i % 3 else "" for i in range(n)],
            np.ones(n, dtype=bool),
        )

    estimates = [
        DistanceEstimates(5.0, odd, odd[::-1].copy(), {(2**40, 0.1, "variables"): fit(1), (3, 1.0, "a%sb"): fit(4)}),
        DistanceEstimates(1 / 3, odd[::-1].copy(), odd, {(0, 0.25, "statistics"): fit(7)}),
    ]
    report = harness.RunReport(FAST, "hash", estimates)
    rows = report.estimate_rows
    assert len(rows) == 3 * n
    assert rows[n + 2] == EstimateRow(5.0, 2, 1.0, 3, "a%sb", -math.inf, *rows[n + 2][6:])
    _write_estimates(tmp_path / "columns.csv", estimates)
    _write_csv(tmp_path / "rows.csv", EstimateRow, rows)
    expected = ",".join(EstimateRow.header) + "\n" + "".join(
        ",".join(oracles.csv_field(getattr(r, name)) for name in EstimateRow._fields) + "\n" for r in rows
    )
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes() == expected.encode()
    _write_estimates(tmp_path / "empty.csv", [])
    assert (tmp_path / "empty.csv").read_text() == ",".join(EstimateRow.header) + "\n"


def test_sweep_without_usable_estimate_writes_nan_rows(tmp_path):
    # at 100 km the one sub-channel of this 8-symbol block is unestimable
    # (its fitted gain is <= 0); fraction 1 draws no plan, so the repro does
    # not depend on the plan stream.  The sweep must still finish and write
    # every row of the grid
    config = dataclasses.replace(
        preset_config("desk"),
        distances_km=(100.0,),
        subchannels=1,
        block_length=8,
        fractions=(1.0,),
        seeds=(2,),
        estimators="variables",
        out_dir=str(tmp_path),
    )
    report = run_sweep(config)
    assert all(r.flags for r in report.estimate_rows)
    assert len(report.keyrate_rows) == 1 * len(config.detections) * 2
    for row in report.keyrate_rows:
        values = (row.i_ab, row.chi_be, row.k)
        if row.source == "true":
            assert all(math.isfinite(v) for v in values)
        else:
            assert row.source == "estimated-variables"
            assert all(math.isnan(v) for v in values)
    (mse,) = report.mse_rows
    assert (mse.fraction, mse.estimator) == (1.0, "variables")
    assert math.isnan(mse.mse_t) and math.isnan(mse.mse_eps)
    files = write_reports(report, tmp_path)
    assert files["mse"].read_text().splitlines()[1] == "100,1,variables,1,nan,nan"
    assert files["keyrate"].read_text().count(",nan,nan,nan\n") == len(config.detections)


@pytest.mark.parametrize("seed", [1, 2])
def test_sweep_with_usable_estimates_of_zero_probability_writes_nan_rows(tmp_path, seed):
    # all the probability sits on a sub-channel at T = 1e-4, whose estimate
    # is flagged for one estimator or the other (variables at seed 1,
    # statistics at seed 2); the usable estimates left carry probability 0,
    # so that estimator has none to aggregate and gets NaN key rates
    rows = ("index,T,epsilon,p", "0,0.0001,0.01,1.0", "1,0.9,0.01,0", "2,0.9,0.01,0")
    (tmp_path / "ens.csv").write_text("\n".join(rows) + "\n")
    config = ExperimentConfig(
        source="file", ensemble_file=str(tmp_path / "ens.csv"), block_length=64, fractions=(1.0,), seeds=(seed,)
    )
    report = run_sweep(config)
    flagged = {r.estimator for r in report.estimate_rows if r.subchannel == 0 and r.flags}
    assert len(flagged) == 1
    assert len(report.keyrate_rows) == len(config.detections) * 3
    for row in report.keyrate_rows:
        values = (row.i_ab, row.chi_be, row.k)
        if row.source.removeprefix("estimated-") in flagged:
            assert all(math.isnan(v) for v in values)
        else:
            assert all(math.isfinite(v) for v in values)


def test_sweep_draws_each_cells_plans_from_one_generator(monkeypatch):
    # every plan of a (seed, distance, fraction < 1) cell comes, in
    # sub-channel order, from one generator seeded (seed, d_idx, f_idx), where
    # f_idx counts the sorted fractions; fraction 1 draws nothing.  A cell's
    # plans are the rows of one _cell_plans array, row i the plan that the
    # i-th successive make_sampling_plan call on the generator gives
    config = dataclasses.replace(
        FAST,
        distances_km=(2.0, 6.0),
        subchannels=3,
        block_length=64,
        fractions=(0.3, 0.1, 1.0),
        seeds=(4, 9),
        estimators="variables",
    )
    make_plan, cell_plans = harness.make_sampling_plan, harness._cell_plans
    default_rng = np.random.default_rng
    calls, built = [], {}

    def recorded_plans(m, fraction, rng, count):
        rows = cell_plans(m, fraction, rng, count)
        calls.append((m, fraction, rng, count, rows))
        return rows

    def recorded_rng(seed=None):
        rng = default_rng(seed)
        if isinstance(seed, tuple):
            assert seed not in built
            built[seed] = rng
        return rng

    monkeypatch.setattr(harness, "_cell_plans", recorded_plans)
    monkeypatch.setattr(np.random, "default_rng", recorded_rng)
    run_sweep(config)
    monkeypatch.undo()

    fractions = sorted(config.fractions)
    cells = [
        (seed, d_idx, f_idx)
        for d_idx in range(len(config.distances_km))
        for seed in config.seeds
        for f_idx, fraction in enumerate(fractions)
        if fraction < 1
    ]
    assert list(built) == cells
    calls = iter(calls)
    for d_idx in range(len(config.distances_km)):
        for seed in config.seeds:
            for f_idx, fraction in enumerate(fractions):
                cell = (seed, d_idx, f_idx)
                reference = default_rng(cell)
                m, f, source, count, rows = next(calls)
                assert (m, f, count) == (config.block_length, fraction, config.subchannels)
                if fraction == 1:
                    assert not isinstance(source, np.random.Generator)
                    assert np.array_equal(rows, np.broadcast_to(np.arange(m), (count, m)))
                    continue
                assert source is built[cell]
                for row in rows:
                    assert np.array_equal(row, make_plan(m, fraction, reference).indices)
    assert next(calls, None) is None


@pytest.mark.parametrize("variance_mode", ["replicated", "blockwise"])
def test_sweep_validates_each_seeds_blocks_and_variances_once(monkeypatch, variance_mode):
    # three fractions fit every block three times per route, from planes
    # validated once per (distance, seed) group: one sum of squares per row
    # of each plane, no check of a block on its own; blockwise variances are
    # computed for the plane at once and checked from their own sums of
    # squares, no row on its own
    config = dataclasses.replace(
        FAST,
        distances_km=(2.0, 6.0),
        fractions=(0.1, 0.4, 1.0),
        variance_mode=variance_mode,
        variance_blocks=16,
    )
    datasets, dots = [], []
    finite_checks, variance_inputs = collections.Counter(), collections.Counter()
    simulate, row_dots = harness.simulate_block, harness._row_dots
    require_finite, statistics_input = estimators._require_finite, estimators._statistics_input

    def recorded_simulate(*args, **kwargs):
        datasets.append(simulate(*args, **kwargs))
        return datasets[-1]

    def recorded_dots(a, b):
        dots.append((a, b))
        return row_dots(a, b)

    def recorded_finite(name, values):
        finite_checks[name] += 1
        return require_finite(name, values)

    def recorded_input(measured, length, name="measured"):
        variance_inputs[name] += 1
        return statistics_input(measured, length, name)

    monkeypatch.setattr(harness, "simulate_block", recorded_simulate)
    # not raising: a sweep that no longer calls them fails the counts below
    monkeypatch.setattr(harness, "_row_dots", recorded_dots, raising=False)
    monkeypatch.setattr(estimators, "_require_finite", recorded_finite)
    monkeypatch.setattr(harness, "_statistics_input", recorded_input, raising=False)
    report = run_sweep(config)
    runs = len(config.distances_km) * len(config.seeds)
    assert len(report.estimate_rows) == runs * len(config.fractions) * 2 * config.subchannels
    # one group per (distance, seed), and one dot call per plane of it and,
    # blockwise, one for the group's (sub-channels, sub-blocks) variances
    blockwise = variance_mode == "blockwise"
    assert len(datasets) == runs
    assert len(dots) == (2 + blockwise) * runs
    for dataset in datasets:
        for plane in (dataset.alice, dataset.bob):
            assert plane.shape == (config.subchannels, config.block_length)
            assert sum(a is plane and b is plane for a, b in dots) == 1
    variances = [a for a, b in dots if a is b and a.shape == (config.subchannels, config.variance_blocks)]
    assert len(variances) == (runs if blockwise else 0)
    # no row of the variances is checked on its own
    assert finite_checks == {}
    assert variance_inputs == {}

    # the first error is the one a row-by-row check raised: the lowest
    # sub-channel first, its x before its y, and measured[i] for a
    # statistics-only sweep
    monkeypatch.undo()

    def poisoned(estimators_, *entries):
        def poison(*args, **kwargs):
            dataset = simulate(*args, **kwargs)
            for plane, i, j, value in entries:
                getattr(dataset, plane)[i, j] = value
            return dataset

        monkeypatch.setattr(harness, "simulate_block", poison)
        with pytest.raises(ValueError) as caught:
            run_sweep(dataclasses.replace(config, estimators=estimators_, distances_km=(2.0,), seeds=(1,)))
        return str(caught.value)

    blocks = " must be finite, with a finite sum of squares"
    assert poisoned("both", ("bob", 1, 7, math.nan), ("alice", 3, 0, math.inf)) == "y_blocks[1]" + blocks
    assert poisoned("both", ("bob", 2, 7, math.nan), ("alice", 2, 9, -math.inf)) == "x_blocks[2]" + blocks
    assert poisoned("variables", ("bob", 4, slice(None), 1e200)) == "y_blocks[4]" + blocks
    variances = " must be finite" + ("" if variance_mode == "replicated" else ", with a finite sum of squares")
    assert poisoned("statistics", ("bob", 3, 7, math.nan), ("bob", 1, 0, math.inf)) == "measured[1]" + variances
    assert poisoned("statistics", ("bob", 2, slice(None), 1e200)) == "measured[2]" + variances
    # finite sub-block variances whose squares overflow, on a row below a
    # NaN: the blockwise check names that row, whose replicated variance
    # passes
    first = "measured[3]" if variance_mode == "replicated" else "measured[2]"
    assert poisoned("statistics", ("bob", 3, 7, math.nan), ("bob", 2, slice(None), 1e152)) == first + variances


def test_sweep_holds_one_seeds_blocks(monkeypatch):
    # simulate_block for the next seed, and for a new distance's first seed,
    # finds the blocks of the seed before it freed
    config = dataclasses.replace(FAST, distances_km=(2.0, 6.0), seeds=(1, 2, 3))
    simulate = harness.simulate_block
    previous = []
    checked = []

    def recorded(*args, **kwargs):
        checked.append([ref() is None for ref in previous])
        dataset = simulate(*args, **kwargs)
        blocks = (*dataset.alice, *dataset.bob)
        previous[:] = [weakref.ref(a) for block in blocks for a in (block, block.base) if a is not None]
        return dataset

    monkeypatch.setattr(harness, "simulate_block", recorded)
    run_sweep(config)
    assert len(checked) == 2 * 3
    assert checked[0] == []
    for dead in checked[1:]:
        assert len(dead) >= 2 * config.subchannels
        assert all(dead)


def test_sweep_holds_one_group_of_blocks(monkeypatch):
    # with the budget at two sub-channels of m = 4096, a seed of five is
    # three groups, and simulate_block for each group finds the blocks of
    # the group before it freed, across seeds and distances too
    config = dataclasses.replace(FAST, block_length=4096, distances_km=(2.0, 6.0), seeds=(1, 2, 3))
    monkeypatch.setattr(harness, "GROUP_BYTES", 2 * 16 * 4096)
    simulate = harness.simulate_block
    previous = []
    checked = []

    def recorded(*args, **kwargs):
        checked.append((kwargs["subchannels"], [ref() is None for ref in previous]))
        dataset = simulate(*args, **kwargs)
        blocks = (*dataset.alice, *dataset.bob)
        previous[:] = [weakref.ref(a) for block in blocks for a in (block, block.base) if a is not None]
        return dataset

    monkeypatch.setattr(harness, "simulate_block", recorded)
    run_sweep(config)
    groups = [range(0, 2), range(2, 4), range(4, 5)]
    assert [g for g, _ in checked] == groups * 2 * 3
    assert checked[0][1] == []
    for (_, dead), (before, _) in zip(checked[1:], checked):
        assert len(dead) >= 2 * len(before)
        assert all(dead)


def test_sweep_fits_every_cell_in_one_work_area(monkeypatch):
    # three groups of two sub-channels, three fractions, two seeds and both
    # routes: the sweep allocates one work area, exactly the size of its
    # largest cell (two sub-channels at fraction 1), and passes it to every
    # cell fit, every projection forms its residual in it, and no array
    # constructor in estimators makes a float array of a cell's rows
    config = dataclasses.replace(
        FAST, subchannels=6, block_length=4096, fractions=(0.25, 0.5, 1.0), seeds=(1, 2)
    )
    monkeypatch.setattr(harness, "GROUP_BYTES", 2 * 16 * 4096)
    assert len(harness._groups(config.subchannels, config.block_length)) == 3
    areas, fits, projections, made = [], [], [], []
    work_area, project = harness._work_area, estimators._dc_project

    def recorded_area(*args):
        areas.append(work_area(*args))
        return areas[-1]

    def recorded_project(weights, measurement, delta, shrink, scratch):
        projections.append((measurement, scratch))
        return project(weights, measurement, delta, shrink, scratch)

    class Constructors:
        # numpy, with its array constructors recording each float array's size
        def __getattr__(self, name):
            attr = getattr(np, name)
            if name not in ("array", "empty", "empty_like", "full", "full_like", "ones", "zeros", "zeros_like"):
                return attr

            def construct(*args, **kwargs):
                out = attr(*args, **kwargs)
                made.append(out.size if out.dtype.kind == "f" else 0)
                return out
            return construct

    def recorded(fit, position):
        # position: where the fit takes its (sub-channels, sampled rows) array
        def run(*args, **kwargs):
            n, m_s = args[position].shape
            del made[:]
            result = fit(*args, **kwargs)
            fits.append((kwargs.get("work"), max(made), n * m_s))
            return result
        return run

    monkeypatch.setattr(harness, "_work_area", recorded_area)
    monkeypatch.setattr(harness, "_fit_variables", recorded(harness._fit_variables, 2))
    monkeypatch.setattr(harness, "_fit_statistics", recorded(harness._fit_statistics, 3))
    monkeypatch.setattr(estimators, "_dc_project", recorded_project)
    monkeypatch.setattr(estimators, "np", Constructors())
    run_sweep(config)
    assert len(areas) == 1
    assert areas[0].shape == (2, 2 * 4096)
    assert len(fits) == 3 * 3 * 2 * 2
    assert all(work is areas[0] for work, _, _ in fits)
    # every cell holds its group's two sub-channels, at m_s 1024, 2048, 4096
    assert sorted({rows for _, _, rows in fits}) == [2 * 1024, 2 * 2048, 2 * 4096]
    assert [(largest, rows) for _, largest, rows in fits if largest >= rows] == []
    assert len(projections) == len(fits)
    for measurement, scratch in projections:
        assert np.shares_memory(measurement, areas[0]) and np.shares_memory(scratch, areas[0])


@pytest.mark.parametrize("estimator", ["both", "variables", "statistics"])
@pytest.mark.parametrize("variance_mode", ["replicated", "blockwise"])
def test_streamed_sweep_writes_the_one_group_csvs(tmp_path, monkeypatch, variance_mode, estimator):
    # one sub-channel per group gives the bytes of the whole seed in one
    # group: plans, rows, MSE, the key-rate cell at the first seed and the
    # coherence rows, at a low-SNR distance and at fraction 1
    config = dataclasses.replace(
        FAST, distances_km=(2.0, 40.0), fractions=(1.0, 0.25, 0.5), seeds=(3, 1, 2),
        variance_mode=variance_mode, variance_blocks=16, estimators=estimator,
    )
    assert len(harness._groups(config.subchannels, config.block_length)) == 1
    one = write_reports(run_sweep(config), tmp_path / "one")
    monkeypatch.setattr(harness, "GROUP_BYTES", 1)
    assert len(harness._groups(config.subchannels, config.block_length)) == config.subchannels
    calls = []
    simulate = harness.simulate_block
    monkeypatch.setattr(harness, "simulate_block", lambda *a, **k: calls.append(k) or simulate(*a, **k))
    streamed = write_reports(run_sweep(config), tmp_path / "streamed")
    assert len(calls) == 2 * 3 * config.subchannels
    for name in ("estimates", "mse", "keyrate", "mip"):
        assert streamed[name].read_bytes() == one[name].read_bytes(), name


@pytest.mark.parametrize("variance_mode", ["replicated", "blockwise"])
def test_mip_rows_of_a_model_are_those_of_its_sweep_alone(tmp_path, monkeypatch, variance_mode):
    # in groups of three, three and one sub-channels, each model's rows are
    # the bytes of a sweep of that model alone
    config = dataclasses.replace(
        FAST, subchannels=7, distances_km=(2.0, 40.0), fractions=(0.25, 0.5, 1.0),
        variance_mode=variance_mode, variance_blocks=16,
    )
    monkeypatch.setattr(harness, "GROUP_BYTES", 3 * 16 * config.block_length)
    both = write_reports(run_sweep(config), tmp_path / "both")["mip"].read_text().splitlines()
    for estimator in ("variables", "statistics"):
        alone = write_reports(run_sweep(dataclasses.replace(config, estimators=estimator)), tmp_path / estimator)
        rows = alone["mip"].read_text().splitlines()
        assert len(rows) == 1 + 2 * 3 * 7
        assert rows[1:] == [row for row in both[1:] if f",{estimator}," in row]


@pytest.mark.parametrize("variance_mode", ["replicated", "blockwise"])
def test_sweep_mip_values_are_those_of_the_operators(monkeypatch, variance_mode):
    # every coherence value of a sweep at the odd block length m = 511 is
    # the mutual_incoherence of its sub-channel's operator, the Alice
    # symbols or V_A at the cell's plan, bit for bit.  A row of the work
    # area, one cell of 5 rows at fraction 1, holds 4 transforms of m + 2
    # floats, fewer than the rows a cell leaves
    config = dataclasses.replace(
        FAST, block_length=511, seeds=(1,), distances_km=(2.0, 40.0),
        variance_mode=variance_mode, variance_blocks=7,
    )
    datasets, plans, transforms = [], {}, []
    simulate, cell_plans, gram_peaks = harness.simulate_block, harness._cell_plans, harness._gram_peaks

    def recorded_plans(m, fraction, rng, count):
        plans[len(datasets) - 1, fraction] = cell_plans(m, fraction, rng, count)
        return plans[len(datasets) - 1, fraction]

    monkeypatch.setattr(harness, "simulate_block", lambda *a, **k: datasets.append(simulate(*a, **k)) or datasets[-1])
    monkeypatch.setattr(harness, "_cell_plans", recorded_plans)
    monkeypatch.setattr(harness, "_gram_peaks", lambda k, *a: transforms.append(k) or gram_peaks(k, *a))
    report = run_sweep(config)
    n = config.subchannels
    assert max(transforms) == 4 < n
    # the rows of both models
    cells = len(config.distances_km) * len(config.fractions)
    assert sum(transforms) == cells * n * 2
    assert len(report.mip_rows) == cells * n * 2
    flat = np.full(config.block_length, config.protocol.modulation_variance)
    for row in report.mip_rows:
        d_idx = config.distances_km.index(row.distance)
        weights = datasets[d_idx].alice[row.subchannel] if row.model == "variables" else flat
        op = RowSampledIdftOperator(weights, plans[d_idx, row.fraction][row.subchannel])
        assert np.float64(row.mip).tobytes() == np.float64(mutual_incoherence(op)).tobytes(), row


def test_file_ensemble_sizes_the_work_area_by_its_rows(tmp_path, monkeypatch):
    # a file ensemble of 7 rows, with low transmittances at rows 2, 4 and 6,
    # under ensemble.subchannels = 2, which a file source does not read, in
    # groups of 3, 3 and 1: the work area takes the group of 3 at fraction 1,
    # and the CSVs are those of groups of one
    t = (0.5, 0.2, 0.003, 0.9, 0.002, 0.35, 0.001)
    rows = [f"{i},{t_i},0.01,{p}" for i, (t_i, p) in enumerate(zip(t, (0.1, 0.2, 0.1, 0.2, 0.1, 0.2, 0.1)))]
    (tmp_path / "ens.csv").write_text("\n".join(["index,T,epsilon,p", *rows]) + "\n")
    config = dataclasses.replace(
        FAST, source="file", ensemble_file=str(tmp_path / "ens.csv"), subchannels=2,
        fractions=(1.0, 0.25, 0.5), seeds=(3, 1), variance_mode="blockwise", variance_blocks=16,
    )
    monkeypatch.setattr(harness, "GROUP_BYTES", 3 * 16 * config.block_length)
    assert [len(g) for g in harness._groups(len(rows), config.block_length)] == [3, 3, 1]
    areas = []
    work_area = harness._work_area
    monkeypatch.setattr(harness, "_work_area", lambda *a: areas.append(work_area(*a)) or areas[-1])
    grouped = write_reports(run_sweep(config), tmp_path / "grouped")
    assert [area.shape for area in areas] == [(2, 3 * config.block_length)]
    monkeypatch.setattr(harness, "GROUP_BYTES", 1)
    one = write_reports(run_sweep(config), tmp_path / "one")
    for name in ("estimates", "mse", "keyrate", "mip"):
        assert grouped[name].read_bytes() == one[name].read_bytes(), name
    assert one["estimates"].read_text().count("\n") == 1 + 7 * 3 * 2 * 2


def test_estimation_takes_a_groups_blocks_and_no_other_truth_than_its_noise_scale(monkeypatch):
    # _fit_group admits no ensemble; in a golden sweep of three groups per
    # seed, each call receives the dataset that simulate_block returned for
    # its group, and its one truth-derived array is noise_scale, the group's
    # eta*T*eps bit for bit
    parameters = inspect.signature(harness._fit_group).parameters
    assert list(parameters) == ["config", "group", "dataset", "rngs", "noise_scale", "work", "coherence"]
    assert not [p for p in parameters.values() if "SubChannel" in str(p.annotation)]
    config = load_config(GOLDEN)
    monkeypatch.setattr(harness, "GROUP_BYTES", 2 * 16 * config.block_length)
    simulate, fit_group, work_area = harness.simulate_block, harness._fit_group, harness._work_area
    simulated, areas, calls = [], [], []

    def recorded_simulate(ensemble, params, **kwargs):
        simulated.append((ensemble, kwargs["subchannels"], simulate(ensemble, params, **kwargs)))
        return simulated[-1][2]

    def recorded_area(*args):
        areas.append(work_area(*args))
        return areas[-1]

    def recorded_fit(*args):
        calls.append((simulated[-1], args))
        return fit_group(*args)

    monkeypatch.setattr(harness, "simulate_block", recorded_simulate)
    monkeypatch.setattr(harness, "_work_area", recorded_area)
    monkeypatch.setattr(harness, "_fit_group", recorded_fit)
    run_sweep(config)

    groups = [range(0, 2), range(2, 4), range(4, 6)]
    assert len(calls) == len(config.distances_km) * len(config.seeds) * len(groups)
    # the one area holds a group of two at fraction 1
    assert [area.shape for area in areas] == [(2, 2 * config.block_length)]
    eta = config.protocol.detector_efficiency
    for k, ((ensemble, subchannels, dataset), args) in enumerate(calls):
        given, group, data, rngs, noise_scale, work, coherence = args
        assert isinstance(ensemble, SubChannelEnsemble)
        assert given is config
        assert group == subchannels == groups[k % len(groups)]
        assert data is dataset and type(data) is QuadratureDataset
        assert all(isinstance(r, np.random.Generator) or r == 0 for r in rngs)
        assert work is areas[0]
        assert coherence is (k % (len(config.seeds) * len(groups)) < len(groups))
        truth = (eta * ensemble.transmittances * ensemble.excess_noises)[group.start : group.stop]
        assert noise_scale.dtype == truth.dtype and noise_scale.tobytes() == truth.tobytes()
        # an owned copy: a view would carry the distance's whole array in its base
        assert noise_scale.base is None
        arrays = [a for a in args if isinstance(a, np.ndarray)]
        assert len(arrays) == 2 and arrays[0] is noise_scale and arrays[1] is work
        assert not [a for a in (*args, *vars(data).values()) if isinstance(a, SubChannelEnsemble)]


@pytest.mark.parametrize("t_scale, eps_scale", [
    (2.0, 0.5),
    pytest.param(1.0, 2.0, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1")),
])
def test_only_the_scoring_reads_the_truth(monkeypatch, t_scale, eps_scale):
    # a golden blockwise sweep whose blocks are simulated from
    # ensemble A, run once handed A and once handed B = (t_scale T,
    # eps_scale eps, the same p): every estimate, MIP and estimated key rate
    # is the same, and the truth columns are B's.  At (2T, eps/2) the
    # statistics route's eta*T*eps is A's bit for bit; at (T, 2 eps) it is
    # not, and that route still reads it
    config = dataclasses.replace(load_config(GOLDEN), variance_mode="blockwise")
    a = build_ensemble(
        [0.45, 0.3, 0.12, 0.05, 0.38, 0.2],
        excess_noise=[0.01, 0.03, 0.02, 0.05, 0.015, 0.04],
        block_length=config.block_length,
        probabilities=[0.1, 0.2, 0.15, 0.25, 0.1, 0.2],
    )
    b = build_ensemble(t_scale * a.transmittances, eps_scale * a.excess_noises, a.block_length, a.probabilities)
    simulate = harness.simulate_block
    monkeypatch.setattr(harness, "simulate_block", lambda ensemble, *args, **kwargs: simulate(a, *args, **kwargs))
    reports = []
    for handed in (a, b):
        monkeypatch.setattr(harness, "_ensemble_for", lambda config, d_idx, handed=handed: handed)
        reports.append(run_sweep(config))
    on_a, on_b = reports

    def columns(rows, *names):
        # repr, so that NaN estimates compare equal
        return [repr(tuple(getattr(row, name) for name in names)) for row in rows]

    estimated = ("distance", "subchannel", "fraction", "seed", "estimator", "t_hat", "eps_hat", "residual", "flags")
    assert columns(on_a.estimate_rows, *estimated) == columns(on_b.estimate_rows, *estimated)
    assert columns(on_a.mip_rows, *MipRow._fields) == columns(on_b.mip_rows, *MipRow._fields)
    assert [row for row in on_a.keyrate_rows if row.source != "true"] == [
        row for row in on_b.keyrate_rows if row.source != "true"
    ]
    assert [(t_scale * r.t_true, eps_scale * r.eps_true) for r in on_a.estimate_rows] == [
        (r.t_true, r.eps_true) for r in on_b.estimate_rows
    ]


def test_golden_config_runs_deterministically(tmp_path):
    config = dataclasses.replace(load_config(GOLDEN), out_dir=str(tmp_path / "a"))
    first = write_reports(run_sweep(config), config.out_dir)
    second = write_reports(run_sweep(config), tmp_path / "b")
    for name in ("estimates", "mse", "keyrate", "mip"):
        assert first[name].read_bytes() == second[name].read_bytes()


def _golden_text(variance_mode: str, estimation: str = "") -> str:
    """golden.cfg in ``variance_mode``, with the lines ``estimation`` first
    in its [estimation] section."""
    text = GOLDEN.read_text().replace("variance_mode = replicated", f"variance_mode = {variance_mode}")
    return text.replace("[estimation]\n", f"[estimation]\n{estimation}", 1)


@pytest.mark.parametrize("variance_mode", ["replicated", "blockwise"])
def test_retired_k_max_warns_once_and_sweeps_the_file_without_it(tmp_path, capsys, variance_mode):
    # both routes fit one atom: a file that still asks the variables route
    # for three loads with one warning naming the key, and sweeps the bytes
    # of the same file without that line
    runs = {}
    for name, line in (("plain", ""), ("k3", "k_max = 3\n")):
        (tmp_path / f"{name}.cfg").write_text(_golden_text(variance_mode, line))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        config = load_config(tmp_path / "k3.cfg")
    assert [(w.category, str(w.message)) for w in caught] == [(
        UserWarning,
        f"{tmp_path / 'k3.cfg'}: estimation.k_max = 3 is retired and ignored: both routes fit one atom",
    )]
    assert config == load_config(tmp_path / "plain.cfg")
    assert "k_max" not in write_config(config)
    for name in ("plain", "k3"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            rc = cli_main(["sweep", "--config", str(tmp_path / f"{name}.cfg"), "--out", str(tmp_path / name)])
        assert rc == 0
        runs[name] = [(tmp_path / name / f"{t}.csv").read_bytes() for t in ("estimates", "mse", "keyrate", "mip")]
    assert all(runs["plain"]) and runs["k3"] == runs["plain"]
    capsys.readouterr()


@pytest.mark.parametrize(
    "raw, message",
    [
        ("0", "estimation.k_max must be >= 1, got 0"),
        ("-2", "estimation.k_max must be >= 1, got -2"),
        ("2.5", "{path}: bad value for estimation.k_max: '2.5'"),
        ("true", "{path}: bad value for estimation.k_max: 'true'"),
        ("", "{path}: bad value for estimation.k_max: ''"),
        ("1.0", "{path}: bad value for estimation.k_max: '1.0'"),
        ("nan", "{path}: bad value for estimation.k_max: 'nan'"),
    ],
    ids=["0", "-2", "2.5", "true", "empty", "1.0", "nan"],
)
def test_retired_k_max_is_still_checked(tmp_path, raw, message):
    # an integer >= 1, or the ValueError naming the key that the key raised
    # while it was read
    path = tmp_path / "bad.cfg"
    path.write_text(f"[estimation]\nk_max = {raw}\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(message.format(path=path))}$"):
        load_config(path)


def test_retired_k_max_of_one_loads_without_a_warning(tmp_path):
    path = tmp_path / "one.cfg"
    path.write_text(_golden_text("replicated", "k_max = 1\n"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        config = load_config(path)
    assert caught == []
    assert config == load_config(GOLDEN)


@pytest.mark.parametrize("grid", ["golden", "blockwise-m511", "two-groups", "retired-k3", "file-ensemble"])
@pytest.mark.parametrize("estimator", ["both", "variables", "statistics"])
def test_no_sweep_solves_omp(tmp_path, monkeypatch, grid, estimator):
    # both routes fit the closed-form projection, and the coherence
    # diagnostic transforms its rows in the work area: no sweep runs OMP,
    # builds an operator or calls mutual_incoherence, at any config
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep ran OMP, built an operator or called mutual_incoherence")

    monkeypatch.setattr(estimators, "omp_solve", refuse)
    monkeypatch.setattr(estimators, "RowSampledIdftOperator", refuse)
    monkeypatch.setattr(harness, "RowSampledIdftOperator", refuse)
    monkeypatch.setattr(harness, "mutual_incoherence", refuse)
    config = dataclasses.replace(load_config(GOLDEN), estimators=estimator)
    if grid == "blockwise-m511":
        config = dataclasses.replace(config, block_length=511, variance_mode="blockwise", variance_blocks=7)
    elif grid == "two-groups":
        monkeypatch.setattr(harness, "GROUP_BYTES", 4 * 16 * config.block_length)
        assert len(harness._groups(config.subchannels, config.block_length)) == 2
    elif grid == "retired-k3":
        (tmp_path / "k3.cfg").write_text(_golden_text("blockwise", "k_max = 3\n"))
        with pytest.warns(UserWarning, match="estimation.k_max"):
            config = dataclasses.replace(load_config(tmp_path / "k3.cfg"), estimators=estimator)
    elif grid == "file-ensemble":
        # low transmittances at rows 2, 4 and 6, the rows a multi-atom
        # variables fit refitted off the DC column
        t = (0.5, 0.2, 0.003, 0.9, 0.002, 0.35, 0.001)
        rows = [f"{i},{t_i},0.01,{1 / len(t)}" for i, t_i in enumerate(t)]
        (tmp_path / "ens.csv").write_text("\n".join(["index,T,epsilon,p", *rows]) + "\n")
        config = dataclasses.replace(config, source="file", ensemble_file=str(tmp_path / "ens.csv"))
    report = run_sweep(config)
    assert report.estimate_rows and report.mip_rows


def test_config_hash_stable():
    assert config_hash(FAST) == config_hash(dataclasses.replace(FAST))
    assert config_hash(FAST) != config_hash(dataclasses.replace(FAST, sampler_seed=8))


def test_benchmark_trace_targets_resolve():
    # perfbench/tracing.py wraps these module attributes; a refactor that
    # drops one would leave the traced benchmark short of a name
    spec = importlib.util.spec_from_file_location("_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module_name, attr, *_ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), f"{module_name}.{attr}"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_import_leaves_numpy_random_to_numpy():
    # numpy.random is slow to import, and no CLI path needs it before a
    # sweep draws (channel._state_words is built on first use): a fresh
    # interpreter has it after importing the CLI only if importing numpy
    # alone loads it, as some numpy versions do
    def loads_numpy_random(module):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        code = f"import sys, {module}; print('numpy.random' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        return {"True": True, "False": False}[done.stdout.strip()]

    assert loads_numpy_random("numpy") or not loads_numpy_random("csqkd.cli")


def test_cli_sweep(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli_main(["sweep", "--config", str(GOLDEN), "--out", str(out)])
    assert rc == 0
    for name in ("estimates.csv", "mse.csv", "keyrate.csv", "mip.csv", "run.json"):
        assert (out / name).exists()
    capsys.readouterr()


def test_console_sweep_of_a_retired_k_max_warns_on_stderr(tmp_path):
    # `python -m csqkd sweep` of a file that sets the retired k_max = 3
    # exits 0, prints the one warning naming the key on stderr, and writes
    # the CSVs of the same file without that line, under Python's default
    # warning filters
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("PYTHONWARNINGS", None)
    small = dataclasses.replace(FAST, variance_mode="blockwise", variance_blocks=16)
    plain = write_config(small)
    runs = {}
    for name, text in (("plain", plain), ("k3", plain.replace("[estimation]\n", "[estimation]\nk_max = 3\n", 1))):
        (tmp_path / f"{name}.cfg").write_text(text)
        done = subprocess.run(
            [sys.executable, "-m", "csqkd", "sweep", "--config", str(tmp_path / f"{name}.cfg"),
             "--out", str(tmp_path / name)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        runs[name] = [(tmp_path / name / f"{t}.csv").read_bytes() for t in ("estimates", "mse", "keyrate", "mip")]
        warned = [line for line in done.stderr.splitlines() if "Warning" in line]
        if name == "plain":
            assert warned == []
        else:
            assert len(warned) == 1 and "UserWarning" in warned[0]
            assert "estimation.k_max = 3 is retired and ignored" in warned[0]
    assert all(runs["plain"]) and runs["k3"] == runs["plain"]


@pytest.mark.parametrize(
    "text, names",
    [
        ("seeds = 1\n[estimation]\nk_max = 2\n", "seeds = 1"),
        ("[estimation]\nseeds = 1\nseeds = 2\n", "'seeds' in section 'estimation'"),
        ("[estimation]\nseeds = 1\n[estimation]\nk_max = 2\n", "section 'estimation'"),
        ("[estimation]\nseeds\n", "seeds"),
        ("[estimation]\nseeds = 1,-2\n", "estimation.seeds"),
        ("[ensemble]\nsampler_seed = -1\n", "ensemble.sampler_seed"),
        ("[protocol]\nelectronic_noise = nan\n", "protocol.electronic_noise"),
        ("[protocol]\nelectronic_noise = inf\n", "protocol.electronic_noise"),
        ("[protocol]\nmodulation_variance = inf\n", "protocol.modulation_variance"),
        ("[ensemble]\ndistances_km = 1,5000\n", "ensemble.distances_km"),
    ],
)
def test_cli_bad_config_fails_before_the_sweep(tmp_path, capsys, monkeypatch, text, names):
    def refuse(config):
        raise AssertionError("the sweep started on a bad config")

    monkeypatch.setattr("csqkd.cli.run_sweep", refuse)
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    rc = cli_main(["sweep", "--config", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")
    assert names in err


@pytest.mark.parametrize(
    "rows, message",
    [
        ("0,0.5,0.07,0.5\n1,0.4,,0.5\n", "row 2, column 'epsilon': blank"),
        ("0,0.5,nan,0.5\n", "row 1, column 'epsilon': expected"),
        ("", "ensemble must contain at least one sub-channel"),
        ("0,0.5,0.07,0.5\n1,1.5,0.07,0.5\n", "transmittance out of (0, 1] at index 1: 1.5\n"),
        ("0,0.5,0.07,0.5\n1,0.4,-0.07,0.5\n", "excess_noise out of [0, inf) at index 1: -0.07\n"),
        ("0,0.5,0.07,0.2\n1,0.4,0.07,0.2\n", "sub-channel probabilities must sum to 1 (got 0.4)"),
    ],
    ids=[
        "partly-filled", "nan", "header-only", "transmittance-above-one", "epsilon-negative",
        "probabilities-sum-below-one",
    ],
)
def test_cli_sweep_rejects_bad_ensemble_file(tmp_path, capsys, rows, message):
    # the error names the file before any simulation, and no output is written
    (tmp_path / "ens.csv").write_text("index,T,epsilon,p\n" + rows)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[ensemble]\nsource = file\nfile = ens.csv\nblock_length = 64\n"
        f"[estimation]\nseeds = 1\nfractions = 1.0\n[output]\ndirectory = {tmp_path / 'out'}\n"
    )
    rc = cli_main(["sweep", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {tmp_path / 'ens.csv'}: {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "below-a-file"])
def test_cli_sweep_rejects_an_output_path_through_a_file_before_the_sweep(
    tmp_path, capsys, monkeypatch, under
):
    def refuse(config):
        raise AssertionError("the sweep started on an unusable output path")

    monkeypatch.setattr("csqkd.cli.run_sweep", refuse)
    blocker = tmp_path / "taken"
    blocker.write_text("x")
    out = blocker / "run" / "deeper" if under else blocker
    rc = cli_main(["sweep", "--config", str(GOLDEN), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: output directory {out}: {blocker} is not a directory")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert blocker.read_text() == "x"


@pytest.mark.parametrize("source", ["flag", "config"])
def test_cli_sweep_rejects_an_empty_output_directory_before_the_sweep(tmp_path, capsys, monkeypatch, source):
    # an empty directory is the working directory, whose files a sweep would
    # overwrite; both spellings exit 2 and write nothing there
    def refuse(config):
        raise AssertionError("the sweep started on an empty output directory")

    monkeypatch.setattr("csqkd.cli.run_sweep", refuse)
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(GOLDEN.read_text().replace("directory = out", "directory ="))
    argv = ["--config", str(GOLDEN), "--out", ""] if source == "flag" else ["--config", str(cfg)]
    rc = cli_main(["sweep", *argv])
    err = capsys.readouterr().err
    assert rc == 2
    expected = "output directory must" if source == "flag" else f"{cfg}: output.directory must"
    assert err.startswith(f"error: {expected} not be empty")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_cli_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[estimation]\nfractions = 2.0\n")
    rc = cli_main(["sweep", "--config", str(bad)])
    assert rc == 2
    assert "fractions" in capsys.readouterr().err
