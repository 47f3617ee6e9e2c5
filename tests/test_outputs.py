"""Pinned sweep outputs: the CSVs of five configs against ``tests/data/outputs.json``.

The cases are the golden config, golden with blockwise variances, golden at
the odd block length m = 511, the desk preset, and golden at m = 10^4 with
14 sub-channels and blockwise variances, whose seeds span two groups of
sub-channels (13 and 1).  Each CSV's header and row count must match
exactly and every value at a relative tolerance of 1e-9: the fits use BLAS
dots and the MIP uses FFTs, whose last bits may differ across BLAS builds,
CPUs and numpy versions.  A file's
``sha256`` is compared only where the recording's environment (numpy
version, machine, C library and numpy's CPU features) matches.

An intended output change re-records the file with

    PYTHONPATH=src python tests/test_outputs.py

and says in CHANGES.md which outputs moved and why.
"""

import csv
import dataclasses
import hashlib
import json
import math
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from csqkd.harness import load_config, preset_config, run_sweep, write_reports

ROOT = Path(__file__).resolve().parents[1]
PINNED = Path(__file__).resolve().parent / "data" / "outputs.json"
TABLES = ("estimates", "mse", "keyrate", "mip")
REL_TOL = 1e-9
#: below this a value is roundoff (the f = 1 statistics-model MIP reads
#: 1e-20 to 2e-18), whose relative change means nothing; the smallest other
#: value pinned, an MSE_eps of 2.9e-7, is still held to REL_TOL
ABS_TOL = 1e-16


def _cases():
    golden = load_config(ROOT / "configs" / "golden.cfg")
    return {
        "golden": golden,
        "golden-blockwise": dataclasses.replace(golden, variance_mode="blockwise"),
        "golden-m511": dataclasses.replace(golden, block_length=511),
        "desk": preset_config("desk"),
        "golden-two-groups": dataclasses.replace(
            golden, block_length=10_000, subchannels=14, variance_mode="blockwise", variance_blocks=100
        ),
    }


def environment() -> dict[str, str]:
    """What the bytes of a sweep may depend on beyond the program."""
    features = np._core._multiarray_umath.__cpu_features__
    return {
        "numpy": np.__version__,
        "machine": platform.machine(),
        "libc": " ".join(platform.libc_ver()),
        "cpu_features": " ".join(sorted(name for name, on in features.items() if on)),
    }


def _tables(config, out: Path) -> dict[str, dict]:
    files = write_reports(run_sweep(config), out)
    tables = {}
    for name in TABLES:
        data = files[name].read_bytes()
        header, *rows = csv.reader(data.decode().splitlines())
        tables[name] = {
            "header": header,
            "rows": len(rows),
            "sha256": hashlib.sha256(data).hexdigest(),
            "values": rows,
        }
    return tables


def _same(recorded: str, value: str) -> bool:
    try:
        a, b = float(recorded), float(value)
    except ValueError:
        return recorded == value
    return (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


def test_pinned_cases_are_the_configured_cases(pinned):
    assert sorted(pinned["cases"]) == sorted(_cases())
    for tables in pinned["cases"].values():
        assert sorted(tables) == sorted(TABLES)


@pytest.mark.parametrize("case", sorted(_cases()))
def test_sweep_writes_the_pinned_outputs(pinned, case, tmp_path):
    written = _tables(_cases()[case], tmp_path)
    same_environment = pinned["environment"] == environment()
    for name in TABLES:
        expected, actual = pinned["cases"][case][name], written[name]
        assert actual["header"] == expected["header"], name
        assert actual["rows"] == expected["rows"] == len(expected["values"]), name
        for r, (want, got) in enumerate(zip(expected["values"], actual["values"])):
            assert len(got) == len(want), (name, r)
            bad = [(col, w, g) for col, w, g in zip(expected["header"], want, got) if not _same(w, g)]
            assert not bad, (name, r, bad)
        if same_environment:
            assert actual["sha256"] == expected["sha256"], name


def _record(path: Path) -> None:
    """Write the outputs of every case, one CSV row per line of JSON."""
    lines = ["{", f' "environment": {json.dumps(environment())},', ' "cases": {']
    cases = sorted(_cases().items())
    with tempfile.TemporaryDirectory() as tmp:
        for c_idx, (case, config) in enumerate(cases):
            lines.append(f"  {json.dumps(case)}: {{")
            tables = _tables(config, Path(tmp) / case)
            for t_idx, name in enumerate(TABLES):
                table = tables[name]
                lines.append(f"   {json.dumps(name)}: {{")
                for key in ("header", "rows", "sha256"):
                    lines.append(f"    {json.dumps(key)}: {json.dumps(table[key])},")
                rows = [f"     {json.dumps(row)}" for row in table["values"]]
                lines.append('    "values": [' + ("\n" + ",\n".join(rows) + "\n    " if rows else "") + "]")
                lines.append("   }" + ("," if t_idx < len(TABLES) - 1 else ""))
            lines.append("  }" + ("," if c_idx < len(cases) - 1 else ""))
    lines += [" }", "}"]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    _record(PINNED)
