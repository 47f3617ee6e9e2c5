"""Sweep benchmark for csqkd.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk-seeds --seed 0 --seconds 50 --trace 0

Runs whole sweeps of one workload through the program's public entry points
(``load_config``, ``run_sweep``, ``write_reports``: what ``csqkd sweep``
runs) in a closed loop: one client, one sweep at a time, in this process,
until ``--seconds`` have passed.  Every sweep's CSVs are checked.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` untraced and traced sweeps alternate and it carries the
per-layer metrics and the tracing overhead.  Times are scaled to a fixed
machine speed (see reference.py).  The line before it is an ``info`` object:
sample lists, unscaled medians, the CSV digest and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from reference import REFERENCE_S, time_reference
from tracing import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_LAUNCHES = 15
SETUP_BATCH = 3
CSV_NAMES = ("estimates", "mse", "keyrate", "mip")
FLAGS = ("unestimable_transmittance", "below_noise_floor", "degenerate_support")
# outside CPU use, in CPUs averaged over the run, that flags contention: on
# 2 CPUs, half of one is already a third of what a BLAS-threaded sweep uses
CONTENTION_CPUS = 0.5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIME_FIELDS = ("wall_s", "self_s", "cpu_s")

# (metric, span, field) taken from the traced sweeps; *_s fields are
# medians over traced sweeps, the rest are counts that must repeat exactly.
SPAN_METRICS = (
    ("channel.simulate_block.calls", "channel.simulate_block", "calls"),
    ("channel.simulate_block.self_s", "channel.simulate_block", "self_s"),
    ("channel.simulate_block.samples", "channel.simulate_block", "samples"),
    ("channel.ensemble.self_s", "channel.ensemble", "self_s"),
    ("sensing.make_sampling_plan.calls", "sensing.make_sampling_plan", "calls"),
    ("sensing.make_sampling_plan.self_s", "sensing.make_sampling_plan", "self_s"),
    ("sensing.make_sampling_plan.rows", "sensing.make_sampling_plan", "rows"),
    ("sensing.RowSampledIdftOperator.estimators.calls", "sensing.RowSampledIdftOperator.estimators", "calls"),
    ("sensing.RowSampledIdftOperator.estimators.self_s", "sensing.RowSampledIdftOperator.estimators", "self_s"),
    ("sensing.RowSampledIdftOperator.harness.calls", "sensing.RowSampledIdftOperator.harness", "calls"),
    ("sensing.RowSampledIdftOperator.harness.self_s", "sensing.RowSampledIdftOperator.harness", "self_s"),
    ("sensing.omp_solve.calls", "sensing.omp_solve", "calls"),
    ("sensing.omp_solve.self_s", "sensing.omp_solve", "self_s"),
    ("sensing.omp_solve.cpu_s", "sensing.omp_solve", "cpu_s"),
    ("sensing.omp_solve.atoms", "sensing.omp_solve", "atoms"),
    ("sensing.omp_solve.offdc", "sensing.omp_solve", "offdc"),
    ("sensing.omp_solve.degenerate", "sensing.omp_solve", "degenerate"),
    ("sensing.mutual_incoherence.calls", "sensing.mutual_incoherence", "calls"),
    ("sensing.mutual_incoherence.self_s", "sensing.mutual_incoherence", "self_s"),
    ("estimators.variables.calls", "estimators.variables", "calls"),
    ("estimators.variables.self_s", "estimators.variables", "self_s"),
    ("estimators.statistics.calls", "estimators.statistics", "calls"),
    ("estimators.statistics.self_s", "estimators.statistics", "self_s"),
    ("estimators.aggregate_estimates.self_s", "estimators.aggregate_estimates", "self_s"),
    ("security.secret_key_rate.calls", "security.secret_key_rate", "calls"),
    ("security.secret_key_rate.self_s", "security.secret_key_rate", "self_s"),
    ("harness.run_sweep.self_s", "harness.run_sweep", "self_s"),
    ("harness.write_reports.self_s", "harness.write_reports", "self_s"),
    ("harness.bytes_written", "harness.write_reports", "bytes"),
)
ROUTES = ("variables", "statistics")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="csqkd sweep benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="workload seed, >= 0 (default 0)")
    parser.add_argument("--seconds", type=float, default=50.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "loadavg_start": list(os.getloadavg()),
    }


def machine_cpu_s() -> tuple[float, float] | None:
    """Busy and stolen CPU seconds of the whole machine so far, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    user, nice, system, _idle, _iowait, irq, softirq, steal = ticks
    hz = os.sysconf("SC_CLK_TCK")
    return (user + nice + system + irq + softirq) / hz, steal / hz


def own_cpu_s() -> float:
    """CPU seconds of this process and of the set-up probes it has waited for."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def reference_scales() -> dict[str, float]:
    """Factors that bring wall and CPU times measured now to the reference speed."""
    wall, cpu = time_reference()
    return {"wall_scale": REFERENCE_S / wall, "cpu_scale": REFERENCE_S / cpu}


def measure_setup(config_path: Path, launches: int) -> list[dict]:
    """Launch fresh interpreters, one at a time, that import csqkd and load the config."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    samples = []
    for _ in range(launches):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), str(config_path)],
            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        ) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
        probe = json.loads(line)
        if not Path(probe["module"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up probe imported csqkd from {probe['module']}, not {SRC}")
        samples.append({"setup_s": wall, "import_s": probe["import_s"], "load_s": probe["load_s"]})
    return samples


def check_outputs(files: dict, expected: dict[str, int]) -> tuple[str, list[str]]:
    """Digest of the CSV set and a list of failed output checks."""
    digest = hashlib.sha256()
    problems = []
    for name in CSV_NAMES:
        data = Path(files[name]).read_bytes()
        digest.update(f"{name}:{len(data)}\n".encode())
        digest.update(data)
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        if len(rows) != expected[name]:
            problems.append(f"{name}.csv has {len(rows)} rows, the grid needs {expected[name]}")
        if name == "keyrate":
            for row in rows:
                if row["source"] == "true" and not all(
                    math.isfinite(float(row[col])) for col in ("I_AB", "chi_BE", "K")
                ):
                    problems.append(f"non-finite true key rate at distance {row['distance']}")
    return digest.hexdigest(), problems


def run_one_sweep(harness, config, expected, tracer: Tracer | None, sweep_id: int) -> dict:
    record = {"traced": tracer is not None, "problems": []}
    scope = tracer.installed(sweep_id) if tracer else contextlib.nullcontext()
    gc.collect()  # start each sweep as a fresh invocation would, with no garbage left
    record.update(reference_scales())
    try:
        with scope:
            c0 = time.process_time()
            t0 = time.perf_counter()
            # looked up at call time, so an installed tracer sees both calls
            report = harness.run_sweep(config)
            files = harness.write_reports(report, config.out_dir)
            t1 = time.perf_counter()
            c1 = time.process_time()
        record["sweep_s"] = t1 - t0
        record["cpu_s"] = c1 - c0
        record["digest"], record["problems"] = check_outputs(files, expected)
    except Exception as exc:  # a failed sweep is counted, and the loop goes on
        traceback.print_exc(file=sys.stderr)
        record["problems"].append(f"sweep raised {type(exc).__name__}: {exc}")
    return record


def count_fields(summary: dict) -> dict:
    return {
        (span, key): value
        for span, row in summary.items()
        for key, value in row.items()
        if key not in TIME_FIELDS
    }


def run(args: argparse.Namespace) -> int:
    if not (SRC / "csqkd" / "__init__.py").is_file():
        print(f"error: no csqkd sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import csqkd.harness as harness

    if not Path(harness.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported csqkd from {harness.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    expected = workload.expected_rows()
    run_dir = OUT_ROOT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config_path = run_dir / "workload.cfg"
    config_path.write_text(workload.config_text(args.seed, str((run_dir / "sweep").relative_to(ROOT))))

    env = environment()
    config = harness.load_config(config_path)

    tracer = Tracer() if args.trace else None
    min_traced = 2 if args.trace else 0
    min_untraced = 1 if args.trace else 2
    records: list[dict] = []
    setup: list[dict] = []
    machine_start, own_start = machine_cpu_s(), own_cpu_s()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        # set-up probes go in batches spread over the run, so one short slow
        # phase of the machine cannot bias all of them
        if len(setup) < SETUP_LAUNCHES and elapsed >= args.seconds * len(setup) / SETUP_LAUNCHES:
            setup += measure_setup(config_path, SETUP_BATCH)
        n_traced = sum(r["traced"] for r in records)
        n_untraced = len(records) - n_traced
        if (elapsed >= args.seconds and n_traced >= min_traced and n_untraced >= min_untraced):
            break
        traced = tracer is not None and len(records) % 2 == 1
        records.append(run_one_sweep(harness, config, expected, tracer if traced else None, len(records)))
    setup += measure_setup(config_path, SETUP_LAUNCHES - len(setup))
    wall = time.perf_counter() - start
    env["loadavg_end"] = list(os.getloadavg())
    machine_end = machine_cpu_s()
    env["contention"] = None
    if machine_start and machine_end:
        # CPUs kept busy by other processes over the run, on average; the
        # load average cannot tell them apart from this run's own work
        outside = (machine_end[0] - machine_start[0] - (own_cpu_s() - own_start)) / wall
        env["outside_cpus"] = round(outside, 3)
        env["steal_cpus"] = round((machine_end[1] - machine_start[1]) / wall, 3)
        env["contention"] = outside >= CONTENTION_CPUS or env["steal_cpus"] >= CONTENTION_CPUS
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    digests = [r["digest"] for r in records if "digest" in r]
    reference = digests[0] if digests else None
    for r in records:
        if "digest" in r and r["digest"] != reference:
            r["problems"].append("CSV set differs from the first sweep of this run")

    summaries = []
    if tracer is not None:
        for sweep_id, r in enumerate(records):
            if r["traced"] and "digest" in r:
                summaries.append(scaled(tracer.summary(sweep_id), r))
                if count_fields(summaries[-1]) != count_fields(summaries[0]):
                    r["problems"].append("traced counts differ from the first traced sweep")
        tracer.write(OUT_ROOT / f"trace-{workload.name}-seed{args.seed}.jsonl")
        # a traced name the program no longer has would read as 0, a false win
        for r in records:
            if r["traced"]:
                r["problems"] += [f"traced name {name} does not exist" for name in tracer.missing]

    failed = sum(1 for r in records if r["problems"])
    untraced = [r for r in records if not r["traced"] and not r["problems"]]
    # each traced sweep against the untraced one just before it, so a slow
    # phase of the machine lands on both sides of the difference
    overheads = [
        t["sweep_s"] * t["wall_scale"] - u["sweep_s"] * u["wall_scale"]
        for u, t in zip(records[0::2], records[1::2])
        if t["traced"] and not u["problems"] and not t["problems"]
    ]
    if not untraced or (tracer is not None and not overheads):
        print("error: no sweep completed with correct outputs", file=sys.stderr)
        for r in records:
            for problem in r["problems"]:
                print(f"  {problem}", file=sys.stderr)
        return 1

    def median_of(rows, key, scale=None):
        return statistics.median(r[key] * (r[scale] if scale else 1.0) for r in rows)

    # times at the reference speed (see reference.py): each sweep is scaled by
    # the reference work timed just before it; a set-up launch, which is as
    # short as that reference, by the median of the run's reference times, as
    # the median of the launches is the set-up time
    setup_scale = median_of(records, "wall_scale")
    if tracer is None:
        metrics = {
            "setup_s": (median_of(setup, "setup_s") * setup_scale, "s"),
            "sweep_s": (median_of(untraced, "sweep_s", "wall_scale"), "s"),
            "cpu_s": (median_of(untraced, "cpu_s", "cpu_scale"), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
    else:
        metrics = layer_metrics(summaries, setup, setup_scale, overheads)

    info = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "grid_rows": expected,
        "sweeps": len(records),
        "failed_frac": failed / len(records),
        "unscaled": {
            "setup_s": median_of(setup, "setup_s"),
            "sweep_s": median_of(untraced, "sweep_s"),
            "cpu_s": median_of(untraced, "cpu_s"),
        },
        "wall_scale_samples": [r["wall_scale"] for r in records],
        "sweep_s_samples": [r.get("sweep_s") for r in records],
        "traced_samples": [r["traced"] for r in records],
        "cpu_s_samples": [r.get("cpu_s") for r in records],
        "setup_s_samples": [s["setup_s"] for s in setup],
        "csv_sha256": reference,
        "problems": sorted({p for r in records for p in r["problems"]}),
        "environment": env,
    }
    if tracer is not None:
        info["spans"] = {
            name: {"calls": row["calls"], "self_s": row["self_s"]}
            for name, row in sorted(summaries[0].items())
        }
    for problem in info["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def scaled(summary: dict, record: dict) -> dict:
    """A sweep's span summary with its times at the reference speed."""
    return {
        span: {
            key: value * record["cpu_scale" if key == "cpu_s" else "wall_scale"] if key in TIME_FIELDS else value
            for key, value in row.items()
        }
        for span, row in summary.items()
    }


def layer_metrics(summaries: list[dict], setup: list[dict], setup_scale: float, overheads: list[float]) -> dict:
    first = summaries[0]

    def value(span: str, field: str):
        if field.endswith("_s"):
            return statistics.median(s.get(span, {}).get(field, 0.0) for s in summaries)
        return int(first.get(span, {}).get(field, 0))

    metrics = {
        name: (value(span, field), "s" if field.endswith("_s") else "B" if field == "bytes" else "count")
        for name, span, field in SPAN_METRICS
    }
    for route in ROUTES:
        calls = value(f"estimators.{route}", "calls")
        usable = value(f"estimators.{route}", "usable")
        metrics[f"estimators.{route}.usable_frac"] = (usable / calls if calls else 0.0, "fraction")
    for flag in FLAGS:
        total = sum(value(f"estimators.{route}", f"flag.{flag}") for route in ROUTES)
        metrics[f"estimators.flag.{flag}"] = (total, "count")
    metrics["cli.import_s"] = (statistics.median(s["import_s"] for s in setup) * setup_scale, "s")
    metrics["harness.load_config.self_s"] = (statistics.median(s["load_s"] for s in setup) * setup_scale, "s")
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    return metrics


if __name__ == "__main__":
    raise SystemExit(run(parse_args(sys.argv[1:])))
