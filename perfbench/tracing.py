"""In-memory span tracing of csqkd, installed from outside the program.

Each target is a module attribute that a caller looks up at call time
(``csqkd.harness.simulate_block`` is what ``run_sweep`` calls), so replacing
it for the duration of a sweep records every call without touching the
program's source.  A span holds its name, start, end, parent span and sweep
id, plus optional counts taken from the call's result.  Spans stay in a list
until the run ends; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _samples(dataset) -> dict[str, int]:
    return {"samples": int(sum(np.size(block) for block in dataset.alice))}


def _rows(plan) -> dict[str, int]:
    return {"rows": int(np.size(plan.indices))}


def _omp(solution) -> dict[str, int]:
    support = np.asarray(solution.support)
    return {
        "atoms": int(support.size),
        "offdc": int(support.size > 0 and not np.any(support == 0)),
        "degenerate": int(bool(solution.degenerate_support)),
    }


def _estimate(estimate) -> dict[str, int]:
    counts = {"usable": int(bool(estimate.usable))}
    for flag in estimate.flags:
        counts[f"flag.{flag}"] = 1
    return counts


def _bytes_written(files) -> dict[str, int]:
    return {"bytes": sum(Path(p).stat().st_size for p in files.values())}


# (module, attribute looked up by the caller, span name, result counter)
TARGETS = (
    ("csqkd.harness", "run_sweep", "harness.run_sweep", None),
    ("csqkd.harness", "write_reports", "harness.write_reports", _bytes_written),
    ("csqkd.harness", "config_hash", "harness.config_hash", None),
    ("csqkd.harness", "compute_mse", "harness.compute_mse", None),
    ("csqkd.harness", "sample_lognormal_transmittances", "channel.ensemble", None),
    ("csqkd.harness", "build_ensemble", "channel.ensemble", None),
    ("csqkd.harness", "ensemble_means", "channel.ensemble_means", None),
    ("csqkd.harness", "simulate_block", "channel.simulate_block", _samples),
    ("csqkd.harness", "make_sampling_plan", "sensing.make_sampling_plan", _rows),
    ("csqkd.harness", "RowSampledIdftOperator", "sensing.RowSampledIdftOperator.harness", None),
    ("csqkd.harness", "mutual_incoherence", "sensing.mutual_incoherence", None),
    ("csqkd.harness", "measured_variance", "estimators.variance", None),
    ("csqkd.harness", "block_variances", "estimators.variance", None),
    ("csqkd.harness", "estimate_subchannel_variables", "estimators.variables", _estimate),
    ("csqkd.harness", "estimate_subchannel_statistics", "estimators.statistics", _estimate),
    ("csqkd.harness", "aggregate_estimates", "estimators.aggregate_estimates", None),
    ("csqkd.harness", "summary_from_means", "security.summary_from_means", None),
    ("csqkd.harness", "secret_key_rate", "security.secret_key_rate", None),
    ("csqkd.estimators", "RowSampledIdftOperator", "sensing.RowSampledIdftOperator.estimators", None),
    ("csqkd.estimators", "omp_solve", "sensing.omp_solve", _omp),
)

# span record layout: [sweep, id, parent, name, start, end, cpu_start, cpu_end, counts]
_FIELDS = ("sweep", "id", "parent", "name", "start", "end", "cpu_start", "cpu_end", "counts")


class Tracer:
    """Records spans for the sweeps run while :meth:`installed` is active."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._sweep: int | None = None

    def _wrap(self, fn, name: str, counter):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [self._sweep, len(spans), stack[-1] if stack else None, name,
                      0.0, 0.0, 0.0, 0.0, None]
            spans.append(record)
            stack.append(record[1])
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                cpu1 = time.process_time()
                stack.pop()
                record[4:8] = t0, t1, cpu0, cpu1
            if counter is not None:
                record[8] = counter(result)
            return result

        return traced

    def _traced(self, target, name: str, counter):
        if isinstance(target, type):
            # subclass, so isinstance checks against the original still hold
            init = self._wrap(target.__init__, name, None)
            return type(target.__name__, (target,), {"__init__": init, "__module__": target.__module__})
        return self._wrap(target, name, counter)

    @contextlib.contextmanager
    def installed(self, sweep_id: int):
        """Replace every target for the duration of one sweep, then restore."""
        self._sweep = sweep_id
        saved = []
        try:
            for module_name, attr, name, counter in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    if f"{module_name}.{attr}" not in self.missing:
                        self.missing.append(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._traced(original, name, counter))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self._stack.clear()
            self._sweep = None

    def summary(self, sweep_id: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, wall, self and CPU seconds, summed counts."""
        spans = [s for s in self.spans if s[0] == sweep_id]
        child_wall: dict[int, float] = defaultdict(float)
        child_cpu: dict[int, float] = defaultdict(float)
        for s in spans:
            if s[2] is not None:
                child_wall[s[2]] += s[5] - s[4]
                child_cpu[s[2]] += s[7] - s[6]
        out: dict[str, dict[str, float]] = {}
        for s in spans:
            row = out.setdefault(s[3], defaultdict(float))
            row["calls"] += 1
            row["wall_s"] += s[5] - s[4]
            row["self_s"] += s[5] - s[4] - child_wall[s[1]]
            row["cpu_s"] += s[7] - s[6] - child_cpu[s[1]]
            for key, value in (s[8] or {}).items():
                row[key] += value
        return {name: dict(row) for name, row in out.items()}

    def write(self, path: Path) -> None:
        """Dump every span as one JSON object per line."""
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(_FIELDS, s))) + "\n")
