"""Workload definitions: each turns a benchmark seed into a csqkd config file.

The program only ever sees the generated config.  Seed 0 uses the built-in
presets' seeds (``sampler_seed = 7``, sweep seeds counted from 1); seed ``s``
shifts the ensemble sampler to ``7 + s`` and takes the next disjoint block of
sweep seeds, so two benchmark seeds never share a simulated dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

# Every key of the config schema is written out, so a later change of a
# program default does not silently change what a workload measures.
_COMMON = {
    "ensemble": {
        "source": "sampler",
        "excess_noise": "0.01",
        "attenuation_per_km": "0.15",
        "sigma_log": "0.3",
    },
    "protocol": {
        "modulation_variance": "4.0",
        "detector_efficiency": "0.6",
        "electronic_noise": "0.05",
        "reconciliation_efficiency": "0.95",
    },
    "estimation": {"estimators": "both"},
    "security": {"detections": "homodyne,heterodyne"},
}
DETECTIONS = 2
ESTIMATORS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    distances_km: tuple[float, ...]
    subchannels: int
    block_length: int
    fractions: tuple[float, ...]
    seeds_per_sweep: int
    variance_mode: str = "replicated"
    variance_blocks: int = 100
    k_max: int = 1

    def sweep_seeds(self, seed: int) -> tuple[int, ...]:
        first = seed * self.seeds_per_sweep + 1
        return tuple(range(first, first + self.seeds_per_sweep))

    def config_text(self, seed: int, out_dir: str) -> str:
        """INI text of the workload's sweep for benchmark seed ``seed``."""
        sections = {key: dict(value) for key, value in _COMMON.items()}
        sections["ensemble"].update(
            distances_km=_join(self.distances_km),
            subchannels=str(self.subchannels),
            block_length=str(self.block_length),
            sampler_seed=str(7 + seed),
        )
        sections["estimation"].update(
            fractions=_join(self.fractions),
            seeds=_join(self.sweep_seeds(seed)),
            variance_mode=self.variance_mode,
            variance_blocks=str(self.variance_blocks),
            k_max=str(self.k_max),
        )
        sections["output"] = {"directory": out_dir}
        lines: list[str] = []
        for section, keys in sections.items():
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {value}" for key, value in keys.items())
            lines.append("")
        return "\n".join(lines)

    def expected_rows(self) -> dict[str, int]:
        """Row counts of each CSV for one sweep of this grid."""
        d = len(self.distances_km)
        f = len(self.fractions)
        return {
            "estimates": d * self.subchannels * f * self.seeds_per_sweep * ESTIMATORS,
            "mse": d * f * ESTIMATORS,
            "keyrate": d * DETECTIONS * (1 + ESTIMATORS),
            # the coherence diagnostic runs on the first sweep seed only
            "mip": d * f * ESTIMATORS * self.subchannels,
        }


def _join(values) -> str:
    return ",".join(str(v) for v in values)


WORKLOADS = {
    w.name: w
    for w in (
        # Small blocks, many calls: Python per-call overhead dominates, and
        # MIP runs for 1 seed of 16, so it bypasses MIP optimisations.
        Workload(
            name="desk-seeds",
            distances_km=(5.0, 10.0),
            subchannels=20,
            block_length=2000,
            fractions=(0.1, 0.4, 1.0),
            seeds_per_sweep=16,
        ),
        # Multi-atom OMP with threaded-BLAS refits, non-constant variance
        # vectors, and the low-SNR flagged and off-DC paths.
        Workload(
            name="lowsnr-blockwise",
            distances_km=(10.0, 40.0),
            subchannels=50,
            block_length=10_000,
            fractions=(0.1, 0.4),
            seeds_per_sweep=2,
            variance_mode="blockwise",
            variance_blocks=100,
            k_max=3,
        ),
    )
}
