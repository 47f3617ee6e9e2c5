"""Fixed reference work that gauges how fast the machine runs during a run.

The host this benchmark was written on changes speed in phases lasting
minutes: everything, a pure-Python loop included, runs up to 2x slower, and
CPU time per unit of work moves with it.  No run can sit out such a phase, so
each run times this reference work just before every sweep and scales the
sweep's times by ``REFERENCE_S`` over the reference time.  The reference time
is the median of several short chunks, so a burst of a few milliseconds that
hits one chunk does not count.  The work never calls csqkd, so a change to
the program cannot move it, and it mixes what a sweep does: interpreter
loops, small numpy calls and m = 10^4 FFTs.  It uses no BLAS beyond a
200-element dot product, so it runs on one thread.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Chunks timed per reference measurement; their median is taken, so a burst
#: of a few milliseconds that hits one chunk does not count.
CHUNKS = 10

#: Nominal seconds of one :func:`reference_chunk` call, about what it takes on
#: a 2-vCPU Intel Xeon VM (Python 3.11.7, numpy 2.4.6).  Scaled times read as
#: seconds on a machine that runs a chunk in exactly this time.
REFERENCE_S = 0.02


def reference_chunk() -> None:
    rng = np.random.default_rng(0)
    total = 0
    for i in range(10_000):
        total += i * i
    for _ in range(15):
        v = rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000)
        s = np.fft.ifft(np.fft.fft(v, norm="ortho"), norm="ortho")
        np.argsort(np.abs(s))
        float(np.dot(s.real[:200], v.real[:200]))


def time_reference() -> tuple[float, float]:
    """Median wall and CPU seconds of one reference chunk, over CHUNKS chunks."""
    walls, cpus = [], []
    for _ in range(CHUNKS):
        c0 = time.process_time()
        t0 = time.perf_counter()
        reference_chunk()
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
    return statistics.median(walls), statistics.median(cpus)
