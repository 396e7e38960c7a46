"""The machine's speed, measured by a fixed piece of work that does not touch
gapcert.

On a shared machine the same code can run tens of percent slower for
seconds to minutes at a time. Each timed call into the program is divided
by this kernel's time just before it, so that runs made in slow and fast
stretches compare. The kernel mixes Python object and arithmetic work with
numpy batches of the size the Gaussian estimator uses.
"""

from __future__ import annotations

import time

import numpy as np

# about the kernel's time on the machine the benchmark was written on, in its
# fast stretches; rescaled timings are seconds at that speed
REFERENCE_SECONDS = 0.008

_GRID = np.linspace(0.0, 1.0, 16_000).reshape(2000, 8)


def calibration_seconds() -> float:
    start = time.perf_counter()
    table: dict = {}
    for i in range(3000):
        key = tuple(range(i % 7, i % 7 + 5))
        table[key] = table.get(key, 0.0) + sum(key) * 1.5
        row = [j * 0.5 for j in range(8)]
        max(row) - min(row)
    for _ in range(15):
        (np.cos(_GRID * 1.1) + np.log1p(_GRID)).mean(axis=1)
    return time.perf_counter() - start

