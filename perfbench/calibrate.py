"""A fixed reference kernel, timed next to every repetition.

The kernel never touches the package, so its time depends only on how fast
the host runs at that moment.  It mixes the two kinds of work the workloads
do: many numpy calls on arrays of a few hundred points (the rate engine's
refinement loop) and whole-array passes over large random arrays (the
simulator).

    python3 perfbench/calibrate.py   # prints one timing, in seconds
"""

from __future__ import annotations

import time

import numpy as np

SMALL_ROUNDS = 3000
LARGE_ROUNDS = 4
LARGE_POINTS = 1 << 17  # the simulator's chunk size


def _small() -> float:
    acc = 0.0
    x = np.linspace(-8.0, 8.0, 257)
    for k in range(SMALL_ROUNDS):
        y = np.log1p(np.exp(-np.abs(x) * (1.0 + k * 1e-3)))
        keep = y > 1e-3
        x = np.concatenate([x[keep], 0.5 * (x[keep] + 1e-3)])[:257]
        acc += float(y.sum())
    return acc


def _large() -> float:
    rng = np.random.default_rng(1)
    acc = 0.0
    for _ in range(LARGE_ROUNDS):
        bits = rng.integers(0, 2, size=(2, LARGE_POINTS), dtype=np.int8)
        y = (2.0 * bits[0] - 1.0) + 0.5 * (2.0 * bits[1] - 1.0)
        y += rng.standard_normal(LARGE_POINTS)
        pdf = np.exp(-0.5 * (y - 1.5) ** 2) + np.exp(-0.5 * (y + 0.5) ** 2)
        acc += float(np.count_nonzero((y >= 0.0) != bits[0].astype(bool)))
        acc += float(np.log2(pdf + 1e-300).sum())
    return acc


def calibrate() -> float:
    """Seconds the reference kernel takes now."""
    start = time.perf_counter_ns()
    _small()
    _large()
    return (time.perf_counter_ns() - start) * 1e-9


if __name__ == "__main__":
    print(calibrate())
