"""A fixed CPU kernel timed beside the workload, to track the machine's speed.

The shared test machine's speed moves by up to 1.8x within a minute, and it
moves the workloads' code and this kernel largely together.  The benchmark
times the kernel right before and after each timed interval of a workload
and reports the interval divided by the kernel's slowness (its time over its
calibrated time): the time the interval would take on the machine at its
calibrated speed.
bench/rationale.json ("timing") gives the measurements behind this.

The kernel is one LSTM-like step repeated: interpreted Python, a product
with a 512x256 matrix and gate non-linearities, on one row with a sampling
search (the mix of a rollout step) or on 32 rows (the mix of a training
batch, where matrix products weigh more and interpretation less).  It uses no journeynet code, so no change
to the library can move it, and it runs with the garbage collector off, so
the library's heap cannot either.

    OPENBLAS_NUM_THREADS=1 python3 bench/reference.py   # median kernel time here
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# Steps per kernel run and the run's median time on the calibration machine
# (2 vCPUs of an Intel Xeon at 2.0 GHz, Python 3.11.7, numpy 2.4.6, OpenBLAS
# 0.3.31 on 1 thread), by rows per step: 1 row mirrors a rollout step, 32
# rows a training batch.
STEPS = {1: 1500, 32: 160}
CALIBRATED_S = {1: 0.068, 32: 0.069}

_gen = np.random.default_rng(20180419)
_W = _gen.standard_normal((512, 256)) * 0.05
_B = _gen.standard_normal(512) * 0.05
_X = _gen.standard_normal((32, 128))


def _row_kernel(steps: int) -> float:
    h = np.zeros(128)
    c = np.zeros(128)
    xh = np.empty(256)
    xh[:128] = _X[0]
    acc = 0.0
    for t in range(steps):
        xh[128:] = h
        z = _W @ xh + _B
        gates = 1.0 / (1.0 + np.exp(-z[:384]))
        c = gates[128:256] * c + gates[:128] * np.tanh(z[384:])
        h = gates[256:384] * np.tanh(c)
        cdf = np.cumsum(np.exp(h[:12]))
        acc += int(np.searchsorted(cdf, (t * 0.618034) % 1.0 * cdf[-1]))
    return acc


def _batch_kernel(steps: int) -> float:
    rows = len(_X)
    h = np.zeros((rows, 128))
    c = np.zeros((rows, 128))
    xh = np.empty((rows, 256))
    xh[:, :128] = _X
    acc = 0.0
    for t in range(steps):
        xh[:, 128:] = h
        z = xh @ _W.T + _B
        gates = 1.0 / (1.0 + np.exp(-z[:, :384]))
        c = gates[:, 128:256] * c + gates[:, :128] * np.tanh(z[:, 384:])
        h = gates[:, 256:384] * np.tanh(c)
        acc += float(h.sum())
    return acc


def slowness(rows: int) -> float:
    """One kernel run's time now over its calibrated time (1.0 at calibrated speed)."""
    kernel = _row_kernel if rows == 1 else _batch_kernel
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel(STEPS[rows])
        return (time.perf_counter() - t0) / CALIBRATED_S[rows]
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` timed between kernel runs of slowness `before` and `after`, at calibrated speed."""
    return seconds / ((before + after) / 2.0)


if __name__ == "__main__":
    for rows in STEPS:
        slowness(rows)
        runs = [slowness(rows) * CALIBRATED_S[rows] for _ in range(100)]
        print(f"{rows:2d} rows: kernel median {statistics.median(runs):.6f} s over {len(runs)} runs")
