"""Machine-speed calibration for throughput on a shared host.

On a host shared with other tenants the same batch of trials can take 30%
longer from one minute to the next, with the process never descheduled:
contention slows the core itself. A fixed kernel, run right before and after
each batch, measures how fast the core is at that moment. The kernel is a
frozen copy of the kind of work `mdee` does (Fourier design builds, block
correlation stacks, their SVD and inverses, small least-squares fits in a
Python loop) and belongs to the benchmark, so no change to `mdee` can speed
it up or slow it down.

A batch's throughput is reported at the reference speed: its measured rate
times NOMINAL_KERNELS_PER_S over the kernel rate measured around it.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel rate of the reference machine: the median measured on a 2-core
# x86-64 host at 2.1 GHz with one BLAS thread. Rates are reported as if the
# core ran at this speed; changing it rescales every recorded throughput.
NOMINAL_KERNELS_PER_S = 30.0
CALIBRATION_SECONDS = 0.15

_rng = np.random.default_rng(12345)
_POOL = _rng.normal(size=(1500, 1))
_TEST = _rng.normal(size=(1000, 1))
_SMALL = _rng.normal(size=(40, 20, 3))
_SMALL_Y = _rng.normal(size=(40, 20))


def _design(X: np.ndarray, d: int) -> np.ndarray:
    cols = [np.full(X.shape[0], float(X.shape[1]))]
    for k in range(2, d + 1):
        p = k // 2
        wave = np.cos(p * X) if k % 2 == 0 else np.sin(p * X)
        cols.append(np.sqrt(2.0) * wave.sum(axis=1))
    return np.column_stack(cols)


def kernel() -> float:
    """One unit of reference work; returns a checksum so nothing is skipped."""
    acc = 0.0
    for d in range(1, 16):
        stack = _design(_POOL, d).reshape(75, 20, d)
        corrs = np.einsum("bij,bik->bjk", stack, stack) / 20 + 1e-9 * np.eye(d)
        svals = np.linalg.svd(corrs, compute_uv=False)
        invs = np.linalg.inv(corrs)
        acc += float(np.trace(corrs.mean(axis=0) @ invs.mean(axis=0))) + float(svals[:, 0].sum())
        acc += float(_design(_TEST, d).sum())
    for A, y in zip(_SMALL, _SMALL_Y):
        acc += float(np.linalg.lstsq(A, y, rcond=None)[0].sum())
    return acc


def kernels_per_second(seconds: float = CALIBRATION_SECONDS) -> float:
    """Run the kernel for at least `seconds`; return kernels per wall second."""
    count = 0
    start = time.perf_counter()
    while True:
        kernel()
        count += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return count / elapsed
