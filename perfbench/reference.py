"""A calibration kernel that tracks the speed of the machine during a run.

On a 2-vCPU virtual machine on a shared host (Intel Xeon), CPU speed was
measured to change by up to 2x within seconds as other tenants loaded the
host, so raw times taken a minute apart are not comparable. The benchmark
therefore measures CPU time, which waiting for the CPU does not inflate,
runs this kernel after every call, and scales the call's CPU time by
``speed`` of the kernel runs just before and just after it. A scaled time
reads as it would on that machine uncontended, where the kernel takes
``NOMINAL_S``.

The kernel does the library's kind of work (Python calls, a small frozen
dataclass, small numpy arrays) and never calls the library, so a change to
fishergeo cannot move it.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

#: Kernel CPU time, in seconds, on the uncontended reference machine.
NOMINAL_S = 0.00017


@dataclass(frozen=True)
class _Point:
    index: int
    weights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", np.array(self.weights, dtype=float))


def kernel() -> float:
    """Run the calibration kernel once and return its CPU time in seconds."""
    start = time.process_time()
    total = 0.0
    for i in range(24):
        point = _Point(i, [1.0, 2.0, 3.0, float(i)])
        w = point.weights / np.sum(point.weights)
        total += float(np.dot(w, point.weights)) + sum(k * 0.5 for k in range(16))
    return time.process_time() - start


def sample(budget_s: float, min_runs: int) -> list[float]:
    """Time the kernel at least ``min_runs`` times and for at least ``budget_s``.

    A first, untimed run refills the caches that the preceding work evicted,
    so the library's memory use cannot move the calibration.
    """
    kernel()
    times: list[float] = []
    while len(times) < min_runs or sum(times) < budget_s:
        times.append(kernel())
    return times


def speed(times: list[float]) -> float:
    """Nominal over measured kernel time."""
    return NOMINAL_S / statistics.median(times)
