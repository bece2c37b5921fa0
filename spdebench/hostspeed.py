"""Host speed, sampled while the workload runs.

On a shared two-core x86 virtual machine the same block runs at speeds up
to 2x apart, depending on what other tenants do on the same physical core.
CPU time is inflated as much as wall time there, so neither can be trusted
alone.  The benchmark therefore pins itself to one CPU and runs a
``Sampler`` thread beside the workload: every ``PERIOD_S`` it times a small
fixed kernel (an interpreter loop over 32x32 numpy products, like the
workloads' inner loops, but no spdesim code) in thread CPU time.  The mean
kernel time over an interval, divided by ``REFERENCE_KERNEL_S``, is how much
slower than the reference host that CPU was during the interval, and times
and rates are scaled by it.

Measured on that machine: over 64-path ``moments-implicit`` blocks in one
process, the interquartile range over median was 19% for raw paths/s and 2%
for scaled paths/s.  Without pinning, the kernel may run on the other CPU
and does not follow the workload's slow-downs.

The kernel holds the GIL for about a millisecond per sample, so the
workload loses about 2% of its time to it, equally in every run.
"""

from __future__ import annotations

import math
import os
import statistics
import threading
import time

import numpy as np

PERIOD_S = 0.05
KERNEL_STEPS = 300
# the scaled figures are those of a host where the kernel takes this long
REFERENCE_KERNEL_S = 1e-3


def pin_to_one_cpu():
    """Restrict this process (and the processes it starts) to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def kernel_seconds(matrix):
    """Thread CPU time of one run of the fixed reference kernel."""
    x = np.linspace(0.0, 1.0, 32)
    acc = 0.0
    started = time.thread_time()
    for i in range(KERNEL_STEPS):
        x = x + 1e-3 * (matrix @ x)
        acc += float(x[i % 32])
    elapsed = time.thread_time() - started
    if not math.isfinite(acc):
        raise RuntimeError("reference kernel diverged")
    return elapsed


class Sampler:
    """Background thread that times the kernel every ``PERIOD_S``.

    Use as a context manager; the thread is stopped and joined on exit.
    """

    def __init__(self):
        self.times = []
        self.kernel_s = []
        self._matrix = np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32) / 64.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def _loop(self):
        while not self._stop.wait(PERIOD_S):
            now = time.perf_counter()
            self.kernel_s.append(kernel_seconds(self._matrix))
            self.times.append(now)

    def slowdown(self, start, end):
        """Mean kernel time over ``[start, end]`` relative to the reference.

        Waits for a sample after ``end`` if the interval holds none yet.
        """
        while True:
            inside = [
                k for t, k in zip(self.times, self.kernel_s) if start <= t <= end
            ]
            if inside:
                return statistics.fmean(inside) / REFERENCE_KERNEL_S
            if not self._thread.is_alive():
                raise RuntimeError("host-speed sampler stopped")
            time.sleep(PERIOD_S)
            end = max(end, time.perf_counter())
