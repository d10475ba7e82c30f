"""Host speed gauge: a fixed kernel timed all through a run.

On a shared host the same work can take 1.5x longer from one second, or
one minute, to the next, and every kind of work slows together: numpy SVDs,
pure-Python loops and process start alike. Raw wall times then measure the
host more than the program. So the benchmark times this kernel (three SVDs
of a fixed 32x32 complex matrix and a pure-Python loop, about a millisecond,
best of two) every ``EVERY_S`` seconds and around each set-up sample, and
scales every measured time by ``REFERENCE_MS`` over the kernel's
running-median time at that moment: the result reads as time on a reference
host where the kernel takes ``REFERENCE_MS``. The kernel never touches
shortops, so a change to the program cannot move the scale; the raw times
are reported beside the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REFERENCE_MS = 1.2   # about the kernel's time on an idle 2-vCPU Xeon VM
EVERY_S = 0.25
SMOOTH = 5           # samples in the running median


class Gauge:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self._m = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        self.times: list[float] = []     # perf_counter() at each sample
        self.ms: list[float] = []        # the kernel's time at each sample

    def _kernel_ms(self) -> float:
        """Best of two runs, so that caches another process left cold (after
        a CLI child, say) do not read as a slow host."""
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            for _ in range(3):
                np.linalg.svd(self._m)
            acc = 0
            for k in range(8000):
                acc += k * k
            best = min(best, time.perf_counter() - t0)
        return best * 1e3

    def sample(self, count: int = 1) -> float:
        """Time the kernel ``count`` times; returns the seconds that took."""
        t0 = time.perf_counter()
        for _ in range(count):
            self.times.append(time.perf_counter())
            self.ms.append(self._kernel_ms())
        return time.perf_counter() - t0

    def factors(self, moments: list[float]) -> list[float]:
        """Scale factor (reference over running-median kernel time) at each
        moment, from the samples nearest to it."""
        half = SMOOTH // 2
        smooth = [statistics.median(self.ms[max(0, j - half): j + half + 1])
                  for j in range(len(self.ms))]
        return [REFERENCE_MS / smooth[max(0, bisect.bisect_right(self.times, t) - 1)]
                for t in moments]

    def summary(self) -> dict:
        return {"samples": len(self.ms), "start_ms": self.ms[0], "end_ms": self.ms[-1],
                "median_ms": statistics.median(self.ms), "reference_ms": REFERENCE_MS}
