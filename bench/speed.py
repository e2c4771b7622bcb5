"""Machine-speed reference for timings taken on a shared host.

On a small shared machine the speed of one core drifts by up to a factor
of two in phases of 5-20 s.  CPU time drifts with wall time, so the drift
is in instructions per second (contention on the host), not in
scheduling, and quantiles of the raw timings do not remove it: measured
over 20-s runs, the spread of raw throughput between runs reached 20-35%.

A fixed kernel of numpy SVDs (8x6 and 64x32, complex) and interpreted
Python is timed between cases every ``EVERY_S`` seconds.  Each case is
then rescaled by the kernel's median duration within ``WINDOW_S`` of the
case start, to the duration it would have had with the kernel at its
nominal speed.  With this local rescaling the spread between runs fell
to 2-7% on the same data.  The kernel does not touch extensio, so a
change to the library moves the rescaled timings exactly as much as the
raw ones; the raw figures are printed beside them.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

# Kernel duration that rescaled timings are expressed at.  Changing it
# rescales every timing of the benchmark, so it stays fixed.
NOMINAL_KERNEL_MS = 4.0
EVERY_S = 0.15
WINDOW_S = 0.6


class SpeedReference:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        small = [rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6)) for _ in range(30)]
        large = [rng.standard_normal((64, 32)) + 1j * rng.standard_normal((64, 32)) for _ in range(4)]
        self._mats = small + large
        self.times: list[float] = []
        self.samples: list[float] = []
        self._due = 0.0

    def measure(self) -> float:
        """Run the kernel once and return its duration in seconds."""
        t0 = time.perf_counter()
        for mat in self._mats:
            np.linalg.svd(mat)
        acc = 0
        for i in range(5000):
            acc += i * i % 7
        return time.perf_counter() - t0

    def maybe_sample(self) -> None:
        """Time the kernel if ``EVERY_S`` passed since the last sample."""
        now = time.perf_counter()
        if now < self._due:
            return
        took = self.measure()
        self.times.append(now + took / 2)
        self.samples.append(took)
        self._due = now + took + EVERY_S

    def scales(self, starts) -> np.ndarray:
        """Per start time, the factor taking a duration to nominal speed."""
        times = np.asarray(self.times)
        samples = np.asarray(self.samples)
        starts = np.asarray(starts)
        lo = np.searchsorted(times, starts - WINDOW_S)
        hi = np.searchsorted(times, starts + WINDOW_S)
        fallback = float(np.median(samples))
        cache: dict[tuple[int, int], float] = {}
        out = np.empty(starts.shape)
        for i, key in enumerate(zip(lo.tolist(), hi.tolist())):
            if key not in cache:
                cache[key] = float(np.median(samples[key[0] : key[1]])) if key[1] > key[0] else fallback
            out[i] = cache[key]
        return NOMINAL_KERNEL_MS / (out * 1e3)

    def scale_around(self, fn):
        """Run ``fn`` between two pairs of kernel samples; return its result
        and the factor from their median."""
        before = [self.measure(), self.measure()]
        result = fn()
        after = [self.measure(), self.measure()]
        return result, NOMINAL_KERNEL_MS / (median(before + after) * 1e3)
