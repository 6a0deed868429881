"""Drift control: a fixed numpy kernel timed between the operations of a run.

The speed of a small shared VM drifts: over seconds it switches between a
fast and a slow state about 1.5x apart, and over minutes the share of time
spent slow changes, so whole runs minutes apart differ by a third with
nothing changed. Every timing of a run moves with it. The kernel here is
the benchmark's own code (FFTs, a matrix product and element-wise maths on
fixed arrays, the mix the vocoder and the model layers run), so no change to
melcodec moves it, and its mean time over a run tracks the machine's mean
speed during that run.

The loop samples the kernel before every operation and after the last one,
and run.py scales the loop's timing metrics by `factor()`, the square root
of REFERENCE_S over the mean kernel time of the run. The workloads' timings
move by less than the kernel does: over sets of ten runs, the slope of
log(timing) against log(kernel time) was 0.39 to 0.87, so scaling by the
full ratio over-corrects, and did so on codec-paper16k-long. The square
root corrects by half the kernel's change, near the low end of those
slopes. The scaled metrics are in reference seconds, roughly the time the
work would have taken with the machine at the speed where the kernel takes
REFERENCE_S. Their wall times go to the result file.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# A round figure within the kernel's mean times on the reference machine,
# 10-20 ms over the runs in bench/README.md.
REFERENCE_S = 0.018
CALLS = 5  # kernel calls per sample


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._frames = rng.standard_normal((200, 512))
        self._basis = rng.standard_normal((96, 257))
        self.samples: list[float] = []  # seconds of each kernel call
        self._kernel()  # untimed: the first call pays one-off costs

    def _kernel(self) -> float:
        acc = 0.0
        for _ in range(8):
            spec = np.fft.rfft(self._frames, axis=1)
            mel = self._basis @ np.abs(spec).T
            wave = np.fft.irfft(spec * np.exp(0.1j), axis=1)
            acc += float(np.log1p(np.abs(mel)).sum() + np.tanh(wave).sum())
        return acc

    def sample(self) -> None:
        for _ in range(CALLS):
            start = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        """Reference seconds per wall second over the run so far."""
        return math.sqrt(REFERENCE_S / statistics.fmean(self.samples))
