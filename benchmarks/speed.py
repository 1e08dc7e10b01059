"""Times scaled to a fixed machine speed.

On a shared machine the speed of one core can change by a factor of two
for seconds to minutes, which no amount of repetition averages out.  So a
calibration kernel (exact 6x6 products in plain Fractions, no code of the
program) is timed before and after every timed section and, by a SIGALRM
timer, every SAMPLE_INTERVAL_S within it.  The section's time is multiplied
by CAL_REF_S / (mean kernel time over those samples), so it reads as
seconds on a machine where the kernel takes CAL_REF_S.  Sampling inside a
section matters: for sections of seconds, scaling by the samples at its
ends alone was noisier than no scaling at all.

The kernel's own time is taken off the clock of `Speedometer.now`, so a
section, and any span timed on that clock inside it, excludes it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

CAL_MATRIX = [
    [Fraction(7 * i + 3 * j + 1, (i + 2 * j) % 5 + 1) for j in range(6)]
    for i in range(6)
]
CAL_REF_S = 0.0025  # about the kernel's time on an unloaded 2-vCPU x86-64 VM
SAMPLE_INTERVAL_S = 0.1


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    cols = list(zip(*CAL_MATRIX))
    for _ in range(4):
        [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols]
         for row in CAL_MATRIX]
    return time.perf_counter() - t0


class Speedometer:
    """A clock that stops while the kernel runs, and sections timed on it."""

    def __init__(self):
        self._paused = 0.0
        self._samples: list[float] = []
        kernel_seconds()  # warm up

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def _sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        self._samples.append(kernel_seconds())
        self._paused += time.perf_counter() - t0

    def timed(self, fn, *args):
        """Run fn(*args); returns (result, start, end, scale): start and end
        on the `now` clock, and the factor that scales end - start."""
        # the sample that closed the previous section opens this one
        self._samples = self._samples[-1:]
        if not self._samples:
            self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            t0 = self.now()
            result = fn(*args)
            t1 = self.now()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._sample()
        return result, t0, t1, CAL_REF_S / statistics.fmean(self._samples)
