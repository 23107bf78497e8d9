"""A machine-speed reference, so that times from a shared, noisy host compare.

On the shared 2-core host this benchmark was built on, the same pure-Python
loop runs up to 1.5 times slower for seconds to minutes at a time, because
of other tenants.  That moved whole runs by 15-25 % and swamped the
difference between two commits.  ``run.py`` therefore times a fixed
reference loop (exact ``Fraction`` arithmetic, like the program's own
work) about every 0.1 s, and divides each measured time by the local
slowness: the median reference duration within a second of the
measurement, over ``REFERENCE_S``.  A scaled time is what the measurement
would have read on a machine where the reference loop takes
``REFERENCE_S``.  The program never runs the reference loop, so a change
to the program cannot move it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

# Median reference-loop duration on the host the benchmark was built on.
REFERENCE_S = 0.0013
INTERVAL_S = 0.1  # sample at least this often during a timed phase
WINDOW_S = 1.0  # samples this close to a measurement set its scale


def reference_loop() -> Fraction:
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i % 97 + 1)
    return total


def timed_reference() -> float:
    """One reference-loop duration, with the collector off so the program's heap cannot move it."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference_loop()
        return time.perf_counter() - start
    finally:
        gc.enable()


class SpeedProbe:
    """Reference-loop samples over a run, and the times they scale."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.starts.append(time.perf_counter())
            self.durations.append(timed_reference())

    def sample_if_due(self, now: float) -> None:
        if not self.starts or now - self.starts[-1] >= INTERVAL_S:
            self.sample()

    def slowness(self, start: float, end: float) -> float:
        """Median reference duration near [start, end] over ``REFERENCE_S``."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        window = self.durations[lo:hi] or self.durations
        return statistics.median(window) / REFERENCE_S

    def scaled(self, duration: float, start: float) -> float:
        """``duration``, measured from ``start``, in reference-speed seconds."""
        return duration / self.slowness(start, start + duration)
