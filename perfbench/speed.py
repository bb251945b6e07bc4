"""Host-speed probe, so that timings taken minutes apart compare.

The 2-vCPU host this benchmark was built on changes speed by up to half
within a minute, for identical work (the same `verify` call took 9.2 s and
11.6 s in consecutive processes; its count of `orient_h` calls differs by
0.3% between seeds).  `SpeedProbe` interrupts the main thread every
`INTERVAL_S` seconds (SIGALRM) and times `reference_loop()`, fixed
standard-library Fraction and integer work that shares no code with the
package.  Callers subtract `spent` (time inside the probe) from their
timings and divide them by `factor()`, the run's median reference-loop time
over `REFERENCE_S`, which reports them in seconds at the reference speed.
On eight identical `verify` runs this cut the quartile spread from 0.19 to
0.08 of the median.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.1
# Typical reference_loop() time on the host the baselines were recorded on
# (CPython 3.11.7, 2 vCPUs at 2.1 GHz); only ratios to it matter.
REFERENCE_S = 0.003


def reference_loop() -> Fraction:
    acc = Fraction(1, 3)
    table = {}
    for i in range(1, 400):
        acc = (acc * Fraction(i + 2, i + 1) + Fraction(1, i)) / 2
        if acc.denominator.bit_length() > 200:
            acc = Fraction(acc.numerator % 1000003, 7)
        table[i % 17] = (acc < 1, i * 2654435761 % 1000003)
    return acc


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - t0)
        self.spent += time.perf_counter() - t0

    def clock(self) -> float:
        """perf_counter minus the time spent in the probe."""
        return time.perf_counter() - self.spent

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self) -> float:
        """Median reference-loop time over REFERENCE_S (> 1: slower host)."""
        while len(self.samples) < 5:
            self._sample()
        return statistics.median(self.samples) / REFERENCE_S
