"""How fast the machine runs Python at the moment, sampled during measurement.

On a shared host the speed of one core can change by a factor of two over
tens of seconds, so raw wall times of identical runs differ by more than any
bound worth setting.  While the benchmark measures, a timer signal runs a
fixed reference computation every ``INTERVAL_S`` and records how long it
took.  Times are then reported at reference speed: measured seconds, less
the time spent sampling, times ``REFERENCE_S`` over the median sampled
duration.  That is the time the work would take on a machine where the
reference computation takes exactly ``REFERENCE_S``.  The collector is off
while a sample runs, so a collection of the engine's garbage is not taken
for sampling time; it runs in the engine's time once the sample ends.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

import oracle

INTERVAL_S = 0.02
REFERENCE_S = 0.001
RECENT = 5  # fewest samples a speed is read from


_X = {("L", n): oracle.g(Fraction(n, 3), 1) for n in range(-2, 3)}
_Y = {("Y", n): oracle.g(Fraction(1, n or 7), n) for n in range(-2, 3)}


def reference() -> None:
    """A fixed bracket in the benchmark's own exact algebra: work like the engine's."""
    oracle.bracket(_X, _Y)


def reference_samples(count: int) -> list[float]:
    """Durations of ``count`` reference computations, run back to back."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        reference()
        samples.append(time.perf_counter() - start)
    return samples


class Speedometer:
    """Context manager that samples ``reference`` on a SIGALRM timer."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent sampling, to subtract from timings

    def sample(self, *_signal_args) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        try:
            reference()
        finally:
            elapsed = time.perf_counter() - start
            if collecting:
                gc.enable()
        self.samples.append(elapsed)
        self.spent += elapsed

    def scale_since(self, first: int) -> float:
        """``REFERENCE_S`` over the median of the samples from index ``first`` on.

        When fewer than ``RECENT`` were taken since, the latest ``RECENT`` are used.
        """
        if not self.samples:
            self.sample()
        if len(self.samples) - first < RECENT:
            first = max(0, len(self.samples) - RECENT)
        return REFERENCE_S / statistics.median(self.samples[first:])

    def __enter__(self) -> "Speedometer":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
