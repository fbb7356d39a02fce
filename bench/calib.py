"""Sampling how fast the machine runs, to scale job times to a fixed speed.

Shared hosts change speed by tens of percent from one second to the next,
and a job's CPU time follows.  While the benchmark runs, a wall-clock
interval timer fires every ``INTERVAL_S`` and its handler times a tiny
fixed ``Fraction`` kernel.  (A CPU-time timer would be the natural choice,
but arming one makes ``time.process_time`` tick in 4 ms steps on Linux.)
A job's time is scaled by ``REFERENCE_S`` over the trimmed mean of the
samples taken during the job and just around it, so times read in seconds
at a fixed reference speed.  The kernel calls no nbwalks code, so a change
to the package never changes the samples.  Sampling costs about 2% of the
CPU time.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.003  # wall seconds between samples

# One kernel() call's wall time, measured on the machine the baseline was
# taken on; it only sets the scale of the reported times (speed 1).
REFERENCE_S = 56e-6

_NEIGHBOURS = 4  # samples taken on each side of an interval also count
_TRIM = 5        # drop this share (1/_TRIM) of samples at each end


def kernel() -> Fraction:
    """A fixed few dozen microseconds of ``Fraction`` arithmetic."""
    s = Fraction(0)
    for i in range(1, 8):
        s = s + Fraction(i % 7 + 1, i % 11 + 2) * Fraction(3, i % 5 + 1)
    return s


class Timeout(BaseException):
    """Raised in the running code once a deadline passes; a BaseException
    so that no ``except Exception`` in the package can swallow it."""


class SpeedSampler:
    """Collects kernel timings while started; intervals are marked by
    sample indices from ``mark()``.  It owns SIGALRM, so it also enforces
    ``deadline`` (a ``perf_counter`` value, or None) by raising Timeout."""

    def __init__(self):
        self.samples: list[float] = []
        self.deadline: float | None = None

    def _on_alarm(self, signum, frame):
        start = perf_counter()
        kernel()
        self.samples.append(perf_counter() - start)
        if self.deadline is not None and start > self.deadline:
            self.deadline = None
            raise Timeout()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.samples)

    def speed(self, first: int, last: int) -> float:
        """Reference time over the trimmed mean kernel time of the samples
        taken between marks ``first`` and ``last``, widened by a few
        samples on each side.  Call it once the samples after ``last``
        have been taken."""
        window = self.samples[max(0, first - _NEIGHBOURS): last + _NEIGHBOURS]
        if not window:
            start = perf_counter()
            kernel()
            window = [perf_counter() - start]
        window.sort()
        cut = len(window) // _TRIM
        return REFERENCE_S / statistics.fmean(window[cut:len(window) - cut])
