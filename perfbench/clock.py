"""The processor's speed while the benchmark runs, sampled in-process.

On a shared host the clock of a core moves between turbo and base
frequency with its neighbours' load, often within a tenth of a second, so
the same pass can take 1.7 times longer from one minute to the next.
``SpeedProbe`` samples that speed during a measurement: every
``INTERVAL_S`` a SIGALRM runs a fixed sum of Fractions and records its
seconds.  Rational arithmetic is the package's own kind of work (calls,
allocation, small integers), and its time tracks the package's far better
than a tight integer loop does, which sees the clock but not the
contention for caches.  ``factor`` turns the mean of those samples into
the scale that brings the measurement's seconds to the reference clock,
the speed at which the sum takes ``PROBE_REF_S``.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02
PROBE_TERMS = 60
# about the sum's mean seconds during a pass on the 2-core 2.0 GHz Xeon
# virtual machine the bounds were measured on, where reference seconds
# therefore read close to wall seconds
PROBE_REF_S = 2.5e-4


def _probe_seconds() -> float:
    t = time.perf_counter()
    total = Fraction(0)
    for i in range(1, PROBE_TERMS):
        total += Fraction(i, 7)
    return time.perf_counter() - t


class SpeedProbe:
    """Context manager sampling the probe every INTERVAL_S of wall time.

    The handler runs between bytecodes of the main thread, so it costs
    about one per cent of the measured time and sees the core the
    measured code runs on.  One sample is taken on entry and one on exit.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None):
        self.samples.append(_probe_seconds())

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def factor(self) -> float:
        """Reference seconds per measured second: PROBE_REF_S over the
        mean sample, the mean because time spent slow adds up linearly."""
        return PROBE_REF_S / statistics.fmean(self.samples)
