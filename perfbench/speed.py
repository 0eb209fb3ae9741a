"""A machine-speed reference clock for untraced runs.

On a shared 2-core machine the speed of pure-Python code drifts by up to
30% over tens of seconds, and every kernel slows together: a fixed Fraction
and dict calibration loop, timed between secondary-polytope calls, moved in
step with them while their ratio stayed within about 10%.  That drift is
common to the parent and the change, so the timings are reported in
reference seconds: wall time divided by the machine's speed at that moment,
as measured by the calibration loop.

While a run is timed, an interval timer interrupts the process every
PERIOD_S and times KERNEL_ROUNDS of the calibration loop in the signal
handler.  `reference_seconds(start, end)` integrates dt / factor over the
wall interval, where factor = calibration time / REFERENCE_CAL_S from the
latest sample, and leaves out the time spent in the handler itself.  Raw
wall times are reported beside the normalised ones.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

PERIOD_S = 0.02
KERNEL_ROUNDS = 120
# Calibration time at the reference speed: the kernel's median in the handler
# on the 2-core machine the benchmark was written on while it was quiet, so
# reference seconds read about as wall seconds of a quiet run there.  Under
# load the kernel took up to 1 ms, and the work slowed with it.
REFERENCE_CAL_S = 0.00053


def _kernel(rounds: int) -> int:
    """Fraction arithmetic and small-dict work, like the LP and elimination."""
    x = Fraction(1, 3)
    terms = {}
    for i in range(rounds):
        x = x * Fraction(i + 2, i + 1) - Fraction(1, i + 5)
        key = (i % 7, i % 11)
        terms[key] = terms.get(key, 0) + i * i
    return x.numerator % 97 + len(terms)


class SpeedClock:
    def __init__(self):
        self.starts = []  # calibration start times (perf_counter)
        self.ends = []
        self._previous = None
        self._factors = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        _kernel(KERNEL_ROUNDS)
        self.ends.append(time.perf_counter())
        self.starts.append(start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factors(self) -> list[float]:
        """Speed factor per sample: calibration time over the reference time.

        The speed changes from one 20 ms segment to the next: repeating the
        same documents, per-sample factors left a 5% coefficient of
        variation in their reference time, medians of 5 and 21 samples 6%
        and 11%, and raw wall time 20%."""
        return [(e - s) / REFERENCE_CAL_S for s, e in zip(self.starts, self.ends)]

    def reference_seconds(self, start: float, end: float) -> float:
        """Integral of dt / factor over [start, end] outside calibration."""
        starts, ends = self.starts, self.ends
        if not starts:
            return end - start
        if self._factors is None or len(self._factors) != len(starts):
            self._factors = self.factors()
        factors = self._factors
        total = 0.0
        # segment k: work from ends[k] to starts[k + 1] at factors[k];
        # the segment before the first sample uses the first factor
        k = max(bisect.bisect_right(ends, start) - 1, -1)
        t = start
        while t < end:
            seg_end = starts[k + 1] if k + 1 < len(starts) else float("inf")
            f = factors[max(k, 0)]
            stop = min(end, seg_end)
            if stop > t:
                total += (stop - t) / f
            if seg_end >= end:
                break
            k += 1
            t = max(t, ends[k])
        return total
