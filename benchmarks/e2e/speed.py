"""Wall time at a reference machine speed, measured while the program runs.

On a host shared with other tenants, one pass of a workload can take 1.7×
as long as the same pass a minute earlier, and such a slowdown can last
for minutes: longer than a run.  Repeating the pass and taking the median
or the fastest does not remove it.  :class:`SpeedProbe` measures the
machine's speed at the same moments as the program instead.  A
``SIGALRM`` interval timer interrupts the program every ``PERIOD_S`` of
wall time, and the handler times a fixed piece of interpreted Python,
the candle.  The length of a wall interval at the reference speed is its
wall time, less the probe's own time inside it, times the mean of
``REFERENCE_S`` ÷ candle time over the samples taken inside it.  Because
the samples fall evenly in wall time, that mean weights each moment by
how long it lasted, so a pass that spent half its time at half speed is
charged its undisturbed length.

``REFERENCE_S`` is the candle's time on an idle core of a 2.1 GHz Xeon
VM, so a reference second is about a wall second there.  The correction
is only as good as the candle tracks the program: both are interpreted
Python, and on a contended host they slow down by similar, not equal,
factors.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

#: Wall seconds between samples.  Each costs about REFERENCE_S, so the
#: probe takes about 2% of the run.
PERIOD_S = 5e-3
#: Candle time on an idle core of the reference machine.
REFERENCE_S = 9e-5
CANDLE_ITERATIONS = 500


def candle() -> int:
    """Fixed interpreted-Python work: dict updates and list appends."""
    counts: dict[int, int] = {}
    items = []
    for i in range(CANDLE_ITERATIONS):
        counts[i & 15] = counts.get(i & 15, 0) + i
        items.append(i)
    return len(items)


class SpeedProbe:
    """Samples the machine's speed on a wall-clock timer while entered."""

    def __init__(self) -> None:
        self.started = array("d")  # perf_counter at each sample's start
        self.candle_s = array("d")
        self.spent_s = array("d")  # the whole handler, bookkeeping included
        self._previous = None

    def _sample(self, signum, frame) -> None:
        clock = time.perf_counter
        start = clock()
        candle()
        end = clock()
        self.started.append(start)
        self.candle_s.append(end - start)
        self.spent_s.append(clock() - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_s(self, start: float, end: float) -> float:
        """Length of the wall interval [start, end) at the reference speed.

        An interval shorter than the sampling period may hold no sample;
        it takes the speed of the sample nearest to it.
        """
        if not self.started:
            raise RuntimeError("the speed probe took no sample")
        lo = bisect.bisect_left(self.started, start)
        hi = bisect.bisect_left(self.started, end)
        if lo < hi:
            ratios = [REFERENCE_S / cost for cost in self.candle_s[lo:hi]]
            spent = sum(self.spent_s[lo:hi])
        else:
            nearest = min(
                (index for index in (lo - 1, lo) if 0 <= index < len(self.started)),
                key=lambda index: abs(self.started[index] - start),
            )
            ratios, spent = [REFERENCE_S / self.candle_s[nearest]], 0.0
        return (end - start - spent) * statistics.fmean(ratios)

    def speed(self) -> float:
        """Median machine speed over all samples (1.0 = reference)."""
        return REFERENCE_S / statistics.median(self.candle_s)
