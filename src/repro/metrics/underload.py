"""The paper's *underload* metric (§5.2).

    "Underload in a given time interval is the difference between the number
    of cores used at any point in the interval and the maximum number of
    tasks that are simultaneously runnable in the interval."

A positive underload means a long-idle core was chosen instead of reusing a
core that was already active in the interval — the placement pathology Nest
removes.  The paper uses 4 ms (one-tick) intervals and also reports
*underload per second*: the average underload accumulated per second of
execution.  Overload (more runnable tasks than cores used, §5.2's "multiple
tasks trying to run on a single core") is tracked symmetrically.
"""

from __future__ import annotations

from array import array
from typing import List, Tuple

from ..sim.clock import TICK_US, US_PER_SEC


class UnderloadTracker:
    """Collects the inputs of the underload computation during a run.

    Wire it up with::

        tracker = UnderloadTracker()
        kernel.tracer.add_sink(tracker.segment_sink)
        kernel.runnable_observers.append(tracker.runnable_sink)

    and call :meth:`finalize` after the run.

    Nothing is kept per record.  A busy segment sets its core's bit in
    the mask of every interval it overlaps, so each interval holds the
    set of cores that ran a task in it, whatever order the segments
    arrive in.  A runnable-count change appends to two flat ``array('q')``
    columns, time and count.
    """

    def __init__(self, interval_us: int = TICK_US) -> None:
        if interval_us <= 0:
            raise ValueError("interval must be positive")
        self.interval_us = interval_us
        #: Per interval, a bitmask of the cores that ran a task in it.
        self._used: List[int] = []
        self._runnable_t = array("q")    # time of each change
        self._runnable_n = array("q")    # runnable count from then on

    # ---- sinks -----------------------------------------------------------

    def segment_sink(self, core: int, start: int, end: int, freq_mhz: int,
                     task_id: int, spinning: bool) -> None:
        if task_id >= 0 and not spinning:
            itv = self.interval_us
            lo = start // itv
            hi = (end - 1) // itv
            used = self._used
            if hi >= len(used):
                used.extend([0] * (hi + 1 - len(used)))
            bit = 1 << core
            for k in range(lo, hi + 1):
                used[k] |= bit

    def runnable_sink(self, now: int, count: int) -> None:
        self._runnable_t.append(now)
        self._runnable_n.append(count)

    # ---- computation -------------------------------------------------------

    def finalize(self, end_us: int) -> "UnderloadResult":
        itv = self.interval_us
        n_intervals = max(1, (end_us + itv - 1) // itv)
        last = n_intervals - 1

        # Max simultaneous runnable per interval: sweep the change log.  A
        # change after ``end_us`` counts in the last interval.  ``lo`` is
        # the interval of the previous change, clamped to the last one:
        # its count already holds there, so the clamp changes no maximum.
        max_runnable = [0] * n_intervals
        prev_count = 0
        lo = 0
        for now, count in zip(self._runnable_t, self._runnable_n):
            hi = now // itv
            if hi > last:
                hi = last
            for k in range(lo, hi + 1):
                if prev_count > max_runnable[k]:
                    max_runnable[k] = prev_count
            # The new count also holds at its own instant.
            if count > max_runnable[hi]:
                max_runnable[hi] = count
            prev_count, lo = count, hi
        for k in range(lo, n_intervals):
            if prev_count > max_runnable[k]:
                max_runnable[k] = prev_count

        # Intervals past ``end_us`` are dropped; those no segment reached
        # used no core.
        used = self._used[:n_intervals]
        used += [0] * (n_intervals - len(used))
        series = [mask.bit_count() - peak
                  for mask, peak in zip(used, max_runnable)]
        return UnderloadResult(self.interval_us, series, end_us)


class UnderloadResult:
    """Per-interval underload series and its aggregates."""

    def __init__(self, interval_us: int, series: List[int], end_us: int) -> None:
        self.interval_us = interval_us
        self.series = series
        self.end_us = max(end_us, 1)

    @property
    def total_underload(self) -> int:
        """Sum of positive per-interval underload."""
        return sum(v for v in self.series if v > 0)

    @property
    def total_overload(self) -> int:
        """Sum of per-interval overload (runnable exceeding cores used)."""
        return sum(-v for v in self.series if v < 0)

    @property
    def underload_per_second(self) -> float:
        """The paper's headline aggregate (Figure 4): the time-averaged
        underload level, i.e. the average amount of underload present at any
        moment of the execution (Figure 4's values live in 0-5 while the
        per-interval series of Figure 3 also peaks around 6)."""
        return self.total_underload / len(self.series)

    @property
    def overload_per_second(self) -> float:
        """Time-averaged overload level (symmetric to underload)."""
        return self.total_overload / len(self.series)

    def timeline(self) -> List[Tuple[float, int]]:
        """(seconds, underload) points, for Figure 3-style traces."""
        return [(k * self.interval_us / US_PER_SEC, v)
                for k, v in enumerate(self.series)]
