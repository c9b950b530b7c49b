"""In-memory execution traces.

The tracer records, per core, the intervals during which a task was running
(or the idle loop was spinning) and the frequency in effect during each
interval.  This is the information the paper's figures 2, 8 and 9 plot, and
what the frequency-distribution metric (figures 6 and 11) aggregates.

Recording full traces is optional: metric consumers can subscribe to the
same begin/end callbacks without storing segments, so long simulations with
tracing disabled allocate nothing here.

Segments are not derived from the structured event log (``obs/``); they
stay a mechanism of their own for three reasons.  The underload and
frequency-distribution sinks the runner installs need them in *every*
run; the event log is off by default and, when on, allocates a
``SchedEvent`` per emission; and the host-time benchmark
(``perfbench/``) times those sinks as its ``metrics.sinks`` layer by
patching them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional


@dataclass(frozen=True)
class Segment:
    """A maximal interval on one core with constant (task, frequency)."""

    core: int
    start: int          # µs
    end: int            # µs
    freq_mhz: int
    task_id: int        # -1 for the spinning idle loop
    spinning: bool = False

    @property
    def duration(self) -> int:
        return self.end - self.start


#: Subscriber signature: (core, start_us, end_us, freq_mhz, task_id, spinning)
SegmentSink = Callable[[int, int, int, int, int, bool], None]


class Tracer:
    """Collects execution segments and forwards them to metric sinks.

    Cores report *transitions* (task change or frequency change); the tracer
    closes the open segment on that core and opens a new one.  Zero-length
    segments are suppressed.
    """

    __slots__ = ("segments", "record_segments", "_open", "_sinks")

    def __init__(self, n_cores: int, record_segments: bool = False) -> None:
        self.segments: List[Segment] = []
        self.record_segments = record_segments
        # Per-core open segment: (start, freq_mhz, task_id, spinning) or None.
        self._open: List[Optional[tuple[int, int, int, bool]]] = [None] * n_cores
        self._sinks: List[SegmentSink] = []

    def add_sink(self, sink: SegmentSink) -> None:
        """Register a callback invoked for every closed segment."""
        self._sinks.append(sink)

    def begin(self, core: int, now: int, freq_mhz: int, task_id: int,
              spinning: bool = False) -> None:
        """Open a segment on ``core``; closes any open one first."""
        self.end(core, now)
        self._open[core] = (now, freq_mhz, task_id, spinning)

    def end(self, core: int, now: int) -> None:
        """Close the open segment on ``core``, if any."""
        state = self._open[core]
        if state is None:
            return
        self._open[core] = None
        start, freq_mhz, task_id, spinning = state
        if now <= start:
            return
        for sink in self._sinks:
            sink(core, start, now, freq_mhz, task_id, spinning)
        if self.record_segments:
            self.segments.append(
                Segment(core, start, now, freq_mhz, task_id, spinning))

    def freq_change(self, core: int, now: int, freq_mhz: int) -> None:
        """Split the open segment on ``core`` at a frequency transition."""
        state = self._open[core]
        if state is None:
            return
        _, old_freq, task_id, spinning = state
        if old_freq == freq_mhz:
            return
        self.begin(core, now, freq_mhz, task_id, spinning)

    def flush(self, now: int) -> None:
        """Close every open segment (end of simulation)."""
        for core in range(len(self._open)):
            self.end(core, now)
