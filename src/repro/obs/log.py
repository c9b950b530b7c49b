"""The event-log hub the simulator emits into.

The contract with the hot paths is strict, to protect the engine's
throughput (the PR-1 optimization work):

* Emission sites *must* guard with ``if obs.enabled:`` before calling
  :meth:`EventLog.emit`.  A disabled log therefore costs one attribute
  read and a branch per site, and **allocates nothing** — no
  :class:`~repro.obs.events.SchedEvent` is ever constructed.
* ``enabled`` flips to True only when a sink is attached, never manually.

Sinks are plain callables receiving the :class:`SchedEvent`; the common
one is the list sink from :meth:`EventLog.attach_memory`.
"""

from __future__ import annotations

from typing import Callable, List

from .events import SchedEvent

#: Subscriber signature: called once per emitted event.
EventSink = Callable[[SchedEvent], None]


class EventLog:
    """Dispatches structured scheduler events to attached sinks."""

    __slots__ = ("enabled", "_sinks")

    def __init__(self) -> None:
        self.enabled = False
        self._sinks: List[EventSink] = []

    def attach(self, sink: EventSink) -> None:
        """Register a sink; enables the log."""
        self._sinks.append(sink)
        self.enabled = True

    def attach_memory(self) -> List[SchedEvent]:
        """Attach a list sink and return the list it fills."""
        events: List[SchedEvent] = []
        self.attach(events.append)
        return events

    def emit(self, t: int, kind: str, cpu: int = -1, task: int = -1,
             value: int = 0) -> None:
        """Dispatch one event.  Callers must have checked ``enabled``."""
        ev = SchedEvent(t, kind, cpu, task, value)
        for sink in self._sinks:
            sink(ev)
