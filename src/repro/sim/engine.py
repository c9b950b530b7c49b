"""The discrete-event simulation driver.

The engine owns simulated time (``now``, integer microseconds) and the
event queue, and runs the main loop.  All other components (frequency
model, kernel, workloads, metrics) schedule callbacks through it.  The
engine knows nothing about scheduling semantics.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..obs.log import EventLog
from .events import Event, EventKind
from .queue import EventQueue
from .rng import RngRegistry

#: Version salt of the simulation semantics.  The content-addressed result
#: cache (experiments/cache.py) mixes this into every key, so bumping it
#: invalidates all cached results at once.  Bump whenever a change alters
#: what a simulation *computes* (event ordering, timing, RNG use, metrics),
#: not for pure refactors or speedups that keep runs bit-identical.  The
#: run digests in ``tests/data/golden_digests.json`` tell the two apart:
#: a speedup leaves them unchanged; a bump regenerates them.  They also
#: pin the event log, which no cached result carries, so a change to what
#: the log records alone regenerates them without a bump.
ENGINE_VERSION = "2"


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class Engine:
    """Event loop: pops events in time order and dispatches their callbacks."""

    def __init__(self, seed: int = 0) -> None:
        self.queue = EventQueue()
        self.rng = RngRegistry(seed)
        self.events_processed = 0
        #: The run's structured observability log (obs/).  Disabled until a
        #: sink is attached; every component that can see the engine (the
        #: kernel, policies via the kernel, the frequency model) emits
        #: through it behind an ``if obs.enabled:`` guard, so a run with no
        #: sinks allocates no event records.
        self.obs = EventLog()
        #: Simulated time in µs.  Only the run loop writes it, and never
        #: backwards.  A plain attribute: ``engine.now`` is the single
        #: hottest read in the simulator and a property call per read
        #: showed up in profiles.
        self.now = 0
        self._stopped = False
        self._stop_reason: Optional[str] = None

    def at(
        self,
        time: int,
        kind: EventKind,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
    ) -> Event:
        """Schedule ``callback`` at absolute time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"scheduling into the past: {time} < {self.now}")
        return self.queue.schedule(time, kind, callback, args)

    def after(
        self,
        delay: int,
        kind: EventKind,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
    ) -> Event:
        """Schedule ``callback`` after ``delay`` microseconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.queue.schedule(self.now + delay, kind, callback, args)

    def cancel(self, ev: Event) -> None:
        self.queue.cancel(ev)

    def stop(self, reason: str = "requested") -> None:
        """Ask the run loop to stop after the current event."""
        self._stopped = True
        self._stop_reason = reason

    @property
    def stop_reason(self) -> Optional[str]:
        return self._stop_reason

    def run(self, until: Optional[int] = None, max_events: int = 200_000_000) -> int:
        """Run until the queue drains, ``until`` is reached, or stop().

        Returns the simulated end time in microseconds.
        """
        self._stopped = False
        self._stop_reason = None
        queue = self.queue
        processed = 0
        while not self._stopped:
            if until is not None:
                nxt = queue.peek_time()
                if nxt is None or nxt > until:
                    self.now = max(until, self.now)
                    self._stop_reason = "until"
                    break
            ev = queue.pop()
            if ev is None:
                self._stop_reason = "drained"
                break
            t = ev.time
            if t < self.now:
                raise ValueError(f"clock moving backwards: {t} < {self.now}")
            self.now = t
            ev.callback(*ev.args)
            processed += 1
            if processed >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; possible livelock")
        self.events_processed += processed
        return self.now
