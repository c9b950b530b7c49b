"""Event records for the discrete-event engine.

Events carry an explicit priority class so that simultaneous events are
processed in a deterministic, semantically sensible order: e.g. a task's
compute completion at time *t* is handled before the tick at time *t*, and
wakeups are handled before new forks.  Ties within a class break on a
monotonically increasing sequence number, making runs fully deterministic.
"""

from __future__ import annotations

import enum
from typing import Any, Callable


class EventKind(enum.IntEnum):
    """Priority classes for simultaneous events (lower value runs first)."""

    COMPLETION = 0     # running task finished its compute slice
    IO = 1             # sleep/IO expiry, message arrival
    WAKEUP = 2         # task wakeup placement
    FORK = 3           # task fork placement
    PREEMPT = 4        # preemption / resched
    SPIN_STOP = 5      # warm-core spin timeout
    FREQ = 6           # frequency ramp step
    TICK = 7           # scheduler tick
    BALANCE = 8        # load balancing pass
    CONTROL = 9        # experiment control callbacks (sampling, stop)


class Event:
    """A schedulable callback.

    Cancellation is by flag: cancelled events stay in the heap and are
    skipped when popped, which is O(1) and keeps the heap simple.
    """

    __slots__ = ("time", "kind", "seq", "callback", "args", "cancelled")

    def __init__(
        self,
        time: int,
        kind: EventKind,
        seq: int,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
    ) -> None:
        self.time = time
        self.kind = kind
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped.

        This leaves the owning queue's live count unchanged, so ``len()``
        and ``bool()`` of the queue over-count afterwards: cancel through
        :meth:`EventQueue.cancel` (or ``Engine.cancel``) instead.
        """
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time}, {self.kind.name}, seq={self.seq}{state})"
