"""Binary-heap event queue with O(1) cancellation.

The heap stores flat ``(time, kind, seq, event)`` tuples rather than the
:class:`Event` objects themselves.  The sequence number is unique, so heap
comparisons always resolve within the first three integers and never fall
through to the event object, which defines no ordering — every sift
comparison, the single hottest operation of a simulation, is a C-level
int compare.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional

from .events import Event, EventKind


class EventQueue:
    """Time-ordered queue of :class:`Event` objects.

    Simultaneous events pop in (kind, sequence) order; the sequence number is
    assigned at scheduling time, so insertion order decides final ties.  The
    queue never reorders events of the same key, which keeps simulations
    deterministic across runs and platforms.
    """

    __slots__ = ("_heap", "_seq", "_live")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, int, Event]] = []
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def schedule(
        self,
        time: int,
        kind: EventKind,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
    ) -> Event:
        """Add an event; returns a handle usable for cancellation."""
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, kind, seq, callback, args)
        heappush(self._heap, (time, int(kind), seq, ev))
        self._live += 1
        return ev

    def cancel(self, ev: Event) -> None:
        """Cancel a previously scheduled event (idempotent).

        Cancelled events stay in the heap as tombstones and are dropped
        when they reach the top, which is O(1) here and keeps the heap
        simple.
        """
        if not ev.cancelled:
            ev.cancelled = True
            self._live -= 1

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or None if empty."""
        heap = self._heap
        while heap:
            ev = heappop(heap)[3]
            if not ev.cancelled:
                self._live -= 1
                return ev
        return None

    def peek_time(self) -> Optional[int]:
        """Time of the next live event without removing it."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heappop(heap)
        return heap[0][0] if heap else None
