"""Binary-heap event queue with O(1) cancellation and in-place re-arming.

The heap stores flat ``(time, kind, seq, event)`` tuples rather than the
:class:`Event` objects themselves.  The sequence number is unique, so heap
comparisons always resolve within the first three integers and never fall
through to the event object — every sift comparison is a C-level int
compare instead of a Python-level ``Event.__lt__`` call, which is the
single hottest operation of a simulation.

Invariant: every scheduled event has exactly one heap entry, until that
entry is popped.  The entry's key is never later than the event's current
``(time, kind, seq)``: :meth:`EventQueue.rearm` moves an event later by
updating the event alone, and :meth:`pop` / :meth:`peek_time` re-push an
entry whose ``seq`` no longer matches its event with the event's current
key when it reaches the top.  Because no entry's key exceeds its event's,
an up-to-date entry at the top is the true next event.
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace
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

    def rearm(self, ev: Event, time: int) -> Event:
        """Move ``ev`` to ``time``; returns the event now pending.

        Same result as ``cancel(ev)`` followed by ``schedule(time, ev.kind,
        ev.callback, ev.args)``: it consumes one sequence number, so
        same-time ties, and every result, are unchanged.  A move to a time
        not earlier than ``ev.time`` updates ``ev.time`` and ``ev.seq`` in
        place and returns ``ev``; its heap entry keeps the old key until
        it reaches the top.  An earlier time (or a cancelled ``ev``)
        cancels ``ev`` and returns a fresh event, so callers must keep the
        returned handle.  ``ev`` must not have been popped.
        """
        seq = self._seq
        self._seq = seq + 1
        if not ev.cancelled:
            if time >= ev.time:
                ev.time = time
                ev.seq = seq
                return ev
            ev.cancelled = True
            self._live -= 1
        fresh = Event(time, ev.kind, seq, ev.callback, ev.args)
        heappush(self._heap, (time, int(ev.kind), seq, fresh))
        self._live += 1
        return fresh

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or None if empty."""
        heap = self._heap
        while heap:
            entry = heappop(heap)
            ev = entry[3]
            if ev.cancelled:
                continue
            if ev.seq != entry[2]:      # re-armed later: re-key the entry
                heappush(heap, (ev.time, entry[1], ev.seq, ev))
                continue
            self._live -= 1
            return ev
        return None

    def peek_time(self) -> Optional[int]:
        """Time of the next live event without removing it."""
        heap = self._heap
        while heap:
            entry = heap[0]
            ev = entry[3]
            if ev.cancelled:
                heappop(heap)
            elif ev.seq != entry[2]:
                heapreplace(heap, (ev.time, entry[1], ev.seq, ev))
            else:
                return entry[0]
        return None

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
        self._live = 0
