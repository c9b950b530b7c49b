"""Tests for the event records and the event queue."""

from hypothesis import given, strategies as st

from repro.sim.events import Event, EventKind
from repro.sim.queue import EventQueue


def _noop(*args):
    pass


class TestEvent:
    def test_cancel_flag(self):
        e = Event(0, EventKind.IO, 0, _noop)
        assert not e.cancelled
        e.cancel()
        assert e.cancelled


class TestEventQueue:
    def test_empty(self):
        q = EventQueue()
        assert len(q) == 0
        assert not q
        assert q.pop() is None
        assert q.peek_time() is None

    def test_fifo_within_same_key(self):
        q = EventQueue()
        order = []
        for i in range(5):
            q.schedule(10, EventKind.WAKEUP, order.append, (i,))
        while (ev := q.pop()) is not None:
            ev.callback(*ev.args)
        assert order == [0, 1, 2, 3, 4]

    def test_pop_in_time_order(self):
        q = EventQueue()
        for t in (30, 10, 20):
            q.schedule(t, EventKind.TICK, _noop)
        times = [q.pop().time for _ in range(3)]
        assert times == [10, 20, 30]

    def test_kind_priority_at_same_time(self):
        q = EventQueue()
        q.schedule(5, EventKind.TICK, _noop)
        q.schedule(5, EventKind.COMPLETION, _noop)
        q.schedule(5, EventKind.WAKEUP, _noop)
        kinds = [q.pop().kind for _ in range(3)]
        assert kinds == [EventKind.COMPLETION, EventKind.WAKEUP,
                         EventKind.TICK]

    def test_cancel_skipped_on_pop(self):
        q = EventQueue()
        ev = q.schedule(1, EventKind.IO, _noop)
        q.schedule(2, EventKind.IO, _noop)
        q.cancel(ev)
        assert len(q) == 1
        popped = q.pop()
        assert popped.time == 2

    def test_cancel_is_idempotent(self):
        q = EventQueue()
        ev = q.schedule(1, EventKind.IO, _noop)
        q.cancel(ev)
        q.cancel(ev)
        assert len(q) == 0

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        ev = q.schedule(1, EventKind.IO, _noop)
        q.schedule(7, EventKind.IO, _noop)
        q.cancel(ev)
        assert q.peek_time() == 7

    def test_len_tracks_live_events(self):
        q = EventQueue()
        evs = [q.schedule(i, EventKind.IO, _noop) for i in range(4)]
        assert len(q) == 4
        q.cancel(evs[0])
        assert len(q) == 3
        q.pop()
        assert len(q) == 2

    @given(st.lists(st.tuples(st.integers(0, 1000),
                              st.sampled_from(list(EventKind))),
                    min_size=1, max_size=60))
    def test_pop_order_is_total_and_stable(self, items):
        """Property: pops come out sorted by (time, kind, insertion seq)."""
        q = EventQueue()
        for t, k in items:
            q.schedule(t, k, _noop)
        popped = []
        while (ev := q.pop()) is not None:
            popped.append((ev.time, int(ev.kind), ev.seq))
        assert popped == sorted(popped)
        assert len(popped) == len(items)

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=40),
           st.data())
    def test_cancellation_never_loses_live_events(self, times, data):
        q = EventQueue()
        handles = [q.schedule(t, EventKind.IO, _noop) for t in times]
        to_cancel = data.draw(st.sets(
            st.integers(0, len(handles) - 1), max_size=len(handles)))
        for i in to_cancel:
            q.cancel(handles[i])
        survivors = []
        while (ev := q.pop()) is not None:
            survivors.append(ev)
        assert len(survivors) == len(times) - len(to_cancel)
        assert all(not ev.cancelled for ev in survivors)
