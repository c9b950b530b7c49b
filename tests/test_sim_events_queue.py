"""Tests for the event records and the event queue."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import Engine
from repro.sim.events import Event, EventKind
from repro.sim.queue import EventQueue


def _noop(*args):
    pass


def _other(*args):
    pass


class TestEvent:
    def test_sort_key_orders_by_time_first(self):
        a = Event(10, EventKind.TICK, 0, _noop)
        b = Event(5, EventKind.BALANCE, 1, _noop)
        assert b < a

    def test_sort_key_orders_by_kind_on_time_tie(self):
        a = Event(10, EventKind.COMPLETION, 5, _noop)
        b = Event(10, EventKind.TICK, 0, _noop)
        assert a < b   # completions run before ticks at the same instant

    def test_sort_key_orders_by_seq_last(self):
        a = Event(10, EventKind.WAKEUP, 0, _noop)
        b = Event(10, EventKind.WAKEUP, 1, _noop)
        assert a < b

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

    def test_clear(self):
        q = EventQueue()
        q.schedule(1, EventKind.IO, _noop)
        q.clear()
        assert not q
        assert q.pop() is None

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


class _CancelScheduleQueue(EventQueue):
    """Model of :meth:`EventQueue.rearm`: cancel, then schedule afresh."""

    __slots__ = ()

    def rearm(self, ev, time):
        self.cancel(ev)
        return self.schedule(time, ev.kind, ev.callback, ev.args)


_OPS = st.lists(st.one_of(
    st.tuples(st.just("schedule"), st.integers(0, 40),
              st.sampled_from(list(EventKind))),
    st.tuples(st.just("rearm"), st.integers(0, 1_000), st.integers(0, 40)),
    st.tuples(st.just("cancel"), st.integers(0, 1_000)),
    st.tuples(st.just("pop")),
    st.tuples(st.just("peek")),
), max_size=80)


def _key(ev):
    return None if ev is None else (ev.time, ev.kind, ev.seq, ev.callback,
                                    ev.args)


class TestRearm:
    @given(_OPS)
    def test_rearm_matches_cancel_plus_schedule(self, ops):
        """Property: any interleaving of schedule/rearm/cancel/pop/peek
        pops the same events, with the same sequence numbers, as a queue
        whose re-arm is cancel + schedule."""
        real, model = EventQueue(), _CancelScheduleQueue()
        handles = {}     # unpopped tag -> (real handle, model handle)
        for op in ops:
            unpopped = sorted(handles)
            if op[0] == "schedule":
                _, t, kind = op
                tag = real._seq
                cb = _noop if tag % 2 else _other
                handles[tag] = (real.schedule(t, kind, cb, (tag,)),
                                model.schedule(t, kind, cb, (tag,)))
            elif op[0] == "rearm" and unpopped:
                _, pick, t = op
                tag = unpopped[pick % len(unpopped)]
                r, m = handles[tag]
                handles[tag] = (real.rearm(r, t), model.rearm(m, t))
            elif op[0] == "cancel" and unpopped:
                r, m = handles[unpopped[op[1] % len(unpopped)]]
                real.cancel(r)
                model.cancel(m)
            elif op[0] == "pop":
                r, m = real.pop(), model.pop()
                assert _key(r) == _key(m)
                if r is not None:
                    del handles[r.args[0]]
            elif op[0] == "peek":
                assert real.peek_time() == model.peek_time()
            assert len(real) == len(model)
            assert bool(real) == bool(model)
        while model:
            assert _key(real.pop()) == _key(model.pop())
        assert real.pop() is None and not real

    def test_later_rearm_keeps_one_heap_entry(self):
        q = EventQueue()
        ev = q.schedule(10, EventKind.FREQ, _noop)
        for t in range(11, 1_000):
            assert q.rearm(ev, t) is ev
        assert len(q._heap) == 1 and len(q) == 1
        assert q.peek_time() == 999
        assert q.pop() is ev and ev.seq == 989
        assert q.pop() is None

    def test_earlier_rearm_returns_a_fresh_event(self):
        q = EventQueue()
        ev = q.schedule(10, EventKind.FREQ, _noop, (1,))
        moved = q.rearm(ev, 5)
        assert moved is not ev and ev.cancelled
        assert (moved.time, moved.seq, moved.args) == (5, 1, (1,))
        assert len(q) == 1
        assert q.pop() is moved and q.pop() is None


def _script(move, rearm, until):
    """Run a fixed script; ``move`` re-arms event "a" at t=5 to a later,
    the same or an earlier instant, by a queue re-arm or by cancel +
    after.  The run stops once at ``until``: before the move, or after it
    while the moved entry is still keyed at its old time."""
    eng = Engine()
    log = []

    def rec(name):
        log.append((eng.now, name))

    handles = {name: eng.at(t, EventKind.FREQ, rec, (name,))
               for name, t in (("a", 10), ("b", 10), ("c", 20))}
    eng.at(30, EventKind.TICK, rec, ("d",))
    delay = {"later": 15, "same": 5, "earlier": 1}[move]

    def mover():
        rec("move")
        ev = handles["a"]
        if rearm:
            handles["a"] = eng.queue.rearm(ev, eng.now + delay)
        else:
            eng.cancel(ev)
            handles["a"] = eng.after(delay, ev.kind, ev.callback, ev.args)
        eng.after(delay, EventKind.FREQ, rec, ("new",))

    eng.at(5, EventKind.CONTROL, mover)
    eng.run(until=until)
    log.append(("until", len(eng.queue)))
    end = eng.run()
    return log, eng.events_processed, end


@pytest.mark.parametrize("move", ["later", "same", "earlier"])
@pytest.mark.parametrize("until", [4, 12])
def test_rearm_in_engine_run_matches_cancel_plus_after(move, until):
    expected = _script(move, rearm=False, until=until)
    assert _script(move, rearm=True, until=until) == expected
    assert expected[1] == 6
