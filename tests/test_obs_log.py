"""Tests for the structured event log and its zero-overhead contract."""

import io
import json

from repro.obs.events import EVENT_KINDS, PLACE_ATTACH, SCHED_WAKEUP, SchedEvent
from repro.obs.export import events_to_jsonl
from repro.obs.log import EventLog


class TestEventLog:
    def test_disabled_by_default(self):
        assert EventLog().enabled is False

    def test_attach_enables(self):
        log = EventLog()
        log.attach(lambda ev: None)
        assert log.enabled is True

    def test_memory_sink_collects_events(self):
        log = EventLog()
        events = log.attach_memory()
        log.emit(5, SCHED_WAKEUP, cpu=2, task=7)
        log.emit(9, PLACE_ATTACH, cpu=2, task=7, value=1)
        assert events == [SchedEvent(5, SCHED_WAKEUP, 2, 7, 0),
                          SchedEvent(9, PLACE_ATTACH, 2, 7, 1)]

    def test_multiple_sinks_all_called(self):
        log = EventLog()
        a = log.attach_memory()
        b = log.attach_memory()
        log.emit(1, SCHED_WAKEUP)
        assert a == b and len(a) == 1

    def test_event_defaults(self):
        ev = SchedEvent(3, SCHED_WAKEUP)
        assert (ev.cpu, ev.task, ev.value) == (-1, -1, 0)

    def test_all_kinds_are_dotted_strings(self):
        for kind in EVENT_KINDS:
            assert "." in kind and kind == kind.lower()


class TestEventsToJsonl:
    def test_round_trip(self):
        events = [SchedEvent(1, SCHED_WAKEUP, 0, 5, 0),
                  SchedEvent(2, PLACE_ATTACH, 0, 5, 3)]
        buf = io.StringIO()
        assert events_to_jsonl(events, buf, {"n_cpus": 4}) == 2
        lines = buf.getvalue().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[0]) == {"header": {"n_cpus": 4}}
        first = json.loads(lines[1])
        assert first == {"t": 1, "kind": SCHED_WAKEUP, "cpu": 0,
                         "task": 5, "value": 0}

    def test_empty(self):
        buf = io.StringIO()
        assert events_to_jsonl([], buf, {"n_cpus": 4}) == 0
        assert buf.getvalue() == '{"header":{"n_cpus":4}}\n'
