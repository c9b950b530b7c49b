"""Tests for the tracer."""

from repro.sim.trace import Segment, Tracer


def collect(tracer):
    out = []
    tracer.add_sink(lambda *a: out.append(a))
    return out


class TestTracer:
    def test_begin_end_produces_segment(self):
        t = Tracer(2, record_segments=True)
        t.begin(0, 10, 2100, task_id=7)
        t.end(0, 25)
        (seg,) = t.segments
        assert seg == Segment(0, 10, 25, 2100, 7, False)
        assert seg.duration == 15

    def test_zero_length_segments_suppressed(self):
        t = Tracer(1, record_segments=True)
        t.begin(0, 10, 2100, 1)
        t.end(0, 10)
        assert t.segments == []

    def test_begin_closes_previous(self):
        t = Tracer(1, record_segments=True)
        t.begin(0, 0, 1000, 1)
        t.begin(0, 5, 1000, 2)
        t.end(0, 9)
        assert [(s.task_id, s.start, s.end) for s in t.segments] == \
            [(1, 0, 5), (2, 5, 9)]

    def test_freq_change_splits_segment(self):
        t = Tracer(1, record_segments=True)
        t.begin(0, 0, 1000, 1)
        t.freq_change(0, 4, 2000)
        t.end(0, 10)
        assert [(s.freq_mhz, s.start, s.end) for s in t.segments] == \
            [(1000, 0, 4), (2000, 4, 10)]

    def test_freq_change_same_freq_noop(self):
        t = Tracer(1, record_segments=True)
        t.begin(0, 0, 1000, 1)
        t.freq_change(0, 4, 1000)
        t.end(0, 10)
        assert len(t.segments) == 1

    def test_freq_change_on_idle_core_noop(self):
        t = Tracer(1, record_segments=True)
        t.freq_change(0, 4, 2000)
        assert t.segments == []

    def test_end_without_begin_noop(self):
        t = Tracer(1, record_segments=True)
        t.end(0, 5)
        assert t.segments == []

    def test_sinks_called_even_without_recording(self):
        t = Tracer(1, record_segments=False)
        out = collect(t)
        t.begin(0, 0, 1500, 3)
        t.end(0, 8)
        assert out == [(0, 0, 8, 1500, 3, False)]
        assert t.segments == []

    def test_flush_closes_all(self):
        t = Tracer(3, record_segments=True)
        t.begin(0, 0, 1000, 1)
        t.begin(2, 0, 1000, 2)
        t.flush(20)
        assert sorted(s.core for s in t.segments) == [0, 2]
        assert all(s.end == 20 for s in t.segments)

    def test_spin_segments_marked(self):
        t = Tracer(1, record_segments=True)
        t.begin(0, 0, 3000, -1, spinning=True)
        t.end(0, 5)
        (seg,) = t.segments
        assert seg.spinning and seg.task_id == -1
