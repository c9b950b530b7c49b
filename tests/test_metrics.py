"""Tests for the metrics: underload, frequency distributions, latency,
summaries."""

import pytest
from hypothesis import given, strategies as st

from repro.experiments import runner
from repro.hw.machines import XEON_5218_2S, XEON_6130_2S
from repro.metrics.freqdist import FreqDistribution, bins_for
from repro.metrics.latency import LatencyRecorder, percentile
from repro.metrics.summary import (energy_savings, improvement_stddev,
                                   speedup)
from repro.metrics.underload import UnderloadTracker
from repro.sim.clock import TICK_US
from repro.workloads.catalog import make_workload


class TestUnderload:
    def track(self):
        return UnderloadTracker(interval_us=TICK_US)

    def test_no_activity_no_underload(self):
        t = self.track()
        res = t.finalize(4 * TICK_US)
        assert res.total_underload == 0
        assert res.underload_per_second == 0

    def test_paper_definition(self):
        """Two cores used while at most one task was runnable: underload 1
        in that interval."""
        t = self.track()
        t.runnable_sink(0, 1)
        t.segment_sink(0, 0, 1000, 2000, task_id=1, spinning=False)
        t.segment_sink(5, 1500, 3000, 2000, task_id=1, spinning=False)
        res = t.finalize(TICK_US)
        assert res.series == [1]

    def test_matched_cores_and_tasks_no_underload(self):
        t = self.track()
        t.runnable_sink(0, 2)
        t.segment_sink(0, 0, 4000, 2000, 1, False)
        t.segment_sink(1, 0, 4000, 2000, 2, False)
        res = t.finalize(TICK_US)
        assert res.series == [0]

    def test_overload_counts_negative(self):
        """More runnable tasks than cores used: overload."""
        t = self.track()
        t.runnable_sink(0, 3)
        t.segment_sink(0, 0, 4000, 2000, 1, False)
        res = t.finalize(TICK_US)
        assert res.series == [-2]
        assert res.total_overload == 2
        assert res.total_underload == 0

    def test_spin_segments_ignored(self):
        t = self.track()
        t.runnable_sink(0, 1)
        t.segment_sink(0, 0, 4000, 2000, 1, False)
        t.segment_sink(1, 0, 4000, 3900, -1, True)     # spinning idle
        res = t.finalize(TICK_US)
        assert res.series == [0]

    def test_segment_spanning_intervals_counts_in_each(self):
        t = self.track()
        t.runnable_sink(0, 0)
        t.segment_sink(3, 0, 3 * TICK_US, 2000, 1, False)
        res = t.finalize(3 * TICK_US)
        assert res.series == [1, 1, 1]

    def test_runnable_peak_within_interval_counts(self):
        t = self.track()
        t.runnable_sink(100, 5)
        t.runnable_sink(200, 0)
        t.segment_sink(0, 0, 4000, 2000, 1, False)
        res = t.finalize(TICK_US)
        assert res.series == [1 - 5]

    def test_underload_per_second_is_time_average(self):
        t = self.track()
        t.runnable_sink(0, 0)
        t.segment_sink(0, 0, TICK_US, 2000, 1, False)   # 1 underload
        res = t.finalize(4 * TICK_US)                    # over 4 intervals
        assert res.underload_per_second == pytest.approx(0.25)

    def test_timeline(self):
        t = self.track()
        t.runnable_sink(0, 0)
        t.segment_sink(0, 0, TICK_US, 2000, 1, False)
        res = t.finalize(2 * TICK_US)
        assert res.timeline() == [(0.0, 1), (TICK_US / 1e6, 0)]

    @given(st.lists(st.tuples(st.integers(0, 7),        # core
                              st.integers(0, 40_000),   # start
                              st.integers(1, 20_000)),  # duration
                    max_size=20))
    def test_underload_bounded_by_cores_used(self, segs):
        t = UnderloadTracker()
        t.runnable_sink(0, 0)
        for core, start, dur in segs:
            t.segment_sink(core, start, start + dur, 2000, 1, False)
        res = t.finalize(60_000)
        assert 0 <= res.total_underload <= 8 * len(res.series)


def reference_series(segments, runnable, end_us, itv):
    """The underload series as the tracker computed it with a set of
    cores per interval and a list of ``(time, count)`` tuples."""
    n_intervals = max(1, (end_us + itv - 1) // itv)
    used = {}
    for core, start, end, task_id, spinning in segments:
        if task_id < 0 or spinning:
            continue
        for k in range(start // itv,
                       min(n_intervals - 1, (end - 1) // itv) + 1):
            used.setdefault(k, set()).add(core)
    max_runnable = [0] * n_intervals
    prev_count = 0
    prev_time = 0
    for now, count in [(0, 0)] + runnable:
        lo = prev_time // itv
        hi = min(n_intervals - 1, now // itv)
        for k in range(lo, hi + 1):
            if prev_count > max_runnable[k]:
                max_runnable[k] = prev_count
        k = min(n_intervals - 1, now // itv)
        if count > max_runnable[k]:
            max_runnable[k] = count
        prev_count, prev_time = count, now
    for k in range(prev_time // itv, n_intervals):
        if prev_count > max_runnable[k]:
            max_runnable[k] = prev_count
    return [len(used.get(k, ())) - max_runnable[k]
            for k in range(n_intervals)]


ITV = 1_000
SEGMENTS = st.lists(st.tuples(st.integers(0, 15),        # core
                              st.integers(0, 12_000),    # start
                              st.integers(0, 5_000),     # duration
                              st.integers(-1, 3),        # task (-1: idle)
                              st.booleans()),            # spinning
                    max_size=30)


class TestAccountingMatchesReference:
    """The bitmask and column bookkeeping give the series the per-record
    computation gave."""

    @given(segs=SEGMENTS,
           changes=st.lists(st.tuples(st.integers(0, 3_000),   # gap
                                      st.integers(0, 20)),     # count
                            max_size=20),
           end_us=st.one_of(st.just(0),
                            st.integers(0, 12).map(lambda k: k * ITV),
                            st.integers(0, 14_000)))
    def test_underload_series(self, segs, changes, end_us):
        runnable, now = [], 0
        for gap, count in changes:
            now += gap
            runnable.append((now, count))
        t = UnderloadTracker(interval_us=ITV)
        for core, start, dur, task, spinning in segs:
            t.segment_sink(core, start, start + dur, 2000, task, spinning)
        for now, count in runnable:
            t.runnable_sink(now, count)
        segments = [(core, start, start + dur, task, spinning)
                    for core, start, dur, task, spinning in segs]
        assert t.finalize(end_us).series == \
            reference_series(segments, runnable, end_us, ITV)

    def test_a_finished_run_holds_no_tuple_per_record(self, monkeypatch):
        made = []

        class Kept(UnderloadTracker):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(runner, "UnderloadTracker", Kept)
        res = runner.run_experiment(
            make_workload("phoronix-libavif-avifenc-1", scale=0.3),
            XEON_5218_2S, "nest", seed=1)
        (tracker,) = made
        assert res.underload.total_underload > 0
        held = [x for v in vars(tracker).values()
                if isinstance(v, (list, tuple, dict)) for x in v]
        assert held and not any(isinstance(x, tuple) for x in held)


class TestFreqDist:
    def test_paper_bins_for_5218(self):
        assert bins_for(XEON_5218_2S) == (1.0, 1.6, 2.3, 2.8, 3.1, 3.6, 3.9)

    def test_paper_bins_for_6130(self):
        assert bins_for(XEON_6130_2S) == (1.0, 1.6, 2.1, 2.8, 3.1, 3.4, 3.7)

    def test_bin_index_edges(self):
        fd = FreqDistribution(XEON_6130_2S)
        assert fd.bin_index(1000) == 0
        assert fd.bin_index(1001) == 1
        assert fd.bin_index(3700) == 6
        assert fd.bin_index(9999) == 6

    def test_accumulation_and_fractions(self):
        fd = FreqDistribution(XEON_6130_2S)
        fd.segment_sink(0, 0, 3000, 3700, 1, False)
        fd.segment_sink(0, 3000, 4000, 1000, 1, False)
        assert fd.total_us == 4000
        fr = fd.fractions()
        assert fr[6] == pytest.approx(0.75)
        assert fr[0] == pytest.approx(0.25)
        assert sum(fr) == pytest.approx(1.0)

    def test_idle_and_spin_ignored(self):
        fd = FreqDistribution(XEON_6130_2S)
        fd.segment_sink(0, 0, 1000, 3700, -1, False)
        fd.segment_sink(0, 0, 1000, 3700, 1, True)
        assert fd.total_us == 0
        assert fd.fractions() == [0.0] * 7

    def test_top_bins_fraction(self):
        fd = FreqDistribution(XEON_6130_2S)
        fd.segment_sink(0, 0, 1000, 3600, 1, False)   # (3.4,3.7]
        fd.segment_sink(0, 1000, 2000, 2000, 1, False)
        assert fd.top_bins_fraction(2) == pytest.approx(0.5)

    def test_mean_ghz_weighted(self):
        fd = FreqDistribution(XEON_6130_2S)
        fd.segment_sink(0, 0, 1000, 3700, 1, False)
        assert fd.mean_ghz() == pytest.approx((3.4 + 3.7) / 2)

    def test_labels_match_bins(self):
        fd = FreqDistribution(XEON_6130_2S)
        labels = fd.labels()
        assert labels[0] == "(0.0,1.0] GHz"
        assert labels[-1] == "(3.4,3.7] GHz"
        assert len(labels) == len(fd.fractions())

    def test_as_dict(self):
        fd = FreqDistribution(XEON_6130_2S)
        fd.segment_sink(0, 0, 500, 3700, 1, False)
        assert fd.as_dict()["(3.4,3.7] GHz"] == pytest.approx(1.0)


class TestLatency:
    def test_percentile_nearest_rank(self):
        vals = list(range(1, 101))
        assert percentile(vals, 50) == 50
        assert percentile(vals, 99) == 99
        assert percentile(vals, 100) == 100
        assert percentile(vals, 0) == 1

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_recorder(self):
        r = LatencyRecorder()
        for v in (10, 30, 20):
            r.record(v)
        assert r.count == 3
        assert r.mean() == pytest.approx(20)
        assert r.p50() == 20

    def test_recorder_rejects_negative(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-1)

    def test_p999_is_tail(self):
        r = LatencyRecorder()
        for _ in range(999):
            r.record(10)
        r.record(1000)
        assert r.p999() == 1000

    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=200))
    def test_percentiles_monotone(self, vals):
        ps = [percentile(vals, p) for p in (10, 50, 90, 99, 99.9)]
        assert ps == sorted(ps)
        assert min(vals) <= ps[0] and ps[-1] <= max(vals)


class TestSummaryMath:
    def test_speedup_positive_when_faster(self):
        assert speedup([200], [100]) == pytest.approx(1.0)

    def test_speedup_zero_when_equal(self):
        assert speedup([100, 100], [100, 100]) == pytest.approx(0.0)

    def test_speedup_negative_when_slower(self):
        assert speedup([100], [200]) == pytest.approx(-0.5)

    def test_energy_savings(self):
        assert energy_savings([100.0], [80.0]) == pytest.approx(0.2)

    def test_improvement_stddev_zero_for_constant(self):
        assert improvement_stddev(100.0, [90.0, 90.0]) == pytest.approx(0.0)

    def test_improvement_stddev_positive_for_spread(self):
        assert improvement_stddev(100.0, [80.0, 120.0]) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            speedup([], [1])
        with pytest.raises(ValueError):
            energy_savings([0.0], [1.0])
