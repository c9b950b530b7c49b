"""Sweep telemetry: the progress views, the worker and times each history
run row carries, and zero perturbation.

The load-bearing property is the last one: a sweep with its view and
history store attached must produce **bit-identical** results to one
without — across the pool path, the serial path and fault injection.
Telemetry observes; it never steers.
"""

from __future__ import annotations

import io
import os
import threading

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.parallel import RunSpec, SweepExecutor
from repro.experiments.runner import gc_totals, rss_peak_kb
from repro.faults import fault_profile
from repro.obs.history import HistoryStore
from repro.obs.progress import LiveView, PlainView, make_view
from repro.verify.differential import canonical

SPECS = [
    RunSpec(workload="configure-gcc", machine="ryzen_4650g",
            scheduler=sched, governor="schedutil", seed=1, scale=0.3)
    for sched in ("cfs", "nest")
]

STATS = {"wall_s": 0.5, "simulated": 2, "cache_hits": 0,
         "interrupted": False}


# ---------------------------------------------------------------------------
# Progress views
# ---------------------------------------------------------------------------

def _feed_sweep(view, n=2):
    view.start(n)
    for i in range(n):
        view.run_done(f"run-{i}", "simulated", 0.2)
    view.finish(STATS)


class TestViews:
    def test_make_view_modes(self):
        buf = io.StringIO()
        assert make_view("none", buf) is None
        assert make_view("off", buf) is None
        assert make_view(None, buf) is None
        assert isinstance(make_view("plain", buf), PlainView)
        assert isinstance(make_view("live", buf), LiveView)
        # StringIO is not a tty -> auto degrades to the plain view.
        assert isinstance(make_view("auto", buf), PlainView)
        with pytest.raises(ValueError):
            make_view("sideways", buf)

    def test_plain_view_lines(self):
        buf = io.StringIO()
        _feed_sweep(PlainView(buf))
        out = buf.getvalue()
        assert "[1/2]" in out and "[2/2]" in out
        assert "run-0" in out and "run-1" in out
        assert "done: 2/2 runs" in out and "2 simulated" in out

    def test_plain_view_marks_cached_runs(self):
        buf = io.StringIO()
        view = PlainView(buf)
        view.start(2)
        view.run_done("c", "cached")
        view.run_done("s", "skipped")
        view.finish(dict(STATS, simulated=0, cache_hits=1))
        out = buf.getvalue()
        assert "[1/2] cache" in out
        assert "[1/2] skip" in out     # a skipped run is not done
        assert "done: 1/2 runs" in out

    def test_live_view_renders_and_closes(self):
        buf = io.StringIO()
        view = LiveView(buf, fps=10_000)   # no throttling in the test
        _feed_sweep(view)
        out = buf.getvalue()
        assert "sweep 2/2 (100%)" in out and "cache 0 hit(s)" in out
        # One status line, redrawn in place: no cursor moves between
        # lines, and the final frame ends the line.
        assert out.count("\n") == 1 and out.endswith("\n")
        assert "\x1b[F" not in out and "\x1b[1F" not in out


# ---------------------------------------------------------------------------
# What a sweep reports: history run rows and the view
# ---------------------------------------------------------------------------

def _recorded_rows(tmp_path, specs, jobs=2, cache=None):
    with HistoryStore(tmp_path / "history.sqlite") as hist:
        SweepExecutor(jobs=jobs, cache=cache, history=hist).run(specs)
        return hist.runs_of(hist.sweeps()[0]["id"])


class TestSweepTelemetry:
    def test_pool_sweep_rows_carry_worker_and_times(self, tmp_path):
        rows = _recorded_rows(tmp_path, SPECS)
        assert {r["label"] for r in rows} == {s.label for s in SPECS}
        assert all(r["outcome"] == "simulated" for r in rows)
        for row in rows:
            assert row["pid"] not in (None, os.getpid())
            assert row["started"] < row["ended"]

    def test_serial_sweep_rows_carry_the_parent_pid(self, tmp_path):
        (row,) = _recorded_rows(tmp_path, SPECS[:1], jobs=1)
        assert row["pid"] == os.getpid()
        assert row["started"] < row["ended"]

    def test_cached_sweep_rows_carry_no_worker(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        SweepExecutor(jobs=2, cache=cache).run(SPECS)
        buf = io.StringIO()
        with HistoryStore(tmp_path / "history.sqlite") as hist:
            SweepExecutor(jobs=2, cache=cache, view=PlainView(buf),
                          history=hist).run(SPECS)
            rows = hist.runs_of(hist.sweeps()[0]["id"])
        assert all(r["outcome"] == "cached" for r in rows)
        assert all(r["pid"] is None and r["started"] is None
                   and r["ended"] is None for r in rows)
        assert buf.getvalue().count(" cache ") == len(SPECS)

    def test_run_rows_carry_peak_rss(self, tmp_path):
        faulted = [
            RunSpec(workload="configure-gcc", machine="ryzen_4650g",
                    scheduler="nest", governor="schedutil", seed=2,
                    scale=0.3, faults=fault_profile("hotplug"))]
        (row,) = _recorded_rows(tmp_path, faulted)
        assert row["rss_peak_kb"] > 0

    def test_host_probes(self):
        assert rss_peak_kb() > 0          # this test process has an RSS
        collections, _ = gc_totals()
        assert collections >= 0

    def test_view_failures_never_kill_the_sweep(self):
        class ExplodingView:
            def start(self, total):
                raise RuntimeError("renderer bug")

        ex = SweepExecutor(jobs=1, view=ExplodingView())
        assert ex.run(SPECS[:1])[0] is not None
        assert ex.view is None           # benched after its first failure

    def test_history_failures_never_kill_the_sweep(self):
        class ReadOnlyHistory:
            def record_sweep(self, *args, **kwargs):
                raise OSError("attempt to write a readonly database")

        ex = SweepExecutor(jobs=1, history=ReadOnlyHistory())
        assert ex.run(SPECS[:1])[0] is not None

    def test_sweep_parent_starts_no_thread_of_its_own(self, tmp_path,
                                                      monkeypatch):
        """With a view and a history store attached, a pooled sweep
        starts only the threads ``ProcessPoolExecutor`` needs."""
        started = []
        real_start = threading.Thread.start

        def start(thread):
            target = getattr(thread, "_target", None)
            started.append((thread.name, target.__module__ if target
                            else type(thread).__module__))
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        with HistoryStore(tmp_path / "history.sqlite") as hist:
            SweepExecutor(jobs=2, view=PlainView(io.StringIO()),
                          history=hist).run(SPECS)
        assert started
        foreign = [(name, module) for name, module in started
                   if not module.startswith(("concurrent.futures",
                                             "multiprocessing"))]
        assert not foreign, foreign


# ---------------------------------------------------------------------------
# The load-bearing invariant: telemetry changes nothing
# ---------------------------------------------------------------------------

CHAOS_SPECS = [
    RunSpec(workload="configure-gcc", machine="ryzen_4650g",
            scheduler="nest", governor="schedutil", seed=s, scale=0.3,
            faults=fault_profile("chaos"))
    for s in (1, 2)]


class TestZeroPerturbation:
    @pytest.mark.parametrize("specs,jobs", [(SPECS, 2), (SPECS, 1),
                                            (CHAOS_SPECS, 2)],
                             ids=["pool", "serial", "faults"])
    def test_bit_identical(self, tmp_path, specs, jobs):
        def images(**observers):
            ex = SweepExecutor(jobs=jobs, **observers)
            return [canonical(r, s.machine)
                    for s, r in zip(specs, ex.run(specs))]

        with HistoryStore(tmp_path / "history.sqlite") as hist:
            observed = images(view=PlainView(io.StringIO()), history=hist)
        assert observed == images()
