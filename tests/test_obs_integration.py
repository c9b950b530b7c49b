"""Integration tests of the observability layer against the simulator.

The two contracts that matter most:

* **Zero overhead when disabled** — a run with no sinks attached never
  constructs a single SchedEvent, and its results are bit-identical to a
  run that never imported the obs layer (there is no such run to compare
  against, so we compare against an obs-*enabled* run instead: collecting
  events must not change any deterministic result field).
* **Always-on metrics are coherent** — the Nest placement counters obey
  the paper's accounting identity, and ride on every RunResult.
"""

import pytest

from repro.experiments.runner import run_experiment
from repro.hw.machines import get_machine
from repro.obs.log import EventLog
from repro.workloads.catalog import make_workload
from test_parallel import assert_results_identical


def _run(collect_events=False, scheduler="nest"):
    return run_experiment(
        make_workload("configure-mplayer", scale=0.3),
        get_machine("ryzen_4650g"), scheduler, "schedutil", seed=1,
        collect_events=collect_events)


class TestZeroOverheadWhenDisabled:
    def test_disabled_run_never_constructs_events(self, monkeypatch):
        """No sink attached => EventLog.emit must never be reached."""
        def boom(self, *a, **kw):  # pragma: no cover - must not run
            raise AssertionError("emit() called with no sink attached")
        monkeypatch.setattr(EventLog, "emit", boom)
        res = _run(collect_events=False)
        assert res.makespan_us > 0

    def test_collecting_events_does_not_change_results(self):
        """Instrumentation is read-only: results stay bit-identical."""
        plain = _run(collect_events=False)
        observed = _run(collect_events=True)
        # The only legitimate difference: the event count rides on extra.
        observed.extra.pop("n_events")
        assert_results_identical(plain, observed)

    def test_enabled_run_yields_events(self):
        res = _run(collect_events=True)
        assert res.extra["n_events"] == float(len(res.events))
        assert len(res.events) > 0
        assert all(ev.t >= 0 for ev in res.events)

    def test_event_timestamps_monotonic_per_emission_order(self):
        res = _run(collect_events=True)
        times = [ev.t for ev in res.events]
        assert times == sorted(times)


class TestFreqRequestLog:
    def test_request_logged_only_when_it_changes(self):
        res = run_experiment(
            make_workload("configure-llvm_ninja", scale=0.3),
            get_machine("5218_2s"), "nest", "schedutil", seed=1,
            collect_events=True)
        last = {}
        logged = 0
        for ev in res.events:
            if ev.kind == "freq.request":
                assert last.get(ev.cpu) != ev.value, ev
                last[ev.cpu] = ev.value
                logged += 1
        assert logged > 0


class TestNestMetrics:
    def test_placement_identity_holds(self):
        """attach + primary + reserve + cfs == placements (§3.3 search)."""
        res = _run()
        st = {k: res.metrics[f"nest.{k}"]["value"] for k in
              ("attachment_hits", "primary_hits", "reserve_hits",
               "cfs_fallbacks", "placements")}
        assert (st["attachment_hits"] + st["primary_hits"] +
                st["reserve_hits"] + st["cfs_fallbacks"]) == st["placements"]
        assert st["placements"] > 0

    def test_check_invariants_raises_on_corruption(self):
        from repro.core.nest import NestPolicy
        pol = NestPolicy()
        pol.metrics.counter("placements").value = 5   # hits still 0
        with pytest.raises(AssertionError):
            pol.check_invariants()

    def test_metrics_ride_on_run_result(self):
        res = _run()
        assert res.metrics["nest.placements"]["type"] == "counter"
        assert res.metrics["nest.placements"]["value"] > 0
        assert res.metrics["kernel.wakeup_latency_us"]["type"] == "histogram"
        # Every dispatch observes the histogram (forks and requeues
        # included), so it covers at least every wakeup.
        assert res.metrics["kernel.wakeup_latency_us"]["count"] >= \
            res.total_wakeups

    def test_search_len_histogram_counts_every_placement(self):
        res = _run()
        h = res.metrics["nest.search_len"]
        assert h["count"] == res.metrics["nest.placements"]["value"]

    def test_cfs_run_has_kernel_metrics_only(self):
        res = _run(scheduler="cfs")
        assert "kernel.wakeup_latency_us" in res.metrics
        assert not any(k.startswith("nest.") for k in res.metrics)
