"""Hardened sweep execution: crash/hang recovery, fail-fast, resume,
quarantine.

The chaos hook (``tests/chaos.py``) faults each spec's *worker process*
exactly once — a crash (`os._exit`) or a hang — so these tests drive the
executor's pool retry, timeout and degradation machinery end to end with
real process pools.  A spec that raises is never retried.
"""

import io
import json

import pytest

import chaos
from repro.experiments import parallel
from repro.experiments.cache import (QUARANTINE_DIR, ResultCache,
                                     atomic_write_json, spec_key)
from repro.experiments.parallel import (RunSpec, SweepExecutor, SweepFailure,
                                        execute_spec)
from repro.faults import FaultConfig
from repro.obs.history import HistoryStore
from repro.obs.progress import PlainView

SPECS = [
    RunSpec(workload="phoronix-libavif-avifenc-1", machine="5218_2s",
            scheduler=sched, governor="schedutil", seed=seed, scale=0.3)
    for sched in ("cfs", "nest")
    for seed in (1, 2)
]


def assert_results_identical(a, b):
    assert a.makespan_us == b.makespan_us
    assert a.energy_joules == b.energy_joules
    assert a.metrics == b.metrics


@pytest.fixture
def arm_chaos(tmp_path):
    """Arm the chaos hook; returns a setter for the mode list."""
    yield lambda modes: chaos.arm(modes, tmp_path / "sentinels")
    chaos.disarm()


class TestChaosHook:
    def test_inert_in_parent_process(self, arm_chaos):
        """The hook must never fault the parent (serial/degraded path)."""
        arm_chaos("crash-once")
        res = parallel.execute_spec(SPECS[0])   # would os._exit(23) if buggy
        assert res.makespan_us > 0


class TestCrashRecovery:
    def test_crashed_workers_retried_to_completion(self, arm_chaos):
        arm_chaos("crash-once")
        ex = SweepExecutor(jobs=2, retries=2)
        results = ex.run(SPECS)
        assert all(r is not None for r in results)
        assert ex.last_stats.retried > 0
        assert "retried" in ex.last_stats.summary()
        # Recovery must not change the science: same results as serial.
        for spec, res in zip(SPECS, results):
            assert_results_identical(res, execute_spec(spec))

    def test_pool_break_degrades_to_serial(self, arm_chaos):
        arm_chaos("crash-once")
        ex = SweepExecutor(jobs=2, retries=0)
        results = ex.run(SPECS)
        assert all(r is not None for r in results)
        assert ex.last_stats.degraded
        assert "degraded to serial" in ex.last_stats.summary()


class TestHangRecovery:
    def test_hung_pool_timed_out_and_retried(self, arm_chaos):
        arm_chaos("hang-once")
        ex = SweepExecutor(jobs=2, retries=2, timeout_s=1.0)
        results = ex.run(SPECS[:2])
        assert all(r is not None for r in results)
        assert ex.last_stats.timeouts >= 1
        for spec, res in zip(SPECS[:2], results):
            assert_results_identical(res, execute_spec(spec))


BAD = RunSpec(workload="no-such-workload", machine="5218_2s")

#: Where counting_execute_spec appends labels; set by the counted_calls
#: fixture before a sweep, so a fork-started pool worker inherits it.
CALLS_FILE = None


def counting_execute_spec(spec, *args, **kwargs):
    """``execute_spec`` that first appends the spec's label to CALLS_FILE
    (module level, so a pool pickles it by reference)."""
    with open(CALLS_FILE, "a", encoding="utf-8") as fh:
        fh.write(spec.label + "\n")
    return execute_spec(spec, *args, **kwargs)


@pytest.fixture
def counted_calls(monkeypatch, tmp_path):
    """Count execute_spec calls by label, in this process and in pool
    workers; returns a reader of the labels counted so far."""
    path = tmp_path / "calls.txt"
    path.touch()
    monkeypatch.setitem(globals(), "CALLS_FILE", str(path))
    monkeypatch.setattr(parallel, "execute_spec", counting_execute_spec)
    return lambda: path.read_text(encoding="utf-8").splitlines()


class TestFailureBudget:
    """A simulation is a pure function of its spec: one that raises is
    never run again."""

    def test_raising_spec_fails_at_once(self, counted_calls):
        ex = SweepExecutor(jobs=1)
        with pytest.raises(SweepFailure, match="no-such-workload"):
            ex.run([BAD])
        assert counted_calls() == [BAD.label]

    def test_raising_spec_runs_once_in_a_pool(self, counted_calls):
        ex = SweepExecutor(jobs=2)
        with pytest.raises(SweepFailure, match="no-such-workload"):
            ex.run(SPECS[:3] + [BAD])
        assert counted_calls().count(BAD.label) == 1

    def test_skip_failures_yields_none_and_counts(self, counted_calls):
        ex = SweepExecutor(jobs=1, skip_failures=True)
        results = ex.run([SPECS[0], BAD])
        assert results[0] is not None
        assert results[1] is None
        assert ex.last_stats.skipped == 1
        assert "skipped" in ex.last_stats.summary()
        assert counted_calls() == [SPECS[0].label, BAD.label]

    def test_failed_sweep_closes_its_telemetry(self, tmp_path):
        """A SweepFailure finishes the view and records the history row
        as a finished sweep does."""
        shown = io.StringIO()
        with HistoryStore(tmp_path / "history.sqlite") as hist:
            with pytest.raises(SweepFailure):
                SweepExecutor(jobs=1, view=PlainView(shown),
                              history=hist).run([SPECS[0], BAD])
            assert shown.getvalue().endswith("INTERRUPTED\n")
            (sweep,) = hist.sweeps()
            assert sweep["interrupted"] == 1
            runs = {r["label"]: r for r in hist.runs_of(sweep["id"])}
        assert runs[SPECS[0].label]["outcome"] == "simulated"
        bad = runs[BAD.label]
        assert bad["outcome"] == "pending"
        assert not bad["completed"]
        assert "no-such-workload" in bad["error"]


@pytest.fixture
def interrupt_second_run(monkeypatch):
    """Let the first spec run, then interrupt the sweep (Ctrl-C) as the
    second one starts; returns the labels of the runs that completed."""
    real = parallel.execute_spec
    calls = []

    def bomb(spec):
        if calls:
            raise KeyboardInterrupt
        calls.append(spec.label)
        return real(spec)

    monkeypatch.setattr(parallel, "execute_spec", bomb)
    return calls


class TestCheckpointResume:
    """Each finished run is cached as it finishes, so an interrupted
    sweep resumes through plain cache hits."""

    def test_interrupt_flushes_completed_runs(self, tmp_path,
                                              interrupt_second_run):
        cache = ResultCache(tmp_path / "cache")
        calls = interrupt_second_run

        with HistoryStore(cache.root / "history.sqlite") as hist:
            ex = SweepExecutor(jobs=1, cache=cache, history=hist)
            with pytest.raises(KeyboardInterrupt):
                ex.run(SPECS)
            assert ex.last_stats.interrupted
            assert len(calls) == 1
            # The completed run was cached before the interrupt landed
            # and the history row records the sweep as interrupted.
            assert cache.get_spec(SPECS[0]) is not None
            (sweep,) = hist.sweeps()
            assert sweep["interrupted"] == 1
            runs = hist.runs_of(sweep["id"])
        completed = [r for r in runs if r["completed"]]
        pending = [r for r in runs if r["outcome"] == "pending"]
        assert len(completed) == 1
        assert len(pending) == len(SPECS) - 1

    def test_resumed_sweep_reads_completed_runs_as_cache_hits(
            self, tmp_path, monkeypatch, interrupt_second_run):
        cache = ResultCache(tmp_path / "cache")

        with pytest.raises(KeyboardInterrupt):
            SweepExecutor(jobs=1, cache=cache).run(SPECS)

        monkeypatch.undo()
        with HistoryStore(cache.root / "history.sqlite") as hist:
            ex = SweepExecutor(jobs=1, cache=cache, history=hist)
            results = ex.run(SPECS)
            assert all(r is not None for r in results)
            assert ex.last_stats.cache_hits == 1
            (sweep,) = hist.sweeps()
            assert sweep["interrupted"] == 0
            outcomes = [r["outcome"] for r in hist.runs_of(sweep["id"])]
        assert outcomes.count("cached") == 1
        assert outcomes.count("simulated") == 3


class TestSpecKeys:
    def test_faults_do_not_perturb_clean_keys(self):
        """Pre-existing cache entries keep their address: a spec with
        faults=None hashes as if the field did not exist."""
        class Legacy:
            pass

        legacy = Legacy()
        for f in ("machine", "workload", "scale", "scheduler", "governor",
                  "seed", "max_us", "nest_params", "kernel_config",
                  "record_trace"):
            setattr(legacy, f, getattr(SPECS[0], f))
        assert spec_key(SPECS[0]) == spec_key(legacy)

    def test_faulted_spec_gets_a_distinct_key(self):
        import dataclasses
        faulted = dataclasses.replace(
            SPECS[0], faults=FaultConfig(hotplug_rate_per_s=1.0))
        assert spec_key(faulted) != spec_key(SPECS[0])


class TestQuarantine:
    def corrupt_entry(self, cache, spec):
        key = spec_key(spec)
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{ torn", encoding="utf-8")
        return key, path

    def test_corrupt_entry_is_a_miss_and_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key, path = self.corrupt_entry(cache, SPECS[0])
        assert cache.get(key) is None
        assert not path.exists()
        qfile = cache.root / QUARANTINE_DIR / path.name
        assert qfile.exists()
        assert cache.quarantined == 1
        assert cache.stats()["quarantined"] == 1
        assert cache.stats()["entries"] == 0

    def test_quarantined_entry_resimulated_on_next_sweep(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        ex = SweepExecutor(jobs=1, cache=cache)
        first = ex.run(SPECS[:1])
        self.corrupt_entry(cache, SPECS[0])
        again = SweepExecutor(jobs=1, cache=cache).run(SPECS[:1])
        assert_results_identical(first[0], again[0])

    def test_verify_reports_and_fixes(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        SweepExecutor(jobs=1, cache=cache).run(SPECS[:2])
        self.corrupt_entry(cache, SPECS[2])
        report = cache.verify(fix=True)
        assert report["checked"] == 3
        assert report["corrupt"] == 1
        assert "quarantined_to" in report["entries"][0]
        # The survivors still decode.
        assert cache.verify(fix=True)["corrupt"] == 0

    def test_verify_dry_run_leaves_entries_in_place(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key, path = self.corrupt_entry(cache, SPECS[0])
        report = cache.verify(fix=False)
        assert report["corrupt"] == 1
        assert path.exists()

    def test_cli_cache_verify(self, tmp_path, monkeypatch, capsys):
        from repro.experiments.cli import main
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        cache = ResultCache()
        assert main(["cache", "verify"]) == 0
        self.corrupt_entry(cache, SPECS[0])
        assert main(["cache", "verify"]) == 1
        out = capsys.readouterr().out
        assert "corrupt" in out
        assert main(["cache", "verify"]) == 0   # already quarantined


class TestAtomicWrites:
    def test_no_tmp_droppings(self, tmp_path):
        target = tmp_path / "sub" / "report.json"
        atomic_write_json(target, {"a": 1}, indent=2)
        assert json.loads(target.read_text()) == {"a": 1}
        assert [p.name for p in target.parent.iterdir()] == ["report.json"]

    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        target = tmp_path / "report.json"
        with pytest.raises(TypeError):
            atomic_write_json(target, {"bad": object()})
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_cache_put_is_atomic_format(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        SweepExecutor(jobs=1, cache=cache).run(SPECS[:1])
        entries = list(cache._entry_paths())
        assert len(entries) == 1
        json.loads(entries[0].read_text())   # decodes cleanly
        assert not any(p.suffix == ".tmp"
                       for p in entries[0].parent.iterdir())


class TestFaultedSweep:
    def test_faulted_specs_sweep_deterministically(self, tmp_path):
        fc = FaultConfig(hotplug_rate_per_s=300.0, thermal_rate_per_s=300.0,
                         hotplug_downtime_us=2500, horizon_us=10_000)
        import dataclasses
        specs = [dataclasses.replace(s, faults=fc) for s in SPECS]
        cache = ResultCache(tmp_path / "cache")
        first = SweepExecutor(jobs=2, cache=cache).run(specs)
        second = SweepExecutor(jobs=2, cache=ResultCache(tmp_path / "cache"))\
            .run(specs)
        for a, b in zip(first, second):
            assert_results_identical(a, b)
        serial = [execute_spec(s) for s in specs]
        for a, b in zip(first, serial):
            assert_results_identical(a, b)
