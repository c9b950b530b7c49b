"""Run-history store: sqlite persistence, regression gates, trajectory.

Includes the PR's acceptance gate: ``repro history diff`` must detect an
artificially slowed run and exit non-zero.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.cli import main
from repro.experiments.parallel import RunSpec, SweepExecutor
from repro.obs.history import (HistoryStore, SCHEMA_VERSION,
                               append_trajectory, trajectory_entries)
from repro.obs.telemetry.hub import TelemetryHub

STATS = {"n_specs": 2, "simulated": 2, "cache_hits": 0, "wall_s": 2.0,
         "events": 100, "workers": 2}


def run_row(label, key, wall=1.0, makespan=1000, energy=2.0,
            metrics=None, **over):
    row = {"label": label, "spec_key": key, "engine": "ref", "seed": 1,
           "outcome": "simulated", "cached": False, "completed": True,
           "attempts": 1, "sim_wall_s": wall, "events_processed": 50,
           "makespan_us": makespan, "energy_j": energy, "rss_peak_kb": 64,
           "metrics": metrics or {"kernel.wakeups": 10}}
    row.update(over)
    return row


@pytest.fixture
def store(tmp_path):
    with HistoryStore(tmp_path / "history.sqlite") as st:
        yield st


class TestSchema:
    def test_fresh_store_is_current_version(self, store):
        assert store.schema_version == SCHEMA_VERSION

    def test_reopen_is_a_noop_migration(self, tmp_path):
        path = tmp_path / "h.sqlite"
        HistoryStore(path).close()
        with HistoryStore(path) as st:
            assert st.schema_version == SCHEMA_VERSION

    def test_future_schema_is_refused(self, tmp_path):
        path = tmp_path / "h.sqlite"
        con = sqlite3.connect(str(path))
        con.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        con.close()
        with pytest.raises(RuntimeError, match="newer"):
            HistoryStore(path)

    def test_existing_data_survives_reopen(self, tmp_path):
        path = tmp_path / "h.sqlite"
        with HistoryStore(path) as st:
            st.record_sweep("u1", STATS, [run_row("a", "k1")])
        with HistoryStore(path) as st:
            assert len(st.sweeps()) == 1
            assert st.runs_of(1)[0]["label"] == "a"


class TestRecordAndResolve:
    def test_record_returns_monotonic_ids(self, store):
        a = store.record_sweep("u1", STATS, [])
        b = store.record_sweep("u2", STATS, [])
        assert b == a + 1

    def test_sweeps_newest_first(self, store):
        store.record_sweep("u1", STATS, [])
        store.record_sweep("u2", STATS, [])
        assert [s["uid"] for s in store.sweeps()] == ["u2", "u1"]

    def test_runs_roundtrip_metrics(self, store):
        sid = store.record_sweep("u1", STATS,
                                 [run_row("a", "k1",
                                          metrics={"nest.x": 3.5})])
        runs = store.runs_of(sid)
        assert runs[0]["metrics"] == {"nest.x": 3.5}
        assert runs[0]["rss_peak_kb"] == 64

    def test_resolve_forms(self, store):
        i1 = store.record_sweep("20260101-aaa", STATS, [])
        store.record_sweep("20260202-bbb", STATS, [])
        assert store.resolve("last")["uid"] == "20260202-bbb"
        assert store.resolve("last-1")["uid"] == "20260101-aaa"
        assert store.resolve(str(i1))["uid"] == "20260101-aaa"
        assert store.resolve("20260101")["uid"] == "20260101-aaa"
        with pytest.raises(KeyError):
            store.resolve("nope")


class TestDiffGate:
    def _two_sweeps(self, store, second_runs):
        store.record_sweep("base", STATS,
                           [run_row("a", "k1"), run_row("b", "k2")])
        store.record_sweep("cur", STATS, second_runs)

    def test_identical_sweeps_are_clean(self, store):
        self._two_sweeps(store, [run_row("a", "k1"), run_row("b", "k2")])
        diff = store.diff("last", "last-1")
        assert not diff.has_regressions and diff.compared == 2

    def test_artificially_slowed_run_is_flagged(self, store):
        # The acceptance gate: one run 3x slower must trip the wall gate.
        self._two_sweeps(store, [run_row("a", "k1", wall=3.0),
                                 run_row("b", "k2")])
        diff = store.diff("last", "last-1", wall_tol=0.5)
        assert diff.has_regressions
        assert [r.kind for r in diff.regressions] == ["wall"]
        assert "3.000s" in diff.regressions[0].detail
        assert "REGRESSION" in diff.render()

    def test_wall_tolerance_is_respected(self, store):
        self._two_sweeps(store, [run_row("a", "k1", wall=1.4),
                                 run_row("b", "k2")])
        assert not store.diff(wall_tol=0.5).has_regressions
        assert store.diff(wall_tol=0.2).has_regressions

    def test_deterministic_drift_is_flagged_even_when_fast(self, store):
        self._two_sweeps(store, [run_row("a", "k1", makespan=1001),
                                 run_row("b", "k2")])
        diff = store.diff()
        assert [r.kind for r in diff.regressions] == ["metric"]
        assert "makespan_us" in diff.regressions[0].detail

    def test_metric_registry_drift_is_flagged(self, store):
        self._two_sweeps(store, [
            run_row("a", "k1", metrics={"kernel.wakeups": 11}),
            run_row("b", "k2")])
        diff = store.diff()
        assert any("kernel.wakeups" in r.detail for r in diff.regressions)

    def test_cached_runs_skip_the_wall_gate(self, store):
        # A cache hit replays the producing run's wall time: not a signal.
        self._two_sweeps(store, [
            run_row("a", "k1", wall=9.0, outcome="cached", cached=True),
            run_row("b", "k2")])
        assert not store.diff(wall_tol=0.5).has_regressions

    def test_newly_skipped_run_is_an_outcome_regression(self, store):
        self._two_sweeps(store, [
            run_row("a", "k1", outcome="skipped", completed=False,
                    sim_wall_s=None, makespan_us=None, energy_j=None,
                    error="boom"),
            run_row("b", "k2")])
        diff = store.diff()
        assert [r.kind for r in diff.regressions] == ["outcome"]

    def test_improvements_are_reported_not_flagged(self, store):
        self._two_sweeps(store, [run_row("a", "k1", wall=0.2),
                                 run_row("b", "k2")])
        diff = store.diff(wall_tol=0.5)
        assert not diff.has_regressions
        assert len(diff.improvements) == 1


class TestCliGate:
    """The end-to-end acceptance path: slow run -> CLI exit 1."""

    def _seed_history(self, tmp_path, slow=False):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir(parents=True, exist_ok=True)
        with HistoryStore(cache_dir / "history.sqlite") as st:
            st.record_sweep("base", STATS,
                            [run_row("a", "k1"), run_row("b", "k2")])
            st.record_sweep("cur", STATS, [
                run_row("a", "k1", wall=5.0 if slow else 1.0),
                run_row("b", "k2")])
        return str(cache_dir)

    def test_diff_exits_zero_when_clean(self, tmp_path, capsys):
        cache_dir = self._seed_history(tmp_path)
        assert main(["history", "diff", "--cache-dir", cache_dir]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_diff_exits_nonzero_on_slowdown(self, tmp_path, capsys):
        cache_dir = self._seed_history(tmp_path, slow=True)
        assert main(["history", "diff", "--cache-dir", cache_dir,
                     "--wall-tol", "0.5"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "[wall]" in out

    def test_list_and_show(self, tmp_path, capsys):
        cache_dir = self._seed_history(tmp_path)
        assert main(["history", "list", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "base" in out and "cur" in out
        assert main(["history", "show", "last",
                     "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "cur" in out and "simulated" in out

    def test_missing_history_is_an_error(self, tmp_path, capsys):
        assert main(["history", "list",
                     "--cache-dir", str(tmp_path / "void")]) == 1
        assert "no run history" in capsys.readouterr().err


class TestExecutorIntegration:
    def test_sweep_records_itself_into_history(self, tmp_path):
        specs = [RunSpec(workload="configure-gcc", machine="ryzen_4650g",
                         scheduler=s, governor="schedutil", seed=1,
                         scale=0.3) for s in ("cfs", "nest")]
        cache = ResultCache(root=tmp_path / "cache")
        with HistoryStore(tmp_path / "history.sqlite") as hist:
            hub = TelemetryHub(history=hist, label="integration")
            SweepExecutor(jobs=2, cache=cache, telemetry=hub).run(specs)
            sweeps = hist.sweeps()
            assert len(sweeps) == 1
            assert sweeps[0]["n_specs"] == 2
            assert sweeps[0]["simulated"] == 2
            assert sweeps[0]["label"] == "integration"
            runs = hist.runs_of(sweeps[0]["id"])
            assert {r["label"] for r in runs} == {s.label for s in specs}
            assert all(r["spec_key"] for r in runs)
            assert all(r["makespan_us"] for r in runs)
            # A second, fully-cached sweep must still be bit-stable.
            hub2 = TelemetryHub(history=hist)
            SweepExecutor(jobs=2, cache=cache, telemetry=hub2).run(specs)
            diff = hist.diff("last", "last-1")
            assert not diff.has_regressions, diff.render()


TRAJ_RECORD = {
    "workload": "configure x combos",
    "git_sha": "abc1234",
    "engines": {"ref": {"wall_s": 2.0, "events_per_sec": 100.0}},
    "speedup_vs_seed": {"ref": 1.7},
}


class TestTrajectoryExport:
    def test_entries_match_the_trajectory_schema(self):
        entries = trajectory_entries(TRAJ_RECORD, pr=7, host="ci")
        assert entries == [{
            "pr": 7, "git_sha": "abc1234", "engine": "ref",
            "workload": "configure x combos", "wall_s": 2.0,
            "speedup_vs_seed": 1.7, "host": "ci"}]

    def test_append_is_idempotent_per_measurement(self, tmp_path):
        path = tmp_path / "traj.json"
        path.write_text(json.dumps({"entries": []}))
        entries = trajectory_entries(TRAJ_RECORD, pr=7)
        assert append_trajectory(path, entries) == 1
        assert append_trajectory(path, entries) == 1   # replace, not dup
        doc = json.loads(path.read_text())
        assert [e["engine"] for e in doc["entries"]] == ["ref"]

    def test_real_trajectory_file_roundtrips(self, tmp_path):
        import shutil
        src = "BENCH_trajectory.json"
        dst = tmp_path / "traj.json"
        shutil.copy(src, dst)
        before = json.loads(dst.read_text())["entries"]
        append_trajectory(dst, trajectory_entries(TRAJ_RECORD, pr=99))
        after = json.loads(dst.read_text())["entries"]
        assert len(after) == len(before) + 1
        # The pre-existing hand-written entries are untouched.
        for entry in before:
            assert entry in after

    def test_cli_export_appends(self, tmp_path, capsys):
        record_path = tmp_path / "perf.json"
        record_path.write_text(json.dumps(TRAJ_RECORD))
        traj = tmp_path / "traj.json"
        traj.write_text(json.dumps({"entries": []}))
        assert main(["history", "export-trajectory",
                     "--record", str(record_path), "--pr", "7",
                     "--host", "ci", "--append", str(traj)]) == 0
        assert "merged 1 entry" in capsys.readouterr().out
        doc = json.loads(traj.read_text())
        assert {e["host"] for e in doc["entries"]} == {"ci"}


class TestDerivedMetricGate:
    """The analysis layer's history hook: ``derived.*`` scalars are
    gated like raw counters and drive ``--attribute`` ranking."""

    DERIVED = {"kernel.wakeups": 10, "derived.wakeup_p99_us": 100,
               "derived.warm_share": 0.9}

    def _two_sweeps(self, store, cur_metrics):
        store.record_sweep("base", STATS,
                           [run_row("a", "k1", metrics=dict(self.DERIVED))])
        store.record_sweep("cur", STATS,
                           [run_row("a", "k1", metrics=cur_metrics)])

    def test_derived_drift_is_a_metric_regression(self, store):
        moved = dict(self.DERIVED, **{"derived.warm_share": 0.5})
        self._two_sweeps(store, moved)
        diff = store.diff()
        assert [r.kind for r in diff.regressions] == ["metric"]
        assert "derived.warm_share" in diff.regressions[0].detail

    def test_rows_without_derived_keys_are_skipped(self, store):
        # Pre-analysis-layer history rows: the key intersection protects
        # them from spurious "metric disappeared" regressions.
        self._two_sweeps(store, {"kernel.wakeups": 10})
        assert not store.diff().has_regressions

    def test_attribute_ranks_the_biggest_mover(self, store):
        moved = dict(self.DERIVED, **{"derived.wakeup_p99_us": 500,
                                      "kernel.wakeups": 11})
        self._two_sweeps(store, moved)
        diff = store.diff(attribute=True, top_moves=2)
        assert len(diff.attributions) == 1
        attr = diff.attributions[0]
        # p99 moved 4x, wakeups 10%: p99 must lead the ranking.
        assert attr.startswith("a: moved most — derived.wakeup_p99_us")
        assert "100 -> 500 (+400.0%)" in attr
        assert attr in diff.render()

    def test_attribute_on_identical_runs_says_so(self, store):
        self._two_sweeps(store, dict(self.DERIVED))
        diff = store.diff(attribute=True)
        assert diff.attributions == ["a: no metric moved"]

    def test_cli_gates_on_derived_drift(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir(parents=True)
        with HistoryStore(cache_dir / "history.sqlite") as st:
            st.record_sweep("base", STATS,
                            [run_row("a", "k1",
                                     metrics=dict(self.DERIVED))])
            st.record_sweep("cur", STATS, [
                run_row("a", "k1",
                        metrics=dict(self.DERIVED,
                                     **{"derived.wakeup_p99_us": 200}))])
        rc = main(["history", "diff", "--cache-dir", str(cache_dir),
                   "--attribute"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[metric]" in out and "derived.wakeup_p99_us" in out
        assert "moved most" in out

    def test_sweep_rows_carry_derived_metrics(self, tmp_path):
        spec = RunSpec(workload="configure-gcc", machine="ryzen_4650g",
                       scheduler="nest", governor="schedutil", seed=1,
                       scale=0.3)
        cache = ResultCache(root=tmp_path / "cache")
        with HistoryStore(tmp_path / "history.sqlite") as hist:
            hub = TelemetryHub(history=hist)
            SweepExecutor(jobs=1, cache=cache, telemetry=hub).run([spec])
            metrics = hist.runs_of(hist.sweeps()[0]["id"])[0]["metrics"]
        derived = {k for k in metrics if k.startswith("derived.")}
        assert {"derived.wakeup_p50_us", "derived.warm_share",
                "derived.share_cfs"} <= derived
