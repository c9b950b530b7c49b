"""Run-history store: sqlite persistence, the ``repro history`` readers
and the perf-trajectory export."""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.cli import main
from repro.experiments.parallel import RunSpec, SweepExecutor
from repro.obs.history import (HistoryStore, SCHEMA_VERSION,
                               append_trajectory, parse_perfbench,
                               trajectory_entries)

STATS = {"n_specs": 2, "simulated": 2, "cache_hits": 0, "wall_s": 2.0,
         "events": 100, "workers": 2}


def run_row(label, key, **over):
    row = {"label": label, "spec_key": key, "engine": "ref", "seed": 1,
           "outcome": "simulated", "cached": False, "completed": True,
           "attempts": 1, "sim_wall_s": 1.0, "events_processed": 50,
           "makespan_us": 1000, "energy_j": 2.0, "rss_peak_kb": 64,
           "metrics": {"kernel.wakeups": 10}}
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

    def test_every_run_row_has_the_same_keys(self, store):
        # A pending run has no metrics; its row still reads metrics={}
        # and carries no raw metrics_json column.
        pending = {"label": "b", "spec_key": "k2", "outcome": "pending"}
        sid = store.record_sweep("u1", STATS,
                                 [run_row("a", "k1"), pending])
        simulated, waiting = store.runs_of(sid)
        assert waiting["metrics"] == {}
        assert set(waiting) == set(simulated)
        assert "metrics_json" not in simulated

    def test_resolve_forms(self, store):
        i1 = store.record_sweep("20260101-aaa", STATS, [])
        store.record_sweep("20260202-bbb", STATS, [])
        assert store.resolve("last")["uid"] == "20260202-bbb"
        assert store.resolve("last-1")["uid"] == "20260101-aaa"
        assert store.resolve(str(i1))["uid"] == "20260101-aaa"
        assert store.resolve("20260101")["uid"] == "20260101-aaa"
        for bad in ("nope", "last-x", "last--1", "last-"):
            with pytest.raises(KeyError):
                store.resolve(bad)

    def test_malformed_last_ref_is_a_cli_error(self, tmp_path, capsys):
        with HistoryStore(tmp_path / "history.sqlite") as st:
            st.record_sweep("u1", STATS, [])
        for argv in (["history", "show", "last-x"],
                     ["obs", "dashboard", "--sweep", "last-x",
                      "--out", str(tmp_path / "d.html")]):
            assert main(argv + ["--cache-dir", str(tmp_path)]) == 1
            assert "error: no sweep matches" in capsys.readouterr().err


class TestCliGate:
    """``repro history list`` and ``show`` over hand-written rows."""

    def _seed_history(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir(parents=True, exist_ok=True)
        with HistoryStore(cache_dir / "history.sqlite") as st:
            st.record_sweep("base", STATS,
                            [run_row("a", "k1"), run_row("b", "k2")])
            st.record_sweep("cur", STATS,
                            [run_row("a", "k1"), run_row("b", "k2")])
        return str(cache_dir)

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
            SweepExecutor(jobs=2, cache=cache, history=hist).run(specs)
            sweeps = hist.sweeps()
            assert len(sweeps) == 1
            assert sweeps[0]["n_specs"] == 2
            assert sweeps[0]["simulated"] == 2
            runs = hist.runs_of(sweeps[0]["id"])
            assert {r["label"] for r in runs} == {s.label for s in specs}
            assert all(r["spec_key"] for r in runs)
            assert all(r["makespan_us"] for r in runs)
            # The history row is the sweep's one record.
            assert not (cache.root / "last-sweep.json").exists()
            # A fully cached rerun records the cached results as they are.
            SweepExecutor(jobs=2, cache=cache, history=hist).run(specs)
            cached = hist.runs_of(hist.sweeps()[0]["id"])
            assert [r["outcome"] for r in cached] == ["cached", "cached"]
            outputs = lambda rows: [(r["makespan_us"], r["energy_j"],
                                     r["metrics"]) for r in rows]
            assert outputs(cached) == outputs(runs)


def perfbench_stdout(workload="configure-fork", seed=1, trace=0,
                     correct=True, sweep_wall_s=6.0):
    """A ``perfbench/run.py`` report: header line, detail, JSON last line."""
    metrics = {"setup_s": 0.5, "sweep_wall_s": sweep_wall_s, "cpu_s": 6.0}
    result = {"correct": correct, "attempted": 40,
              "failed": 0 if correct else 1,
              "metrics": {k: {"value": v, "unit": "s"}
                          for k, v in metrics.items()}}
    return (f"workload {workload}  seed {seed}  trace {trace}: 9 untraced "
            f"+ 1 traced passes, 40 timed simulations\n"
            f"  setup_s samples: 0.500, 0.510\n"
            f"  sweep_wall_s {sweep_wall_s:14.6g} s\n"
            + json.dumps(result) + "\n")


SEED_REF = {"workloads": {"configure-fork": {
    "seed": {"sweep_wall_s": 12.0, "cpu_s": 9.0, "nest_speedup_pct": [1.0]},
    "seed_over_current": {"sweep_wall_s": 1.8, "cpu_s": 1.5}}}}


@pytest.fixture
def seed_ref(tmp_path):
    path = tmp_path / "seed_reference.json"
    path.write_text(json.dumps(SEED_REF))
    return path


class TestTrajectoryExport:
    def test_header_parsing(self):
        text = perfbench_stdout("hackbench-wake", seed=3, sweep_wall_s=0.5)
        assert parse_perfbench(text) == (
            "hackbench-wake", 3,
            {"setup_s": 0.5, "sweep_wall_s": 0.5, "cpu_s": 6.0})

    def test_not_a_report_is_refused(self):
        with pytest.raises(ValueError, match="header"):
            parse_perfbench('{"correct": true}\n')
        with pytest.raises(ValueError, match="JSON result"):
            parse_perfbench(perfbench_stdout() + "run: interrupted\n")

    def test_entries_match_the_trajectory_schema(self, seed_ref):
        entries = trajectory_entries([perfbench_stdout()], pr=17,
                                     seed_reference=seed_ref)
        schema = json.loads(
            Path("BENCH_trajectory.json").read_text())["schema"]
        assert [list(e) for e in entries] == [schema]
        entry = entries[0]
        assert (entry["pr"], entry["workload"], entry["seeds"]) == (
            17, "configure-fork", [1])
        assert "cpus, Python" in entry["host"] and entry["git_sha"]

    def test_median_over_several_files(self, seed_ref):
        texts = [perfbench_stdout(seed=s, sweep_wall_s=w)
                 for s, w in ((2, 5.0), (1, 4.0), (3, 9.0))]
        texts.append(perfbench_stdout("fuzz-verify", sweep_wall_s=3.0))
        cf, fv = trajectory_entries(texts, pr=17, seed_reference=seed_ref)
        assert cf["seeds"] == [1, 2, 3]
        assert cf["metrics"]["sweep_wall_s"] == 5.0
        assert cf["seed_over_current"] == {"sweep_wall_s": 2.4,
                                           "cpu_s": 1.5}
        # The seed tree cannot run fuzz-verify: no ratio, not a guess.
        assert fv["workload"] == "fuzz-verify"
        assert fv["seed_over_current"] is None

    def test_append_is_idempotent_per_measurement(self, tmp_path,
                                                  seed_ref):
        path = tmp_path / "traj.json"
        path.write_text(json.dumps({"entries": []}))
        texts = [perfbench_stdout(w) for w in ("hackbench-wake",
                                               "configure-fork")]
        entries = trajectory_entries(texts, pr=17, seed_reference=seed_ref)
        assert append_trajectory(path, entries) == 2
        assert append_trajectory(path, entries[:1]) == 1  # replace, not dup
        doc = json.loads(path.read_text())
        assert [e["workload"] for e in doc["entries"]] == [
            "configure-fork", "hackbench-wake"]

    def test_real_trajectory_file_roundtrips(self, tmp_path, seed_ref):
        import shutil
        dst = tmp_path / "traj.json"
        shutil.copy("BENCH_trajectory.json", dst)
        before = json.loads(dst.read_text())
        append_trajectory(dst, trajectory_entries(
            [perfbench_stdout()], pr=99, seed_reference=seed_ref))
        after = json.loads(dst.read_text())
        assert len(after["entries"]) == len(before["entries"]) + 1
        # The v1 records and every earlier v2 entry are untouched.
        assert after["v1_entries"] == before["v1_entries"]
        for entry in before["entries"]:
            assert entry in after["entries"]

    def test_cli_export_appends(self, tmp_path, capsys):
        records = []
        for seed in (1, 2):
            records.append(tmp_path / f"configure-fork-seed{seed}.out")
            records[-1].write_text(perfbench_stdout(seed=seed))
        traj = tmp_path / "traj.json"
        traj.write_text(json.dumps({"entries": []}))
        argv = ["history", "export-trajectory", "--pr", "7",
                "--record", *map(str, records)]
        assert main(argv + ["--append", str(traj)]) == 0
        assert "merged 1 entry" in capsys.readouterr().out
        doc = json.loads(traj.read_text())
        assert [e["seeds"] for e in doc["entries"]] == [[1, 2]]
        assert main(argv) == 0                # no --append: print them
        assert json.loads(capsys.readouterr().out) == doc["entries"]

    @pytest.mark.parametrize("text,reason", [
        (perfbench_stdout(correct=False), "correctness gate"),
        (perfbench_stdout(trace=1), "trace 1"),
    ])
    def test_cli_refuses_failed_and_traced_runs(self, tmp_path, capsys,
                                                text, reason):
        good, bad = tmp_path / "good.out", tmp_path / "bad.out"
        good.write_text(perfbench_stdout())
        bad.write_text(text)
        traj = tmp_path / "traj.json"
        traj.write_text(json.dumps({"entries": []}))
        assert main(["history", "export-trajectory", "--pr", "7",
                     "--record", str(good), str(bad),
                     "--append", str(traj)]) == 2
        assert reason in capsys.readouterr().err
        assert json.loads(traj.read_text())["entries"] == []


class TestDerivedMetricGate:
    """The analysis layer's history hook: run rows carry the
    ``derived.*`` paper metrics the dashboard's Analysis panel reads."""

    def test_sweep_rows_carry_derived_metrics(self, tmp_path):
        spec = RunSpec(workload="configure-gcc", machine="ryzen_4650g",
                       scheduler="nest", governor="schedutil", seed=1,
                       scale=0.3)
        cache = ResultCache(root=tmp_path / "cache")
        with HistoryStore(tmp_path / "history.sqlite") as hist:
            SweepExecutor(jobs=1, cache=cache, history=hist).run([spec])
            metrics = hist.runs_of(hist.sweeps()[0]["id"])[0]["metrics"]
        derived = {k for k in metrics if k.startswith("derived.")}
        assert {"derived.wakeup_p50_us", "derived.warm_share",
                "derived.share_cfs"} <= derived
