"""Tests for the command-line interface."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import cli
from repro.experiments.cli import build_parser, main
from repro.experiments.parallel import RunSpec
from repro.experiments.registry import EXPERIMENTS, reference_spec
from repro.workloads.catalog import make_workload, workload_names
from repro.workloads.configure import ConfigureWorkload
from repro.workloads.dacapo import DacapoWorkload
from repro.workloads.messaging import HackbenchWorkload
from repro.workloads.nas import NasWorkload
from repro.workloads.phoronix import PhoronixWorkload


class _Resolved(Exception):
    """Stops a command once it has resolved its spec."""


def _spec_of(monkeypatch, argv):
    """The spec ``main(argv)`` would simulate, without simulating it."""
    seen = []

    def capture(spec, collect_events=False):
        seen.append(spec)
        raise _Resolved

    monkeypatch.setattr(cli, "execute_spec", capture)
    with pytest.raises(_Resolved):
        main(argv)
    return seen[0]


class TestMakeWorkload:
    def test_configure(self):
        wl = make_workload("configure-gcc")
        assert isinstance(wl, ConfigureWorkload)
        assert wl.name == "configure-gcc"

    def test_dacapo(self):
        assert isinstance(make_workload("dacapo-h2"), DacapoWorkload)

    def test_nas_with_and_without_suffix(self):
        assert isinstance(make_workload("nas-mg"), NasWorkload)
        assert isinstance(make_workload("nas-mg.C"), NasWorkload)

    def test_phoronix(self):
        assert isinstance(make_workload("phoronix-rodinia-5"),
                          PhoronixWorkload)

    def test_simple_names(self):
        assert isinstance(make_workload("hackbench"), HackbenchWorkload)
        assert make_workload("nginx").name == "nginx"

    def test_scale_forwarded(self):
        assert make_workload("configure-gcc", scale=0.5).scale == 0.5

    def test_unknown(self):
        with pytest.raises(KeyError):
            make_workload("quake3")

    def test_every_listed_name_buildable(self):
        for name in workload_names():
            assert make_workload(name) is not None


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "5218_2s" in out and "configure-llvm_ninja" in out
        assert "fig5" in out

    def test_closed_stdout_pipe_exits_quietly(self):
        """``repro list | head -1``: a reader that has gone away ends the
        command without a BrokenPipeError traceback."""
        src = Path(__file__).resolve().parent.parent / "src"
        read_fd, write_fd = os.pipe()
        os.close(read_fd)          # every write to the pipe now fails
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "list"], stdout=write_fd,
                stderr=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONPATH=str(src)))
        finally:
            os.close(write_fd)
        assert proc.stderr == ""
        assert proc.returncode == 1

    def test_run(self, capsys):
        rc = main(["run", "--workload", "configure-gcc",
                   "--machine", "ryzen_4650g", "--scheduler", "nest",
                   "--scale", "0.5"])
        assert rc == 0
        assert "configure-gcc" in capsys.readouterr().out

    def test_run_verbose_prints_bins(self, capsys):
        main(["run", "--workload", "configure-gcc",
              "--machine", "ryzen_4650g", "--verbose", "--scale", "0.5"])
        assert "GHz" in capsys.readouterr().out

    def test_compare(self, capsys):
        rc = main(["compare", "--workload", "configure-gcc",
                   "--machine", "ryzen_4650g", "--seeds", "1",
                   "--scale", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "nest-schedutil" in out and "speedup" in out

    def test_describe(self, capsys):
        assert main(["describe", "fig12"]) == 0
        out = capsys.readouterr().out
        assert "Figure 12" in out
        assert "(scale 0.2, seeds 1)" in out
        assert "specs:     72 " in out

    def test_describe_unknown_is_error(self, capsys):
        assert main(["describe", "fig99"]) == 2

    @pytest.mark.parametrize("argv", [
        ["run", "--workload", "configure-gcc"],
        ["run", "--workload", "fig2"],
        ["compare", "--workload", "configure-gcc"],
        ["sweep", "fig2"],
        ["obs", "analyze", "fig2"],
        ["obs", "query", "fig2"],
    ])
    @pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
    def test_scale_must_be_positive(self, argv, scale, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + ["--scale", scale])
        assert exc.value.code == 2
        assert "must be a positive number" in capsys.readouterr().err

    def test_sweep_defaults_to_the_entry_scale_and_seeds(self, monkeypatch):
        from repro.experiments.parallel import SweepExecutor
        from repro.experiments.registry import get_experiment, specs_for
        seen = []
        monkeypatch.setattr(SweepExecutor, "run",
                            lambda self, specs: seen.extend(specs) or [])
        assert main(["sweep", "other_hackbench", "--no-cache"]) == 0
        assert seen == specs_for(get_experiment("other_hackbench"))
        seen.clear()
        assert main(["sweep", "other_monosocket", "--no-cache",
                     "--seeds", "2", "--scale", "0.3"]) == 0
        assert len(seen) == 16
        assert {(s.scale, s.seed) for s in seen} == {(0.3, 1), (0.3, 2)}

    def test_run_unknown_workload_is_error(self):
        assert main(["run", "--workload", "nope"]) == 2

    def test_run_pure_table_is_error(self, capsys):
        assert main(["run", "--workload", "table1"]) == 2
        assert "pure table entry" in capsys.readouterr().err

    def test_run_of_a_workload_builds_the_spec_it_always_did(
            self, monkeypatch):
        """A workload runs on 5218_2s under Nest-schedutil at seed 1 and
        scale 1.0, with no trace unless ``--trace``; each flag overrides
        its default."""
        for name in workload_names():
            assert _spec_of(monkeypatch, ["run", "--workload", name]) \
                == RunSpec(workload=name, machine="5218_2s",
                           scheduler="nest", governor="schedutil", seed=1,
                           scale=1.0)
        assert _spec_of(monkeypatch, [
            "run", "--workload", "configure-gcc", "--machine", "ryzen_4650g",
            "--scheduler", "cfs", "--governor", "performance", "--seed", "2",
            "--scale", "0.5", "--trace", "t.json"]) == RunSpec(
                workload="configure-gcc", machine="ryzen_4650g",
                scheduler="cfs", governor="performance", seed=2, scale=0.5,
                record_trace=True)

    def test_run_of_a_registry_id_builds_its_reference_run(
            self, monkeypatch):
        """``run``, ``obs analyze`` and ``obs query`` resolve an id to the
        same run; only ``run`` leaves the trace off without ``--trace``."""
        for exp in EXPERIMENTS.values():
            ref = reference_spec(exp)
            if ref is None:
                continue
            assert _spec_of(monkeypatch, ["run", "--workload", exp.id]) \
                == dataclasses.replace(ref, record_trace=False)
            for action in ("analyze", "query"):
                assert _spec_of(monkeypatch, ["obs", action, exp.id]) == ref

    def test_parser_rejects_bad_scheduler(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "x",
                                       "--scheduler", "rr"])


class TestObservabilityCli:
    def test_run_trace_writes_valid_perfetto_json(self, tmp_path, capsys):
        import json

        from repro.obs.export import validate_chrome_trace
        out = tmp_path / "trace.json"
        rc = main(["run", "--workload", "configure-gcc",
                   "--machine", "ryzen_4650g", "--scheduler", "nest",
                   "--scale", "0.3", "--trace", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        assert "perfetto" in capsys.readouterr().out

    def test_run_events_writes_jsonl(self, tmp_path):
        out = tmp_path / "events.jsonl"
        rc = main(["run", "--workload", "configure-gcc",
                   "--machine", "ryzen_4650g", "--scheduler", "nest",
                   "--scale", "0.3", "--events", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) > 1
        # The header names the machine; the events follow it.
        assert json.loads(lines[0]) == {
            "header": {"machine": "ryzen_4650g", "n_cpus": 12}}
        first = json.loads(lines[1])
        assert set(first) == {"t", "kind", "cpu", "task", "value"}

    @pytest.mark.parametrize("machine,n_cpus", [("5218_2s", 64),
                                                ("ryzen_4650g", 12)])
    def test_analyze_reads_the_cpu_count_from_the_dump(
            self, tmp_path, capsys, machine, n_cpus):
        """The dump's header gives the machine's cpu count, also when
        its highest cpus stay idle; ``obs query`` counts no header.  A
        dump without a header counts up to its highest cpu."""
        out = tmp_path / "events.jsonl"
        assert main(["run", "--workload", "configure-gcc",
                     "--machine", machine, "--scale", "0.3",
                     "--events", str(out)]) == 0
        lines = out.read_text().splitlines()
        n_events = len(lines) - 1
        top = max(json.loads(line).get("cpu", -1) for line in lines[1:])
        assert top + 1 < n_cpus     # inference would undercount
        capsys.readouterr()
        assert main(["obs", "analyze", "--events", str(out)]) == 0
        assert f" of {n_cpus} cores used" in capsys.readouterr().out
        assert main(["obs", "query", "--events", str(out),
                     "--limit", "1"]) == 0
        assert capsys.readouterr().out.endswith(
            f" of {n_events} event(s) matched\n")
        out.write_text("".join(line + "\n" for line in lines[1:]))
        assert main(["obs", "analyze", "--events", str(out)]) == 0
        assert f" of {top + 1} cores used" in capsys.readouterr().out

    def test_analyze_rejects_a_header_that_misses_a_cpu(self, tmp_path,
                                                         capsys):
        dump = tmp_path / "events.jsonl"
        dump.write_text('{"header":{"machine":"x","n_cpus":4}}\n'
                        '{"t":1,"kind":"sched.dispatch","cpu":7}\n')
        assert main(["obs", "analyze", "--events", str(dump)]) == 2
        assert "header n_cpus 4 does not cover cpu 7" in \
            capsys.readouterr().err

    def test_run_registry_id_writes_a_valid_trace(self, tmp_path, capsys):
        """``run --workload fig2 --trace`` traces fig2's reference run:
        configure-llvm_ninja on 5218_2s under Nest-schedutil."""
        import json

        from repro.obs.export import validate_chrome_trace
        out = tmp_path / "t.json"
        rc = main(["run", "--workload", "fig2", "--scale", "0.05",
                   "--trace", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.startswith(
            "configure-llvm_ninja on 64-core Intel 5218 [Nest-schedutil]")
        assert validate_chrome_trace(json.loads(out.read_text())) == []

    def test_trace_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "fig2"])
        assert exc.value.code == 2
        assert "invalid choice: 'trace'" in capsys.readouterr().err

    def test_history_show_without_sweep_is_error(self, tmp_path):
        assert main(["history", "show", "--cache-dir",
                     str(tmp_path / "empty")]) == 1

    def test_history_show_after_sweep(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        rc = main(["compare", "--workload", "configure-gcc",
                   "--machine", "ryzen_4650g", "--seeds", "1",
                   "--scale", "0.3", "--jobs", "1",
                   "--cache-dir", cache_dir, "--progress"])
        assert rc == 0
        capsys.readouterr()
        assert main(["history", "show", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "4 runs, 4 simulated, 0 cached" in out
        assert "cache: 0 hit(s), 4 miss(es)" in out

    def test_history_show_json(self, tmp_path, capsys):
        import json as _json
        cache_dir = str(tmp_path / "cache")
        rc = main(["compare", "--workload", "configure-gcc",
                   "--machine", "ryzen_4650g", "--seeds", "1",
                   "--scale", "0.3", "--jobs", "1",
                   "--cache-dir", cache_dir, "--progress"])
        assert rc == 0
        capsys.readouterr()
        assert main(["history", "show", "--cache-dir", cache_dir,
                     "--json"]) == 0
        report = _json.loads(capsys.readouterr().out)
        assert report["stats"]["n_specs"] == 4
        assert len(report["runs"]) == 4
        # sort_keys canonicalization: a second read emits the same doc.
        assert main(["history", "show", "--cache-dir", cache_dir,
                     "--json"]) == 0
        assert _json.loads(capsys.readouterr().out) == report

    def test_history_show_lists_pending_runs(self, tmp_path, capsys,
                                             monkeypatch):
        """An interrupted sweep's history rows hold no wall time or event
        count for the runs it never reached; ``history show`` lists them."""
        from repro.experiments import parallel
        real = parallel.execute_spec
        calls = []

        def interrupt_second_run(spec):
            if calls:
                raise KeyboardInterrupt
            calls.append(spec.label)
            return real(spec)

        monkeypatch.setattr(parallel, "execute_spec", interrupt_second_run)
        cache_dir = str(tmp_path / "cache")
        with pytest.raises(KeyboardInterrupt):
            main(["compare", "--workload", "configure-gcc",
                  "--machine", "ryzen_4650g", "--seeds", "1",
                  "--scale", "0.3", "--jobs", "1", "--cache-dir", cache_dir])
        capsys.readouterr()
        assert main(["history", "show", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "sweep was interrupted" in out
        rows = [ln.split() for ln in out.splitlines() if "configure-gcc" in ln]
        assert [r[0] for r in rows].count("pending") == 3
        assert len(rows) == 4

    def test_progress_without_telemetry(self, tmp_path, capsys):
        """--no-telemetry keeps --progress but writes no history row,
        and no sweep writes a telemetry directory."""
        cache_dir = tmp_path / "cache"
        rc = main(["compare", "--workload", "configure-gcc",
                   "--machine", "ryzen_4650g", "--seeds", "1",
                   "--scale", "0.3", "--jobs", "1",
                   "--cache-dir", str(cache_dir),
                   "--no-telemetry", "--progress", "plain"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "[4/4]" in err and "done: 4/4 runs" in err
        assert not (cache_dir / "telemetry").exists()
        assert not (cache_dir / "history.sqlite").exists()

    def test_sweep_summary_shows_cache_counters(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = ["compare", "--workload", "configure-gcc",
                "--machine", "ryzen_4650g", "--seeds", "1",
                "--scale", "0.3", "--jobs", "1", "--cache-dir", cache_dir]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "(4 simulated, 0 cached)" in first
        assert "cache: 0 hit(s), 4 miss(es)" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "(0 simulated, 4 cached)" in second
        assert "cache: 4 hit(s), 0 miss(es)" in second

    def test_run_with_faults_profile(self, capsys):
        rc = main(["run", "--workload", "configure-gcc",
                   "--machine", "ryzen_4650g", "--scale", "0.3",
                   "--faults", "hotplug", "--seed", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "faults[hotplug]:" in out
        assert "planned" in out

    def test_run_says_when_no_planned_fault_landed(self, capsys):
        """The stock profiles plan over a 2 s horizon; an 11 ms run ends
        before the first fault falls due, and the run must say so."""
        rc = main(["run", "--workload", "phoronix-libavif-avifenc-1",
                   "--machine", "5218_2s", "--scale", "0.3",
                   "--faults", "hotplug"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "8 planned" in out
        assert "none of the 8 planned faults landed" in out
        assert "horizon_us=2,000,000" in out
        assert "makespan is 10,830 us" in out

    def test_run_with_a_landed_fault_does_not_say_none_landed(self, capsys):
        rc = main(["run", "--workload", "configure-gcc",
                   "--machine", "ryzen_4650g", "--scale", "1.0",
                   "--faults", "chaos", "--seed", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fault_cpu_offline=1" in out
        assert "landed" not in out

    def test_run_with_none_faults_profile_is_clean_run(self, capsys):
        rc = main(["run", "--workload", "configure-gcc",
                   "--machine", "ryzen_4650g", "--scale", "0.3",
                   "--faults", "none"])
        assert rc == 0
        assert "faults[" not in capsys.readouterr().out

    def test_run_ftrt_with_corefail_profile(self, capsys):
        rc = main(["run", "--workload", "deadline-periodic",
                   "--machine", "ryzen_4650g", "--scheduler", "ftrt",
                   "--faults", "corefail", "--seed", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Ftrt-schedutil" in out
        assert "faults[corefail]:" in out and "planned" in out

    def test_run_corefail_burst_profile_parses(self, capsys):
        rc = main(["run", "--workload", "deadline-periodic",
                   "--machine", "5218_2s", "--scheduler", "ftrt",
                   "--faults", "corefail-burst", "--seed", "3"])
        assert rc == 0
        assert "faults[corefail-burst]:" in capsys.readouterr().out

    def test_scheduler_choices_come_from_registry(self):
        from repro.sched.registry import available_policies
        p = build_parser()
        args = p.parse_args(["run", "--workload", "deadline-periodic",
                             "--scheduler", "ftrt"])
        assert args.scheduler == "ftrt"
        assert "ftrt" in available_policies()

    def _populate_cache(self, cache_dir, capsys):
        assert main(["compare", "--workload", "configure-gcc",
                     "--machine", "ryzen_4650g", "--seeds", "1",
                     "--scale", "0.3", "--jobs", "1",
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()

    @staticmethod
    def _cache_entries(tmp_path):
        # Entries live one shard-directory deep: <root>/<key[:2]>/<key>.json
        return sorted(p for p in (tmp_path / "cache").glob("*/*.json")
                      if p.parent.name != ".quarantine")

    def test_cache_verify_quarantines_corrupt_entry(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        self._populate_cache(cache_dir, capsys)
        victim = self._cache_entries(tmp_path)[0]
        victim.write_text("{ not json", encoding="utf-8")

        assert main(["cache", "verify", "--cache-dir", cache_dir]) == 1
        out = capsys.readouterr().out
        assert "1 corrupt" in out
        assert victim.name in out
        assert "quarantined entries are under" in out
        assert not victim.exists()          # moved out of the way
        quarantined = list((tmp_path / "cache" / ".quarantine").iterdir())
        assert len(quarantined) == 1

        # A second verify pass over the repaired cache is clean.
        assert main(["cache", "verify", "--cache-dir", cache_dir]) == 0
        assert "0 corrupt" in capsys.readouterr().out
        # And stats reports the quarantined entry.
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "1 quarantined" in capsys.readouterr().out

    def test_cache_verify_dry_run_leaves_entry_in_place(self, tmp_path,
                                                        capsys):
        cache_dir = str(tmp_path / "cache")
        self._populate_cache(cache_dir, capsys)
        victim = self._cache_entries(tmp_path)[0]
        victim.write_text("{ not json", encoding="utf-8")
        assert main(["cache", "verify", "--cache-dir", cache_dir,
                     "--dry-run"]) == 1
        out = capsys.readouterr().out
        assert "left in place" in out
        assert victim.exists()

    def test_history_show_shape(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        self._populate_cache(cache_dir, capsys)
        assert main(["history", "show", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("sweep #1 ")
        assert "4 runs" in lines[0] and "worker(s)" in lines[0]
        assert any("engine events" in ln and "events/s" in ln
                   for ln in lines)
        # Every run is listed, in spec order; each row names its run.
        rows = [ln for ln in lines if "configure-gcc" in ln]
        assert [ln.split()[-1].split("/")[2] for ln in rows] == [
            "cfs-schedutil", "cfs-performance", "nest-schedutil",
            "nest-performance"]
        assert all("s  " in ln and "ev" in ln for ln in rows)


class TestCliVerify:
    def test_fuzz_smoke(self, capsys):
        rc = main(["verify", "fuzz", "--runs", "5", "--seed", "1",
                   "--diff-every", "0", "--par-every", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fuzz: 5 scenario(s)" in out and "OK" in out

    def test_fuzz_writes_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = main(["verify", "fuzz", "--runs", "3", "--seed", "2",
                   "--diff-every", "0", "--par-every", "0",
                   "--report", str(report)])
        assert rc == 0
        capsys.readouterr()
        import json
        doc = json.loads(report.read_text())
        assert doc["runs"] == 3 and doc["ok"] is True

    def test_replay_clean_repro(self, capsys):
        from pathlib import Path
        repro = Path(__file__).resolve().parent / "repros" \
            / "reserve-bound-canary.json"
        assert main(["verify", "replay", str(repro)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_replay_failing_repro(self, tmp_path, capsys):
        import json
        # A scenario that cannot run -> run.completed fires on replay.
        doc = {"format": 1,
               "scenario": {"workload": "no-such-workload",
                            "machine": "ryzen_4650g", "scheduler": "cfs",
                            "governor": "schedutil", "seed": 1},
               "expect": ["run.completed"], "violations": []}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "replay", str(path)]) == 1
        out = capsys.readouterr().out
        assert "violation" in out and "run.completed" in out

    def test_replay_missing_file_is_clean_error(self, tmp_path, capsys):
        rc = main(["verify", "replay", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_replay_malformed_document_is_clean_error(self, tmp_path,
                                                      capsys):
        import json
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"format": 99, "scenario": {},
                                    "expect": []}))
        rc = main(["verify", "replay", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "format" in err
