"""Parallel sweep execution: serial and pooled runs must be identical."""

from __future__ import annotations

import pickle

import pytest

from repro.experiments.parallel import (RunSpec, SweepExecutor, SweepFailure,
                                        default_jobs, execute_spec)
from repro.experiments.runner import compare
from repro.hw.machines import get_machine
from repro.workloads.catalog import make_workload

#: A small, fast sweep: one workload, two combos, two seeds.
SPECS = [
    RunSpec(workload="phoronix-libavif-avifenc-1", machine="5218_2s",
            scheduler=sched, governor="schedutil", seed=seed, scale=0.3)
    for sched in ("cfs", "nest")
    for seed in (1, 2)
]

#: RunResult fields that must survive any execution strategy bit-for-bit
#: (wall-clock telemetry legitimately differs between runs).
DETERMINISTIC_FIELDS = (
    "scheduler", "governor", "machine", "workload", "seed", "makespan_us",
    "energy_joules", "n_tasks", "n_migrations", "total_wakeups",
    "wakeup_latency_us", "extra", "metrics",
    "events_processed",
)


def assert_results_identical(a, b):
    for name in DETERMINISTIC_FIELDS:
        assert getattr(a, name) == getattr(b, name), name
    assert a.underload.interval_us == b.underload.interval_us
    assert a.underload.series == b.underload.series
    assert a.underload.end_us == b.underload.end_us
    assert a.freq_dist.bin_time_us == b.freq_dist.bin_time_us
    assert a.freq_dist.total_us == b.freq_dist.total_us


class TestRunSpec:
    def test_picklable(self):
        for spec in SPECS:
            clone = pickle.loads(pickle.dumps(spec))
            assert clone == spec

    def test_label(self):
        assert SPECS[0].label == \
            "phoronix-libavif-avifenc-1@0.3/5218_2s/cfs-schedutil/s1"

    def test_execute_spec_matches_direct_run(self):
        from repro.experiments.runner import run_experiment
        spec = SPECS[0]
        via_spec = execute_spec(spec)
        direct = run_experiment(
            make_workload(spec.workload, scale=spec.scale),
            get_machine(spec.machine), spec.scheduler, spec.governor,
            seed=spec.seed)
        assert_results_identical(via_spec, direct)


class TestDefaultJobs:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert default_jobs() == 7

    def test_env_clamped_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() == 1

    def test_garbage_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        assert default_jobs() >= 1


class TestSweepExecutor:
    def test_parallel_identical_to_serial(self):
        """The acceptance criterion: N workers, byte-identical results."""
        serial = [execute_spec(s) for s in SPECS]
        parallel = SweepExecutor(jobs=2).run(SPECS)
        assert len(parallel) == len(serial)
        for a, b in zip(serial, parallel):
            assert_results_identical(a, b)

    def test_results_preserve_spec_order(self):
        results = SweepExecutor(jobs=2).run(SPECS)
        got = [(r.seed, r.workload) for r in results]
        want = [(s.seed, s.workload) for s in SPECS]
        assert got == want

    def test_single_worker_path(self):
        results = SweepExecutor(jobs=1).run(SPECS[:1])
        assert_results_identical(results[0], execute_spec(SPECS[0]))

    def test_stats_telemetry(self):
        ex = SweepExecutor(jobs=1)
        results = ex.run(SPECS[:2])
        st = ex.last_stats
        assert st.n_specs == 2
        assert st.simulated == 2
        assert st.cache_hits == 0
        assert st.events == sum(r.events_processed for r in results)
        assert st.wall_s > 0
        assert "2 runs" in st.summary()


class TestCompareWithExecutor:
    def test_compare_identical_serial_vs_executor(self):
        combos = (("cfs", "schedutil"), ("nest", "schedutil"))
        plain = compare("phoronix-libavif-avifenc-1", "5218_2s",
                        combos=combos, seeds=(1, 2), scale=0.3)
        pooled = compare("phoronix-libavif-avifenc-1", "5218_2s",
                         combos=combos, seeds=(1, 2), scale=0.3,
                         executor=SweepExecutor(jobs=2))
        assert plain.workload == pooled.workload
        assert plain.machine == pooled.machine
        for combo in combos:
            a, b = plain.combos[combo], pooled.combos[combo]
            assert a.makespans_us == b.makespans_us
            assert a.energies_j == b.energies_j
            assert a.underload_per_s == b.underload_per_s
            assert a.top_freq_fraction == b.top_freq_fraction
        assert plain.speedup_of("nest", "schedutil") == \
            pytest.approx(pooled.speedup_of("nest", "schedutil"))

    def test_skipped_specs_are_named_not_aggregated(self):
        """A speedup needs every seed of every combo, so an executor that
        skips a failed spec makes compare() fail, naming each one."""
        ex = SweepExecutor(jobs=1, skip_failures=True)
        with pytest.raises(SweepFailure) as info:
            compare("no-such-workload", "ryzen_4650g",
                    combos=(("cfs", "schedutil"),), seeds=(1, 2),
                    executor=ex)
        assert ex.last_stats.skipped == 2
        for seed in (1, 2):
            assert (f"no-such-workload@1.0/ryzen_4650g/cfs-schedutil/"
                    f"s{seed}") in str(info.value)
