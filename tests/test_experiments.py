"""Tests for the experiment harness and registry."""

import pytest

from repro.core.nest import NestPolicy
from repro.core.params import NestParams
from repro.experiments.registry import (EXPERIMENTS, all_experiments,
                                        get_experiment)
from repro.experiments.runner import (BASELINE, STANDARD_COMBOS, compare,
                                      make_governor, make_policy,
                                      run_experiment)
from repro.governors.performance import PerformanceGovernor
from repro.governors.schedutil import SchedutilGovernor
from repro.hw.machines import ALL_MACHINES, get_machine
from repro.sched.cfs import CfsPolicy
from repro.sched.smove import SmovePolicy
from repro.workloads.configure import ConfigureWorkload

SMALL = get_machine("ryzen_4650g")


class TestFactories:
    def test_make_policy(self):
        assert isinstance(make_policy("cfs"), CfsPolicy)
        assert isinstance(make_policy("nest"), NestPolicy)
        assert isinstance(make_policy("smove"), SmovePolicy)
        assert isinstance(make_policy("CFS"), CfsPolicy)

    def test_make_policy_custom_params(self):
        p = make_policy("nest", NestParams(r_max=9))
        assert p.params.r_max == 9

    def test_make_policy_unknown(self):
        with pytest.raises(ValueError):
            make_policy("rr")

    def test_make_governor(self):
        assert isinstance(make_governor("schedutil"), SchedutilGovernor)
        assert isinstance(make_governor("sched"), SchedutilGovernor)
        assert isinstance(make_governor("perf"), PerformanceGovernor)

    def test_make_governor_unknown(self):
        with pytest.raises(ValueError):
            make_governor("ondemand")


class TestRunExperiment:
    def test_result_fields(self):
        res = run_experiment(ConfigureWorkload("gcc"), SMALL, "nest",
                             "schedutil", seed=2)
        assert res.scheduler == "Nest"
        assert res.governor == "schedutil"
        assert res.machine == SMALL.name
        assert res.workload == "configure-gcc"
        assert res.seed == 2
        assert res.makespan_us > 0
        assert res.energy_joules > 0
        assert res.underload is not None
        assert res.freq_dist is not None
        assert res.n_tasks > 0
        assert "nest.primary_hits" in res.metrics

    def test_determinism(self):
        a = run_experiment(ConfigureWorkload("gcc"), SMALL, "cfs",
                           "schedutil", seed=3)
        b = run_experiment(ConfigureWorkload("gcc"), SMALL, "cfs",
                           "schedutil", seed=3)
        assert a.makespan_us == b.makespan_us
        assert a.energy_joules == pytest.approx(b.energy_joules)

    def test_trace_recording_optional(self):
        res = run_experiment(ConfigureWorkload("gcc"), SMALL, "cfs",
                             "schedutil", seed=1, record_trace=True)
        assert res.trace_segments
        assert res.extra["n_segments"] > 0

    def test_max_us_bounds_run(self):
        res = run_experiment(ConfigureWorkload("imagemagick"), SMALL,
                             "cfs", "schedutil", seed=1, max_us=10_000)
        assert res.makespan_us <= 10_000

    def test_brief_is_readable(self):
        res = run_experiment(ConfigureWorkload("gcc"), SMALL, "cfs",
                             "schedutil", seed=1)
        assert "configure-gcc" in res.brief()


class TestCompare:
    def test_compare_computes_speedups(self):
        cmp = compare("configure-gcc", "ryzen_4650g",
                      combos=(("cfs", "schedutil"), ("nest", "schedutil")),
                      seeds=(1, 2))
        s = cmp.speedup_of("nest", "schedutil")
        assert isinstance(s, float)
        assert cmp.speedup_of(*BASELINE) == pytest.approx(0.0)
        assert cmp.baseline.label == "cfs-schedutil"

    def test_compare_tracks_underload_and_energy(self):
        cmp = compare("configure-gcc", "ryzen_4650g",
                      combos=(("cfs", "schedutil"), ("nest", "schedutil")),
                      seeds=(1,))
        assert cmp.underload_of("cfs", "schedutil") >= 0
        assert isinstance(cmp.energy_savings_of("nest", "schedutil"), float)
        assert cmp.error_bar_of("nest", "schedutil") >= 0

    def test_compare_runs_the_named_workload_with_any_executor(self,
                                                               tmp_path):
        from repro.experiments.cache import ResultCache
        from repro.experiments.parallel import SweepExecutor
        from repro.workloads.messaging import HackbenchWorkload
        direct = run_experiment(
            HackbenchWorkload(groups=2, pairs_per_group=2, loops=10),
            SMALL, "cfs", "schedutil", seed=1)
        for executor in (None, SweepExecutor(
                jobs=1, cache=ResultCache(tmp_path / "cache"))):
            cmp = compare("hackbench-g2-p2-l10", "ryzen_4650g",
                          combos=(BASELINE,), seeds=(1,), executor=executor)
            assert cmp.baseline.makespans_us == [direct.makespan_us]
            assert (cmp.workload, cmp.machine) == ("hackbench-g2",
                                                   SMALL.name)

    def test_standard_combos(self):
        assert BASELINE in STANDARD_COMBOS
        assert len(STANDARD_COMBOS) == 4


class TestRegistry:
    def test_all_paper_artefacts_registered(self):
        ids = set(EXPERIMENTS)
        for required in ("table1", "table2", "table3", "table4",
                         "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
                         "fig8_9", "fig10", "fig11", "fig12", "fig13",
                         "ablation_configure", "ablation_dacapo"):
            assert required in ids

    def test_every_experiment_names_a_bench(self):
        for exp in all_experiments():
            assert exp.bench.startswith("benchmarks/")
            assert exp.expected_shape

    def test_machines_exist(self):
        for exp in all_experiments():
            for mk in exp.machines:
                assert mk in ALL_MACHINES

    def test_get_experiment(self):
        assert get_experiment("fig5").artefact == "Figure 5"
        with pytest.raises(KeyError):
            get_experiment("fig99")
