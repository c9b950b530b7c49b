"""FT-RT fault-tolerant deadline scheduling: the policy registry, the
primary/backup placement policy, the deadline workload family, and the
deadline analyzer + derived metrics.

End-to-end kill/recovery behaviour under correlated failures lives in
test_faults.py (TestCorrelatedFailureRuns); the oracle's rt.* invariants
in test_verify_oracle.py; the mutation canaries in test_verify_canary.py.
"""

import pytest

from repro.experiments.runner import run_experiment
from repro.faults import FaultConfig
from repro.governors.performance import PerformanceGovernor
from repro.hw.freqmodel import SPEED_SHIFT
from repro.hw.machines import Machine, get_machine
from repro.hw.topology import Topology
from repro.hw.turbo import XEON_5218
from repro.kernel.scheduler_core import Kernel
from repro.obs import events as oev
from repro.obs.analysis.analyzers import DeadlineAnalyzer
from repro.obs.analysis.base import AnalysisContext
from repro.obs.analysis.report import analyze_run, derived_metrics, report_text
from repro.obs.events import SchedEvent
from repro.sched.ftrt import FtrtPolicy
from repro.sched.registry import (available_policies, make_registered_policy,
                                  register_policy)
from repro.sim.engine import Engine
from repro.workloads.catalog import make_workload
from repro.workloads.deadline import DeadlineWorkload

MACHINE = Machine(name="t", cpu_model="t", microarchitecture="t",
                  topology=Topology(2, 4, 2), turbo=XEON_5218, pm=SPEED_SHIFT)

COREFAIL_DENSE = FaultConfig(core_failure_rate_per_s=60.0,
                             core_failure_burst=3,
                             core_failure_downtime_us=10_000,
                             horizon_us=100_000)


# ---------------------------------------------------------------------------
# Policy registry


class TestPolicyRegistry:
    def test_builtins_registered(self):
        assert available_policies() == ["cfs", "ftrt", "nest", "scxnest",
                                        "smove"]

    def test_instantiates_each(self):
        for name in available_policies():
            policy = make_registered_policy(name)
            assert hasattr(policy, "select_cpu_fork"), name

    def test_case_insensitive(self):
        assert type(make_registered_policy("FTRT")) is FtrtPolicy

    def test_nest_params_forwarded(self):
        from repro.core.params import NestParams
        params = NestParams(r_max=3)
        policy = make_registered_policy("nest", params)
        assert policy.params.r_max == 3

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_registered_policy("o1-preempt")
        with pytest.raises(ValueError, match="ftrt"):
            make_registered_policy("o1-preempt")

    def test_duplicate_registration_needs_replace(self):
        factory = lambda params: FtrtPolicy()
        with pytest.raises(ValueError, match="already registered"):
            register_policy("ftrt", factory)
        # replace=True swaps the entry; restore the built-in after.
        from repro.sched.registry import _REGISTRY
        original = _REGISTRY["ftrt"]
        try:
            register_policy("ftrt", factory, replace=True)
            assert _REGISTRY["ftrt"].factory is factory
        finally:
            _REGISTRY["ftrt"] = original

    def test_runner_resolves_through_registry(self):
        from repro.experiments.runner import make_policy
        assert type(make_policy("ftrt")) is FtrtPolicy
        with pytest.raises(ValueError):
            make_policy("bogus")


# ---------------------------------------------------------------------------
# FT-RT placement policy


def ftrt_kernel():
    eng = Engine(0)
    policy = FtrtPolicy()
    kern = Kernel(eng, MACHINE, policy, PerformanceGovernor())
    return eng, kern, policy


def rt_pair(kern, primary_cpu=None):
    """A primary/backup task pair, the primary committed to a core."""
    def body(api):
        yield None

    primary = kern._new_task(body, "primary", None)
    if primary_cpu is not None:
        primary.record_core(primary_cpu)
    backup = kern._new_task(body, "backup", None)
    backup.backup_of = primary
    primary.backup = backup
    return primary, backup


class TestFtrtPlacement:
    def test_backup_lands_on_disjoint_physical_core(self):
        eng, kern, policy = ftrt_kernel()
        primary, backup = rt_pair(kern, primary_cpu=0)
        cpu = policy.select_cpu_fork(backup, parent_cpu=0)
        assert kern.pc_of[cpu] != kern.pc_of[0]
        assert policy.metrics.counters()["disjoint_ok"] == 1
        policy.check_invariants()

    def test_backup_prefers_the_other_socket(self):
        eng, kern, policy = ftrt_kernel()
        primary, backup = rt_pair(kern, primary_cpu=0)
        cpu = policy.select_cpu_fork(backup, parent_cpu=0)
        assert kern.topology.die_of(cpu) != kern.topology.die_of(0)

    def test_fallback_without_committed_primary_core(self):
        eng, kern, policy = ftrt_kernel()
        primary, backup = rt_pair(kern, primary_cpu=None)
        cpu = policy.select_cpu_fork(backup, parent_cpu=2)
        assert kern.cpu_online[cpu]
        assert policy.metrics.counters()["disjoint_fallbacks"] == 1
        policy.check_invariants()

    def test_fallback_when_only_primary_core_survives(self):
        eng, kern, policy = ftrt_kernel()
        # Leave online only cpu 0 and its SMT sibling: no disjoint core.
        sibling = kern.topology.sibling_of(0)
        for c in range(kern.topology.n_cpus):
            if c not in (0, sibling):
                kern.set_cpu_offline(c)
        primary, backup = rt_pair(kern, primary_cpu=0)
        cpu = policy.select_cpu_fork(backup, parent_cpu=0)
        assert cpu in (0, sibling)    # CFS had nothing else to offer
        assert policy.metrics.counters()["disjoint_fallbacks"] == 1

    def test_smt_sibling_of_primary_excluded(self):
        eng, kern, policy = ftrt_kernel()
        # Offline the whole second socket so the scan is confined to the
        # primary's socket — the sibling thread must still be refused.
        for c in range(kern.topology.n_cpus):
            if kern.topology.die_of(c) != kern.topology.die_of(0):
                kern.set_cpu_offline(c)
        primary, backup = rt_pair(kern, primary_cpu=0)
        cpu = policy.select_cpu_fork(backup, parent_cpu=0)
        assert cpu != kern.topology.sibling_of(0)
        assert kern.pc_of[cpu] != kern.pc_of[0]

    def test_ordinary_forks_fall_through_to_cfs(self):
        eng, kern, policy = ftrt_kernel()

        def body(api):
            yield None

        task = kern._new_task(body, "plain", None)
        policy.select_cpu_fork(task, parent_cpu=0)
        c = policy.metrics.counters()
        assert c["placements"] == 1 and c["backup_placements"] == 0

    def test_counter_imbalance_detected(self):
        eng, kern, policy = ftrt_kernel()
        policy._c_backup.value += 1
        with pytest.raises(AssertionError, match="ftrt counter"):
            policy.check_invariants()


# ---------------------------------------------------------------------------
# Deadline workloads


class TestDeadlineWorkload:
    def test_catalog_round_trip(self):
        for name in ("deadline-periodic", "deadline-sporadic"):
            wl = make_workload(name, scale=0.5)
            assert wl.name == name
            assert vars(make_workload(wl.name, scale=wl.scale)) == vars(wl)

    def test_scale_scales_job_count(self):
        assert make_workload("deadline-periodic", scale=0.5).jobs == 16
        assert make_workload("deadline-periodic").jobs == 32

    def test_deadline_carries_slack_over_wcet(self):
        wl = DeadlineWorkload(work_us=2_000, slack=4.0)
        assert wl.deadline_us == 8_000

    def test_clean_run_meets_every_deadline(self):
        res = run_experiment(make_workload("deadline-periodic"),
                             get_machine("ryzen_4650g"), "ftrt",
                             "schedutil", seed=5)
        m = res.metrics
        assert m["kernel.rt_deadline_met"]["value"] == 32
        assert "kernel.rt_deadline_miss" not in m \
            or m["kernel.rt_deadline_miss"]["value"] == 0
        # Every backup admitted, none promoted, all retired silently.
        assert m["ftrt.backup_placements"]["value"] == 32
        assert "kernel.rt_backup_activations" not in m \
            or m["kernel.rt_backup_activations"]["value"] == 0

    def test_sporadic_variant_runs_and_differs(self):
        a = run_experiment(make_workload("deadline-sporadic"),
                           get_machine("ryzen_4650g"), "ftrt",
                           "schedutil", seed=5)
        b = run_experiment(make_workload("deadline-periodic"),
                           get_machine("ryzen_4650g"), "ftrt",
                           "schedutil", seed=5)
        assert a.metrics["kernel.rt_deadline_met"]["value"] == 32
        assert a.makespan_us != b.makespan_us

    def test_deadline_workloads_run_on_other_schedulers(self):
        """The RT protocol is policy-agnostic: Nest and CFS run the same
        pairs (without the disjointness guarantee)."""
        for sched in ("nest", "cfs"):
            res = run_experiment(make_workload("deadline-periodic"),
                                 get_machine("ryzen_4650g"), sched,
                                 "schedutil", seed=5)
            assert res.metrics["kernel.rt_deadline_met"]["value"] == 32


# ---------------------------------------------------------------------------
# Deadline analyzer + derived metrics


class TestDeadlineAnalyzer:
    def feed_all(self, analyzer, events):
        for ev in events:
            analyzer.feed(ev)
        return analyzer.finish(AnalysisContext())

    def test_synthetic_accounting(self):
        a = DeadlineAnalyzer()
        report = self.feed_all(a, [
            SchedEvent(t=100, kind=oev.RT_BACKUP_PLACE, cpu=4, task=2,
                       value=0),
            SchedEvent(t=150, kind=oev.RT_BACKUP_PLACE, cpu=5, task=4,
                       value=-1),
            SchedEvent(t=200, kind=oev.RT_KILL, cpu=0, task=1),
            SchedEvent(t=200, kind=oev.RT_BACKUP_ACTIVATE, cpu=0, task=2,
                       value=1),
            SchedEvent(t=500, kind=oev.RT_DEADLINE_MET, task=1, value=900),
            SchedEvent(t=1000, kind=oev.RT_DEADLINE_MISS, task=3,
                       value=800),
        ])
        assert report["jobs"] == 2
        assert report["met"] == 1 and report["missed"] == 1
        assert report["miss_fraction"] == 0.5
        assert report["kills"] == 1 and report["activations"] == 1
        assert report["backup_placements"] == {"disjoint": 1, "fallback": 1}
        # The promoted job recovered 300µs after its activation...
        assert report["recovery"]["n"] == 1
        assert report["recovery"]["max_us"] == 300
        # ...and the missed job was 200µs past its absolute deadline.
        assert report["tardiness"]["max_us"] == 200

    def test_empty_log_reports_zero_jobs(self):
        report = self.feed_all(DeadlineAnalyzer(), [])
        assert report["jobs"] == 0
        assert report["recovery"] == {"n": 0}

    def test_real_faulted_run_report(self):
        res = run_experiment(make_workload("deadline-periodic"),
                             get_machine("ryzen_4650g"), "ftrt",
                             "schedutil", seed=2, faults=COREFAIL_DENSE,
                             collect_events=True)
        report = analyze_run(res, res.events,
                             n_cpus=get_machine("ryzen_4650g").n_cpus)
        dl = report["analyzers"]["deadlines"]
        assert dl["jobs"] == 32
        assert dl["kills"] >= dl["activations"] > 0
        assert "deadlines:" in report_text(report)


class TestDerivedDeadlineMetrics:
    def test_faulted_ftrt_run_exports_deadline_scalars(self):
        res = run_experiment(make_workload("deadline-periodic"),
                             get_machine("ryzen_4650g"), "ftrt",
                             "schedutil", seed=2, faults=COREFAIL_DENSE)
        d = derived_metrics(res.metrics)
        assert d["derived.deadline_jobs"] == 32
        assert 0.0 <= d["derived.deadline_miss_fraction"] <= 1.0
        assert d["derived.deadline_misses"] == round(
            d["derived.deadline_miss_fraction"] * 32)
        assert d["derived.deadline_activations"] > 0
        assert d["derived.deadline_kills"] >= d["derived.deadline_activations"]
        assert d["derived.deadline_recovery_p50_us"] > 0

    def test_non_rt_run_exports_no_deadline_keys(self):
        res = run_experiment(make_workload("hackbench"),
                             get_machine("ryzen_4650g"), "nest",
                             "schedutil", seed=2)
        assert not any(k.startswith("derived.deadline")
                       for k in derived_metrics(res.metrics))
