"""Nest policy behaviour under faults (§3 state machine + chaos repair).

Covers the satellite checklist: compaction, impatient promotion, and
attachment when the target core is offline or frequency-capped — plus the
nest-repair path (offline eviction, home-core reset, orphan re-placement
through the normal search so the accounting invariant holds).
"""

import pytest

from repro.core.nest import NestPolicy
from repro.core.params import NestParams
from repro.experiments.runner import run_experiment
from repro.faults import FaultConfig
from repro.governors.performance import PerformanceGovernor
from repro.hw.freqmodel import SPEED_SHIFT
from repro.hw.machines import Machine, get_machine
from repro.hw.topology import Topology
from repro.hw.turbo import XEON_5218
from repro.kernel.scheduler_core import Kernel
from repro.kernel.syscalls import Compute
from repro.sim.clock import TICK_US
from repro.sim.engine import Engine
from repro.workloads.base import ms_of_work
from repro.workloads.catalog import make_workload

MACHINE = Machine(name="t", cpu_model="t", microarchitecture="t",
                  topology=Topology(2, 4, 2), turbo=XEON_5218, pm=SPEED_SHIFT)


def make(params=None):
    eng = Engine(0)
    policy = NestPolicy(params or NestParams())
    kern = Kernel(eng, MACHINE, policy, PerformanceGovernor())
    return eng, kern, policy


def noop_task(kern, name="x", prev=None):
    def noop(api):
        yield Compute(1)

    t = kern._new_task(noop, name, None)
    t.prev_cpu = prev
    return t


def occupy(kern, cpu):
    def hog(api):
        yield Compute(ms_of_work(1000))

    t = kern._new_task(hog, f"hog{cpu}", None)
    kern.enqueue(t, cpu)
    return t


class TestOfflineEviction:
    def test_offline_core_leaves_both_nests(self):
        eng, kern, policy = make()
        policy.primary.update({1, 2})
        policy.reserve.add(3)
        kern.set_cpu_offline(2)
        kern.set_cpu_offline(3)
        assert 2 not in policy.primary
        assert 3 not in policy.reserve
        assert 1 in policy.primary
        assert policy.metrics.counter("offline_evictions").value == 2

    def test_home_cpu_reset_when_home_goes_offline(self):
        eng, kern, policy = make()
        t = noop_task(kern)
        policy.select_cpu_fork(t, parent_cpu=5)
        assert policy.home_cpu == 5
        kern.set_cpu_offline(5)
        assert policy.home_cpu is None
        # The next placement re-anchors the home core.
        t2 = noop_task(kern, "y")
        policy.select_cpu_fork(t2, parent_cpu=1)
        assert policy.home_cpu == 1

    def test_unnested_offline_core_counts_nothing(self):
        eng, kern, policy = make()
        kern.set_cpu_offline(6)
        assert "offline_evictions" not in policy.metrics.counters()

    def test_invariant_holds_after_eviction(self):
        """Eviction is repair, not placement: the placement counters stay
        balanced without compensation."""
        eng, kern, policy = make()
        for i in range(4):
            t = noop_task(kern, f"t{i}")
            occupy(kern, policy.select_cpu_fork(t, parent_cpu=0))
        kern.set_cpu_offline(next(iter(policy.primary | policy.reserve
                                       or {1})))
        policy.check_invariants()


class TestOfflineSearchPaths:
    def test_primary_search_skips_offline_before_eviction_hook(self):
        """cpu_is_idle() is false for an offline core, so even a stale
        nest entry (if eviction were skipped) cannot be chosen."""
        eng, kern, policy = make()
        policy.primary.update({1, 2})
        kern.rqs[1].last_busy_us = kern.engine.now
        kern.rqs[2].last_busy_us = kern.engine.now
        kern.set_cpu_offline(1)
        policy.primary.add(1)    # simulate a missed eviction
        t = noop_task(kern)
        assert policy.select_cpu_fork(t, parent_cpu=0) != 1

    def test_attachment_ignored_when_core_offline(self):
        eng, kern, policy = make()
        policy.primary.add(2)
        kern.rqs[2].last_busy_us = kern.engine.now
        t = noop_task(kern, prev=2)
        t.core_history = [2, 2]
        assert t.attached_core == 2
        kern.set_cpu_offline(2)
        # The hotplug scrubbed the attachment; the wakeup lands elsewhere.
        assert t.attached_core is None
        cpu = policy.select_cpu_wakeup(t, waker_cpu=0)
        assert cpu != 2
        policy.check_invariants()

    def test_attachment_still_hit_when_core_freq_capped(self):
        """A thermal cap slows a core but does not remove it: attachment
        (§3.3) deliberately keeps preferring the warm, capped core."""
        eng, kern, policy = make()
        policy.primary.add(2)
        kern.rqs[2].last_busy_us = kern.engine.now
        pc = kern.topology.physical_core_of(2)
        kern.freq.set_thermal_cap(pc, 1200)
        t = noop_task(kern, prev=2)
        t.core_history = [2, 2]
        cpu = policy.select_cpu_wakeup(t, waker_cpu=0)
        assert cpu == 2
        assert policy.metrics.counters()["attachment_hits"] == 1

    def test_orphan_migration_routed_through_nest_search(self):
        eng, kern, policy = make()
        policy.primary.update({1, 2})
        kern.rqs[1].last_busy_us = kern.engine.now
        kern.rqs[2].last_busy_us = kern.engine.now
        occupy(kern, 2)
        eng.run(until=100)
        before = policy.metrics.counters()["placements"]
        kern.set_cpu_offline(2)
        # The orphan was re-placed via _select: placements grew and the
        # accounting invariant still balances.
        assert policy.metrics.counters()["placements"] == before + 1
        policy.check_invariants()


class TestNestLossEdgeCases:
    """Hotplug that takes out the *last* online core of a nest — or every
    core of a socket at once — must repair deterministically: both nests
    evicted, home re-anchored, attachments scrubbed, orphans re-placed on
    surviving cores.  Regression tests for the correlated-failure era,
    where whole-socket loss is a planned event rather than a freak draw."""

    def test_last_nest_core_offline_empties_and_repairs(self):
        eng, kern, policy = make()
        policy.primary.update({1})
        policy.home_cpu = 1
        hog = occupy(kern, 1)
        eng.run(until=100)
        kern.set_cpu_offline(1)
        # The nest is empty and the home anchor gone — not pointing at
        # the corpse of cpu 1.
        assert not policy.primary and policy.home_cpu is None
        # The orphaned hog was re-placed through the nest search onto an
        # online cpu, with no stale attachment back to cpu 1.
        assert all(c is None or kern.cpu_online[c]
                   for c in hog.core_history)
        policy.check_invariants()
        eng.run()
        assert not hog.alive

    def test_whole_socket_offline_repairs_onto_survivor(self):
        eng, kern, policy = make()
        socket0 = [c for c in range(kern.topology.n_cpus)
                   if kern.topology.socket_of(c) == 0]
        policy.primary.update(socket0[:3])
        policy.reserve.update(socket0[3:5])
        policy.home_cpu = socket0[0]
        hogs = [occupy(kern, c) for c in socket0[:6]]
        eng.run(until=100)
        for c in socket0:
            kern.set_cpu_offline(c)
        # No nest member survives on the dead socket and every orphaned
        # task's attachment history references only online cpus.
        assert not (policy.primary | policy.reserve) & set(socket0)
        assert policy.home_cpu is None or kern.cpu_online[policy.home_cpu]
        for hog in hogs:
            assert all(c is None or kern.cpu_online[c]
                       for c in hog.core_history)
        policy.check_invariants()
        eng.run()
        assert all(not hog.alive for hog in hogs)

    def test_whole_socket_offline_burst_is_deterministic(self):
        """A socket-wide correlated burst through the injector yields a
        bit-identical run when repeated with the same seed."""
        fc = FaultConfig(core_failure_rate_per_s=50.0,
                         core_failure_burst=32, horizon_us=60_000,
                         core_failure_downtime_us=10_000)
        runs = [run_experiment(
            make_workload("phoronix-libavif-avifenc-1", scale=0.3),
            get_machine("5218_2s"), "nest", "schedutil", seed=11,
            faults=fc) for _ in range(2)]
        assert runs[0].makespan_us == runs[1].makespan_us
        assert runs[0].metrics == runs[1].metrics


class TestCompactionAndImpatience:
    def test_stale_primary_core_demoted_under_fault_pressure(self):
        eng, kern, policy = make()
        policy.primary.update({1})
        kern.rqs[1].last_busy_us = 0
        eng.at(10 * TICK_US, 9, lambda: None)
        eng.run()
        t = noop_task(kern)
        policy.select_cpu_fork(t, parent_cpu=0)
        assert policy.metrics.counters()["compactions"] >= 1
        policy.check_invariants()

    def test_impatient_task_expands_primary_nest(self):
        eng, kern, policy = make(NestParams(r_impatient=2))
        # Make every nest core busy so placements keep colliding.
        policy.primary.add(1)
        occupy(kern, 1)
        t = noop_task(kern, prev=1)
        t.impatience = 2
        cpu = policy.select_cpu_wakeup(t, waker_cpu=0)
        assert cpu in policy.primary         # direct promotion (§3.1)
        assert policy.metrics.counters()["impatient_placements"] == 1
        assert t.impatience == 0
        policy.check_invariants()

    def test_impatient_promotion_with_offline_prev_core(self):
        eng, kern, policy = make(NestParams(r_impatient=2))
        policy.primary.add(1)
        occupy(kern, 1)
        kern.set_cpu_offline(3)
        t = noop_task(kern, prev=3)
        t.impatience = 5
        cpu = policy.select_cpu_wakeup(t, waker_cpu=0)
        assert cpu != 3 and kern.cpu_online[cpu]
        assert cpu in policy.primary
        policy.check_invariants()


class TestEndToEndNestUnderFaults:
    def run_nest(self, fc, seed=5):
        return run_experiment(
            make_workload("phoronix-libavif-avifenc-1", scale=0.3),
            get_machine("5218_2s"), "nest", "schedutil", seed=seed,
            faults=fc)

    def test_invariant_checked_under_every_scenario(self):
        """run_experiment calls check_invariants() after the run; these
        must all come back clean (it raises otherwise)."""
        scenarios = [
            FaultConfig(hotplug_rate_per_s=400.0, hotplug_downtime_us=3000,
                        horizon_us=10_000),
            FaultConfig(thermal_rate_per_s=400.0, thermal_duration_us=4000,
                        horizon_us=10_000),
            FaultConfig(straggler_rate_per_s=600.0, horizon_us=10_000),
            FaultConfig(tick_jitter_us=500, horizon_us=10_000),
            FaultConfig(hotplug_rate_per_s=300.0, thermal_rate_per_s=300.0,
                        straggler_rate_per_s=300.0, tick_jitter_us=300,
                        hotplug_downtime_us=2500, horizon_us=10_000),
        ]
        for fc in scenarios:
            res = self.run_nest(fc)
            assert res.makespan_us > 0

    def test_hotplug_produces_nest_repair_metrics(self):
        fc = FaultConfig(hotplug_rate_per_s=800.0, hotplug_downtime_us=2000,
                         horizon_us=10_000)
        res = self.run_nest(fc)
        assert res.metrics["kernel.fault_cpu_offline"]["value"] > 0
        # Placement accounting survived the chaos (else run_experiment
        # would have raised) and the hits still sum to the placements.
        s = {k: res.metrics[f"nest.{k}"]["value"] for k in
             ("attachment_hits", "primary_hits", "reserve_hits",
              "cfs_fallbacks", "placements")}
        assert (s["attachment_hits"] + s["primary_hits"] + s["reserve_hits"]
                + s["cfs_fallbacks"]) == s["placements"]
