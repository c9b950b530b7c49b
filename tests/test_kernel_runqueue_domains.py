"""Tests for the runqueue and the scheduling-domain hierarchy."""

import pytest
from hypothesis import given, strategies as st

from repro.governors.performance import PerformanceGovernor
from repro.hw.freqmodel import SPEED_SHIFT
from repro.hw.machines import Machine, get_machine
from repro.hw.topology import Topology
from repro.hw.turbo import XEON_5218
from repro.kernel.domains import DomainHierarchy, domain_hierarchy
from repro.kernel.runqueue import RunQueue, SLEEPER_BONUS_US
from repro.kernel.scheduler_core import Kernel
from repro.kernel.task import Task
from repro.sched.cfs import CfsPolicy
from repro.sim.engine import Engine


TWO_SOCKETS = Machine(name="t", cpu_model="t", microarchitecture="t",
                      topology=Topology(2, 4, 2), turbo=XEON_5218,
                      pm=SPEED_SHIFT)


def mk_task(tid, vruntime=0.0):
    t = Task(tid, f"t{tid}", iter(()), None, 0)
    t.vruntime = vruntime
    return t


class TestRunQueue:
    def test_pop_smallest_vruntime(self):
        rq = RunQueue(0)
        rq.push(mk_task(1, 300))
        rq.push(mk_task(2, 100))
        rq.push(mk_task(3, 200))
        assert [rq.pop().tid for _ in range(3)] == [2, 3, 1]

    def test_fifo_on_equal_vruntime(self):
        rq = RunQueue(0)
        for tid in (1, 2, 3):
            rq.push(mk_task(tid, 50))
        assert [rq.pop().tid for _ in range(3)] == [1, 2, 3]

    def test_double_push_rejected(self):
        rq = RunQueue(0)
        t = mk_task(1)
        rq.push(t)
        with pytest.raises(RuntimeError):
            rq.push(t)

    def test_min_vruntime_advances(self):
        rq = RunQueue(0)
        rq.push(mk_task(1, 500))
        rq.pop()
        assert rq.min_vruntime == 500

    def test_sleeper_bonus_clamp(self):
        """A long sleeper re-enters near min_vruntime minus the bonus."""
        rq = RunQueue(0)
        rq.min_vruntime = 100_000
        sleeper = mk_task(1, 0.0)
        rq.push(sleeper)
        assert sleeper.vruntime == 100_000 - SLEEPER_BONUS_US

    def test_no_clamp_for_fresh_vruntime(self):
        rq = RunQueue(0)
        rq.min_vruntime = 100
        t = mk_task(1, 5_000)
        rq.push(t)
        assert t.vruntime == 5_000

    def test_remove(self):
        rq = RunQueue(0)
        a, b = mk_task(1), mk_task(2)
        rq.push(a)
        rq.push(b)
        assert rq.remove(a)
        assert not rq.remove(a)
        assert rq.pop() is b
        assert rq.pop() is None

    def test_live_tasks_skips_removed_entries_in_heap_order(self):
        rq = RunQueue(0)
        tasks = [mk_task(tid, vr) for tid, vr in ((1, 30), (2, 10), (3, 20))]
        for t in tasks:
            rq.push(t)
        rq.remove(tasks[2])
        assert [t.tid for t in rq.live_tasks()] == [2, 1]
        assert len(rq) == 2

    def test_steal_one_takes_largest_vruntime(self):
        rq = RunQueue(0)
        rq.push(mk_task(1, 10))
        rq.push(mk_task(2, 99))
        rq.push(mk_task(3, 50))
        assert rq.steal_one().tid == 2
        assert rq.nr_queued == 2

    def test_steal_from_empty(self):
        assert RunQueue(0).steal_one() is None

    def test_peek_skips_removed(self):
        rq = RunQueue(0)
        a, b = mk_task(1, 1), mk_task(2, 2)
        rq.push(a)
        rq.push(b)
        rq.remove(a)
        assert rq.peek() is b

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=40))
    def test_pop_order_is_sorted(self, vruntimes):
        """Property: pops are non-decreasing in effective vruntime."""
        rq = RunQueue(0)
        for i, vr in enumerate(vruntimes):
            rq.push(mk_task(i, vr))
        out = []
        while (t := rq.pop()) is not None:
            out.append(t.vruntime)
        assert out == sorted(out)
        assert len(out) == len(vruntimes)

    @given(st.lists(st.tuples(st.sampled_from(["push", "pop", "remove",
                                               "steal"]),
                              st.integers(0, 15), st.integers(1, 6)),
                    max_size=80))
    def test_die_queued_counts_the_die(self, ops):
        """Property: over random push/pop/remove/steal_one on a 2-socket
        kernel's runqueues, each die's shared count equals the queued
        tasks on its cpus (the count _newidle_pull trusts to skip an
        empty die)."""
        kern = Kernel(Engine(0), TWO_SOCKETS, CfsPolicy(),
                      PerformanceGovernor())
        tasks = {}     # tid -> the runqueue it is queued on
        for what, cpu, tid in ops:
            rq = kern.rqs[cpu]
            if what in ("pop", "steal"):
                # Aim at a queue holding ``tid``, when there is one.
                rq = tasks.get(tid, rq)
            if what == "push":
                if tid not in tasks:
                    tasks[tid] = rq
                    rq.push(mk_task(tid))
            elif what == "pop":
                t = rq.pop()
                if t is not None:
                    del tasks[t.tid]
            elif what == "remove":
                owner = tasks.pop(tid, None)
                assert rq.remove(mk_task(tid)) == (owner is rq)
                if owner is not None and owner is not rq:
                    assert owner.remove(mk_task(tid))
            else:
                t = rq.steal_one()
                if t is not None:
                    del tasks[t.tid]
            for c in range(kern.topology.n_cpus):
                span = kern.domains.die_span(c)
                assert kern.rqs[c].die_queued[0] == \
                    sum(kern.rqs[d].nr_queued for d in span)


class TestDomains:
    def test_two_socket_smt_levels(self):
        h = DomainHierarchy(Topology(2, 4, 2))
        names = [d.name for d in h.domains_of(0)]
        assert names == ["SMT", "MC", "NUMA"]

    def test_single_socket_has_no_numa(self):
        h = DomainHierarchy(Topology(1, 4, 2))
        assert [d.name for d in h.domains_of(0)] == ["SMT", "MC"]

    def test_smt1_has_no_smt_level(self):
        h = DomainHierarchy(Topology(2, 4, 1))
        assert [d.name for d in h.domains_of(0)] == ["MC", "NUMA"]

    def test_smt_domain_is_sibling_pair(self):
        h = DomainHierarchy(Topology(2, 4, 2))
        smt = h.domains_of(1)[0]
        assert smt.span == (1, 9)
        assert smt.groups == ((1,), (9,))

    def test_mc_groups_are_physical_cores(self):
        h = DomainHierarchy(Topology(1, 2, 2))
        mc = h.llc_domain(0)
        assert sorted(mc.span) == [0, 1, 2, 3]
        assert sorted(mc.groups) == [(0, 2), (1, 3)]

    def test_numa_groups_are_sockets(self):
        topo = Topology(2, 2, 2)
        h = DomainHierarchy(topo)
        numa = h.domains_of(0)[-1]
        assert numa.name == "NUMA"
        assert len(numa.groups) == 2
        assert sorted(sum(numa.groups, ())) == topo.all_cpus()

    def test_die_span(self):
        topo = Topology(2, 4, 2)
        h = DomainHierarchy(topo)
        for cpu in topo.all_cpus():
            assert set(h.die_span(cpu)) == \
                set(topo.cpus_in_socket(topo.socket_of(cpu)))

    def test_kernels_on_one_machine_share_one_hierarchy(self):
        machine = get_machine("5218_2s")
        a, b = (Kernel(Engine(seed), machine, CfsPolicy(),
                       PerformanceGovernor()) for seed in (1, 2))
        assert a.domains is b.domains
        # Equal topologies are one cache key.
        assert domain_hierarchy(Topology(2, 16, 2)) is a.domains

    def test_groups_partition_span(self):
        for topo in (Topology(2, 8, 2), Topology(4, 5, 2), Topology(1, 6, 1)):
            h = DomainHierarchy(topo)
            for cpu in topo.all_cpus():
                for dom in h.domains_of(cpu):
                    assert sorted(sum(dom.groups, ())) == sorted(dom.span)
                    assert cpu in dom.span
