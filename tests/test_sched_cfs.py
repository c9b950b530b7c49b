"""Tests for the CFS placement model (§2.1 behaviours)."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.governors.performance import PerformanceGovernor
from repro.hw.freqmodel import SPEED_SHIFT
from repro.hw.machines import Machine
from repro.hw.topology import Topology
from repro.hw.turbo import XEON_5218
from repro.kernel.scheduler_core import Kernel
from repro.kernel.syscalls import Compute
from repro.kernel.task import Task
from repro.sched.cfs import CfsPolicy, WAKEUP_SCAN_LIMIT, _qload, _rotate
from repro.sim.engine import Engine
from repro.workloads.base import ms_of_work

MACHINE = Machine(name="t", cpu_model="t", microarchitecture="t",
                  topology=Topology(2, 4, 2), turbo=XEON_5218, pm=SPEED_SHIFT)


def make():
    eng = Engine(0)
    policy = CfsPolicy()
    kern = Kernel(eng, MACHINE, policy, PerformanceGovernor())
    return eng, kern, policy


def occupy(kern, cpu):
    """Install a fake running task on a cpu."""

    def hog(api):
        yield Compute(ms_of_work(1000))

    t = kern._new_task(hog, f"hog{cpu}", None)
    kern.enqueue(t, cpu)
    return t


class TestRotate:
    def test_rotate_starts_at_member(self):
        assert _rotate((0, 1, 2, 3), 2) == (2, 3, 0, 1)

    def test_rotate_nonmember_starts_after(self):
        assert _rotate((0, 2, 4, 6), 3) == (4, 6, 0, 2)

    def test_rotate_beyond_end_wraps(self):
        assert _rotate((0, 1, 2), 9) == (0, 1, 2)

    def test_rotate_sorts_input(self):
        assert _rotate((3, 1, 2), 2) == (2, 3, 1)


class TestQload:
    def test_quantisation_buckets(self):
        assert _qload(0.0) == _qload(31.0)
        assert _qload(31.0) < _qload(33.0)


class TestForkPlacement:
    def test_idle_machine_fork_lands_near_parent(self):
        eng, kern, policy = make()

        def noop(api):
            yield Compute(1)

        t = kern._new_task(noop, "x", None)
        cpu = policy.select_cpu_fork(t, parent_cpu=0)
        # Same socket as the parent on an idle machine.
        assert kern.topology.socket_of(cpu) == 0

    def test_fork_avoids_busy_cpus(self):
        eng, kern, policy = make()
        for c in (0, 1):
            occupy(kern, c)

        def noop(api):
            yield Compute(1)

        t = kern._new_task(noop, "x", None)
        cpu = policy.select_cpu_fork(t, parent_cpu=0)
        assert kern.cpu_is_idle(cpu)

    def test_fork_prefers_long_idle_over_recently_used(self):
        """The §2.1 anti-reuse bias: recent load disfavours warm cores."""
        eng, kern, policy = make()
        # Give cpu 1 a recent-load footprint.
        kern.rqs[1].busy_avg.add(500)

        def noop(api):
            yield Compute(1)

        t = kern._new_task(noop, "x", None)
        cpu = policy.select_cpu_fork(t, parent_cpu=0)
        assert cpu != 1

    def test_fork_stays_local_when_idle_counts_equal(self):
        """v5.9 find_idlest_group: the local group wins unless another has
        strictly more idle cpus."""
        eng, kern, policy = make()

        def noop(api):
            yield Compute(1)

        t = kern._new_task(noop, "x", None)
        cpu = policy.select_cpu_fork(t, parent_cpu=4)   # socket 1 cpu
        assert kern.topology.socket_of(cpu) == 1

    def test_fork_crosses_socket_when_local_fuller(self):
        eng, kern, policy = make()
        for c in (0, 1, 2):
            occupy(kern, c)

        def noop(api):
            yield Compute(1)

        t = kern._new_task(noop, "x", None)
        cpu = policy.select_cpu_fork(t, parent_cpu=0)
        assert kern.topology.socket_of(cpu) == 1


class TestWakeupPlacement:
    def _task(self, kern, prev_cpu):
        def noop(api):
            yield Compute(1)

        t = kern._new_task(noop, "w", None)
        t.prev_cpu = prev_cpu
        t.util_est = 300.0
        return t

    def test_idle_prev_wins(self):
        eng, kern, policy = make()
        t = self._task(kern, prev_cpu=3)
        assert policy.select_cpu_wakeup(t, waker_cpu=1) == 3

    def test_busy_prev_falls_to_die_scan(self):
        eng, kern, policy = make()
        occupy(kern, 3)
        t = self._task(kern, prev_cpu=3)
        cpu = policy.select_cpu_wakeup(t, waker_cpu=1)
        assert cpu != 3
        assert kern.topology.die_of(cpu) == kern.topology.die_of(3)

    def test_wakeup_not_work_conserving_across_dies(self):
        """§2.1: wakeup only considers the target die; with the whole die
        busy the task queues there even though the other die is idle."""
        eng, kern, policy = make()
        die = kern.domains.die_span(0)
        for c in die:
            occupy(kern, c)
        t = self._task(kern, prev_cpu=0)
        cpu = policy.select_cpu_wakeup(t, waker_cpu=0)
        assert cpu in die   # stuck on the busy die

    def test_nest_extension_searches_all_dies(self):
        """The same scenario through the all-dies search finds the idle
        socket (Nest's §3.4 work conservation)."""
        eng, kern, policy = make()
        die = kern.domains.die_span(0)
        for c in die:
            occupy(kern, c)
        cpu = policy.select_idle_sibling(0, all_dies=True,
                                         check_pending=True)
        assert cpu not in die

    def test_prefers_core_with_idle_sibling(self):
        eng, kern, policy = make()
        occupy(kern, 0)     # physical core 0: thread 8 is its sibling
        t = self._task(kern, prev_cpu=0)
        cpu = policy.select_cpu_wakeup(t, waker_cpu=0)
        # The chosen cpu's sibling should be idle (select_idle_core).
        sib = kern.topology.sibling_of(cpu)
        assert kern.cpu_is_idle(cpu) and kern.cpu_is_idle(sib)

    def test_pending_flag_respected_when_asked(self):
        eng, kern, policy = make()
        kern.rqs[2].placement_pending = 1
        assert not policy._usable_idle(2, check_pending=True)
        assert policy._usable_idle(2, check_pending=False)

    def test_scan_limit_constant_sane(self):
        assert 1 <= WAKEUP_SCAN_LIMIT <= 64


# ----------------------------------------------------------------------
# The fork walk against its full-scan reference
# ----------------------------------------------------------------------

def full_scan_fork(policy, parent_cpu):
    """CFS's fork walk as the loop version: every rival group's load is
    summed and every online cpu of the chosen group is ranked."""
    kernel = policy.kernel
    cpu = parent_cpu
    stack = kernel.domains.domains_of(cpu)
    for level in range(len(stack) - 1, -1, -1):
        group = _full_idlest_group(kernel, stack[level].groups, cpu)
        cpu = _full_idlest_cpu(kernel, group, parent_cpu,
                               policy.check_pending_default)
        stack = kernel.domains.domains_of(cpu)
    return cpu


def _idle(kernel, c):
    return kernel.cpus[c].current is None and kernel.rqs[c].nr_queued == 0


def _full_idlest_group(kernel, groups, current_cpu):
    now = kernel.engine.now
    online = kernel.cpu_online
    local, best, best_key = None, None, None
    for group in groups:
        if current_cpu in group:
            local = group
            continue
        members = [c for c in group if online[c]]
        if not members:
            continue
        idle = sum(1 for c in members if _idle(kernel, c))
        running = 0
        for c in members:
            running += kernel.rqs[c].nr_queued
            running += kernel.cpus[c].current is not None
        load = 0.0
        for c in members:
            load += kernel.rqs[c].load_avg(now)
        key = (-idle, running, _qload(load))
        if best_key is None or key < best_key:
            best, best_key = group, key
    if local is None:
        return best
    if best is None:
        return local
    local_idle = sum(1 for c in local if online[c] and _idle(kernel, c))
    return local if local_idle >= -best_key[0] else best


def _full_idlest_cpu(kernel, group, from_cpu, check_pending):
    now = kernel.engine.now
    best, best_key = None, None
    for rank, c in enumerate(_rotate(group, from_cpu)):
        if not kernel.cpu_online[c]:
            continue
        rq = kernel.rqs[c]
        busy = kernel.cpus[c].current is not None
        qload = _qload(rq.load_avg(now))
        if _idle(kernel, c) and not (check_pending
                                     and rq.placement_pending > 0):
            key = (0, 0, qload, rank)
        else:
            key = (1, rq.nr_queued + busy, qload, rank)
        if best_key is None or key < best_key:
            best, best_key = c, key
    if best is None:
        return kernel.least_loaded_online(from_cpu)
    return best


#: A 2-socket and a 4-socket machine, small enough that ties on idle and
#: running counts (which send the walk to the loads) are common.
FORK_MACHINES = tuple(
    Machine(name=f"t{i}", cpu_model="t", microarchitecture="t",
            topology=topo, turbo=XEON_5218, pm=SPEED_SHIFT)
    for i, topo in enumerate((Topology(2, 4, 2), Topology(4, 3, 2))))

#: A cpu for :func:`fork_kernel`: (running a task, queued tasks, load).
BUSY = (True, 0, 0.0)


def idle(load):
    return (False, 0, load)


def fork_kernel(cpus):
    """A CFS kernel on the 2-socket test machine (socket 0: cpus 0-3 and
    their siblings 8-11) with ``cpus`` as given, cpu -> (running, queued,
    load); every other cpu runs a task.  Loads are current, so
    ``load_avg`` returns them unchanged."""
    eng = Engine(0)
    policy = CfsPolicy()
    kern = Kernel(eng, FORK_MACHINES[0], policy, PerformanceGovernor())
    tids = iter(range(1, 1_000))
    for c in range(kern.topology.n_cpus):
        running, queued, load = cpus.get(c, BUSY)
        if running:
            kern.cpus[c].current = Task(next(tids), "r", None, None, 0)
        for _ in range(queued):
            kern.rqs[c].push(Task(next(tids), "q", None, None, 0))
        kern.rqs[c].busy_avg.value = load
    return kern, policy


class TestForkWalkShortcutCases:
    """The case each shortcut decides, checked on its own."""

    def test_the_cpu_scan_stops_only_at_a_fully_decayed_idle_cpu(self):
        # cpu 1 is idle but one load quantum up, so cpu 2 wins.
        kern, policy = fork_kernel({1: idle(40.0), 2: idle(0.0),
                                    3: idle(0.0)})
        loads = {}
        assert policy._find_idlest_cpu((0, 1, 2, 3), 0, loads) == 2
        # cpu 0 is busy and an idle cpu follows it; nothing after the
        # fully decayed cpu 2 is read.
        assert sorted(loads) == [0, 1, 2]

    def test_no_busy_load_is_read_once_an_idle_cpu_is_found(self):
        kern, policy = fork_kernel({0: idle(40.0), 2: idle(100.0)})
        loads = {}
        assert policy._find_idlest_cpu((0, 1, 2, 3), 0, loads) == 0
        assert sorted(loads) == [0, 2]

    def test_busy_cpus_compete_when_none_is_idle(self):
        kern, policy = fork_kernel({0: (True, 2, 0.0), 1: (True, 0, 500.0),
                                    2: (True, 1, 0.0)})
        assert policy._find_idlest_cpu((0, 1, 2), 0, {}) == 1

    def test_a_local_group_as_idle_as_any_rival_wins_unread(self):
        kern, policy = fork_kernel({0: idle(500.0), 8: idle(500.0),
                                    1: idle(0.0), 9: idle(0.0)})
        loads = {}
        mc = kern.domains.domains_of(0)[1].groups
        assert policy._find_idlest_group(mc, 0, loads) == (0, 8)
        assert loads == {}

    def test_a_rival_with_more_idle_cpus_beats_the_local_group(self):
        kern, policy = fork_kernel({0: idle(0.0), 1: idle(500.0),
                                    9: idle(500.0)})
        mc = kern.domains.domains_of(0)[1].groups
        assert policy._find_idlest_group(mc, 0, {}) == (1, 9)

    def test_rivals_tied_on_idle_counts_go_to_the_lower_load(self):
        # The local pair (0, 8) has one idle cpu; the rival pairs (1, 9)
        # and (2, 10) are fully idle and tie, and (2, 10) is less loaded.
        kern, policy = fork_kernel({0: idle(0.0), 1: idle(100.0),
                                    9: idle(100.0), 2: idle(40.0),
                                    10: idle(40.0)})
        mc = kern.domains.domains_of(0)[1].groups
        assert policy._find_idlest_group(mc, 0, {}) == (2, 10)
        assert policy.select_cpu_fork(None, 0) == full_scan_fork(policy, 0)

    def test_a_lone_rival_group_needs_no_load(self):
        # NUMA level: socket 1 has more idle cpus than socket 0.
        kern, policy = fork_kernel({4: idle(700.0), 5: idle(700.0)})
        loads = {}
        numa = kern.domains.domains_of(0)[2].groups
        assert policy._find_idlest_group(numa, 0, loads) == numa[1]
        assert loads == {}


#: Loads straddling the quantum (0 and 31.9 share bucket 0, 32 and 63.9
#: share bucket 1).
_LOADS = st.sampled_from([0.0, 0.0, 10.0, 31.9, 32.0, 50.0, 63.9, 64.0,
                          200.0])


def _cpu_states(running, queued):
    """24 cpus' states: (online, running a task, queued tasks,
    placement_pending, busy load, blocked load, µs since the loads were
    updated, currently_busy)."""
    return st.lists(st.tuples(
        st.sampled_from([True] * 9 + [False]), running, queued,
        st.sampled_from([0, 0, 0, 1]), _LOADS, _LOADS,
        st.sampled_from([0, 0, 1_000, 40_000]),
        st.sampled_from([False, False, True])), min_size=24, max_size=24)


#: Two mixes.  Mostly idle: several groups tie on their idle and running
#: counts, so the walk sums their loads, and idle cpus compete on load.
#: Mostly busy: groups hold no idle cpu, so busy cpus compete on load.
_MACHINE_STATES = st.one_of(
    _cpu_states(st.sampled_from([False, False, True]),
                st.sampled_from([0, 0, 0, 0, 1, 2])),
    _cpu_states(st.sampled_from([True, True, True, False]),
                st.sampled_from([0, 1, 1, 2])))


class TestForkWalkShortcuts:
    @settings(max_examples=300)
    @given(machine=st.sampled_from(FORK_MACHINES),
           states=_MACHINE_STATES,
           check_pending=st.booleans(),
           parent=st.integers(0, 23))
    def test_fork_walk_equals_the_full_scan(self, machine, states,
                                            check_pending, parent):
        """Property: over random kernel states on a 2- and a 4-socket
        machine (busy, queued, pending and offline cpus, PELT loads either
        side of the quantum), the fork walk's shortcuts pick the cpu the
        full scan picks."""
        n = machine.topology.n_cpus
        states = states[:n]
        assume(any(online for online, *_ in states))
        eng = Engine(0)
        policy = CfsPolicy(check_pending_default=check_pending)
        kern = Kernel(eng, machine, policy, PerformanceGovernor())
        eng.now = now = 100_000
        tids = iter(range(1, 1_000))
        for c, (online, running, queued, pending, busy_load, blocked_load,
                since, currently_busy) in enumerate(states):
            kern.cpu_online[c] = online
            if running:
                kern.cpus[c].current = Task(next(tids), "r", None, None, 0)
            rq = kern.rqs[c]
            for _ in range(queued):
                rq.push(Task(next(tids), "q", None, None, 0))
            rq.placement_pending = pending
            rq.busy_avg.value = busy_load
            rq.busy_avg.last_update_us = now - since
            rq.currently_busy = currently_busy
            rq.blocked_load.value = blocked_load
            rq.blocked_load.last_update_us = now - since // 2
        parent_cpu = parent % n
        assert policy.select_cpu_fork(None, parent_cpu) == \
            full_scan_fork(policy, parent_cpu)
