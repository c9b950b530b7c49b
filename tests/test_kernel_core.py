"""End-to-end tests of the kernel core: lifecycle, ticks, preemption,
blocking, barriers, channels, spinning, balancing."""

import pytest

from repro.core.params import NestParams
from repro.experiments.parallel import RunSpec, execute_spec
from repro.governors.performance import PerformanceGovernor
from repro.governors.schedutil import SchedutilGovernor
from repro.hw.energy import PowerParams
from repro.hw.freqmodel import SPEED_SHIFT, FreqModel
from repro.hw.machines import Machine
from repro.hw.topology import Topology
from repro.hw.turbo import XEON_5218
from repro.kernel.scheduler_core import Kernel, KernelConfig
from repro.kernel.syscalls import (Barrier, BarrierWait, Channel, Compute,
                                   Exit, Fork, Recv, Send, Sleep,
                                   WaitChildren, WaitTask, Yield)
from repro.kernel.task import TaskState
from repro.sched.cfs import CfsPolicy
from repro.sim.engine import Engine
from repro.sim.trace import Tracer
from repro.workloads.base import ms_of_work, us_of_work

TINY = Machine(
    name="tiny", cpu_model="Test CPU", microarchitecture="Test",
    topology=Topology(1, 2, 2), turbo=XEON_5218, pm=SPEED_SHIFT,
    power=PowerParams())

BIG = Machine(
    name="big", cpu_model="Test CPU", microarchitecture="Test",
    topology=Topology(2, 4, 2), turbo=XEON_5218, pm=SPEED_SHIFT,
    power=PowerParams())


def make_kernel(machine=TINY, policy=None, governor=None, config=None,
                seed=0):
    eng = Engine(seed)
    kern = Kernel(eng, machine, policy or CfsPolicy(),
                  governor or PerformanceGovernor(), config=config,
                  tracer=Tracer(machine.n_cpus, record_segments=True))
    return eng, kern


class TestBasicLifecycle:
    def test_single_compute_task_runs_and_exits(self):
        eng, kern = make_kernel()

        def beh(api):
            yield Compute(ms_of_work(1.0))

        t = kern.spawn(beh, "solo")
        kern.run_until_idle()
        assert t.state is TaskState.EXITED
        assert t.exited_us is not None
        assert kern.n_live == 0
        assert kern.n_runnable == 0

    def test_compute_time_scales_with_frequency(self):
        # At the all-core cap (2.8 GHz pre-sustain with performance
        # governor), 2.8M cycles take about 1 ms.
        eng, kern = make_kernel()

        def beh(api):
            yield Compute(2_800_000)

        kern.spawn(beh, "t")
        end = kern.run_until_idle()
        assert 900 <= end <= 1_500

    def test_empty_behaviour_exits_immediately(self):
        eng, kern = make_kernel()

        def beh(api):
            return
            yield  # pragma: no cover

        t = kern.spawn(beh, "noop")
        kern.run_until_idle()
        assert t.state is TaskState.EXITED

    def test_explicit_exit_action(self):
        eng, kern = make_kernel()
        after_exit = []

        def beh(api):
            yield Exit()
            after_exit.append(1)  # pragma: no cover

        kern.spawn(beh, "t")
        kern.run_until_idle()
        assert after_exit == []

    def test_sleep_blocks_for_duration(self):
        eng, kern = make_kernel()
        times = {}

        def beh(api):
            times["before"] = api.now
            yield Sleep(5_000)
            times["after"] = api.now

        kern.spawn(beh, "sleeper")
        kern.run_until_idle()
        assert times["after"] - times["before"] >= 5_000

    def test_stop_when_idle(self):
        eng, kern = make_kernel()

        def beh(api):
            yield Compute(us_of_work(100))

        kern.spawn(beh, "t")
        kern.run_until_idle()
        assert eng.stop_reason == "workload-complete"


class TestForkAndWait:
    def test_fork_returns_child_task(self):
        eng, kern = make_kernel()
        seen = {}

        def child(api):
            yield Compute(us_of_work(50))

        def parent(api):
            c = yield Fork(child, name="kid")
            seen["child"] = c
            yield WaitChildren()
            seen["child_state"] = c.state

        kern.spawn(parent, "parent")
        kern.run_until_idle()
        assert seen["child"].name == "kid"
        assert seen["child_state"] is TaskState.EXITED

    def test_wait_children_with_no_children_continues(self):
        eng, kern = make_kernel()

        def parent(api):
            yield WaitChildren()
            yield Compute(us_of_work(10))

        t = kern.spawn(parent, "p")
        kern.run_until_idle()
        assert t.state is TaskState.EXITED

    def test_wait_task_specific(self):
        eng, kern = make_kernel()
        order = []

        def slow(api):
            yield Compute(ms_of_work(2.0))
            order.append("slow")

        def fast(api):
            yield Compute(us_of_work(50))
            order.append("fast")

        def parent(api):
            s = yield Fork(slow, name="slow")
            f = yield Fork(fast, name="fast")
            yield WaitTask(s)
            order.append("parent")

        kern.spawn(parent, "p")
        kern.run_until_idle()
        assert order.index("slow") < order.index("parent")

    def test_fork_runs_children_in_parallel(self):
        eng, kern = make_kernel()

        def child(api):
            yield Compute(ms_of_work(2.0))

        def parent(api):
            for _ in range(3):
                # Space the forks out (simultaneous forks legitimately race
                # for the same core, the paper's §3.4 collision).
                yield Compute(us_of_work(20))
                yield Fork(child)
            yield WaitChildren()

        kern.spawn(parent, "p")
        end = kern.run_until_idle()
        # 3 x 2 ms of work on >= 3 effective cpus: far less than serial.
        serial_us = 3 * 2_000 * 1000 / 2_800
        assert end < serial_us * 0.8

    def test_task_tree_recorded(self):
        eng, kern = make_kernel()

        def child(api):
            yield Compute(us_of_work(10))

        def parent(api):
            yield Fork(child)
            yield WaitChildren()

        p = kern.spawn(parent, "p")
        kern.run_until_idle()
        assert len(p.children) == 1
        assert next(iter(p.children)).parent is p


class TestLiveChildren:
    def test_parent_wakes_when_its_last_child_exits(self):
        eng, kern = make_kernel(machine=BIG)
        events = eng.obs.attach_memory()

        def grandchild(api):
            yield Compute(us_of_work(400))

        def child(api, us, fork):
            if fork:
                yield Fork(grandchild)
            yield Compute(us_of_work(us))

        def parent(api):
            for us, fork in ((300, False), (50, True), (900, False),
                             (200, False)):
                yield Fork(child, args=(us, fork))
            yield WaitChildren()

        p = kern.spawn(parent, "p")
        kern.run_until_idle()
        last_exit = max(c.exited_us for c in p.children)
        assert len({c.exited_us for c in p.children}) == 4
        forker = next(c for c in p.children if c.children)
        orphan, = forker.children     # outlives the child that forked it
        assert forker.exited_us < orphan.exited_us
        # One wakeup, placed at the last child's exit.
        assert [ev.t for ev in events if ev.kind == "sched.wakeup"
                and ev.task == p.tid] == [last_exit]
        assert p.state is TaskState.EXITED
        assert len(kern.tasks) == 6
        assert [t.live_children for t in kern.tasks.values()] == [0] * 6


class TestChannels:
    def test_send_recv_roundtrip(self):
        eng, kern = make_kernel()
        got = []

        def receiver(api, ch):
            msg = yield Recv(ch)
            got.append(msg)

        def sender(api):
            ch = Channel()
            yield Fork(receiver, name="rx", args=(ch,))
            yield Compute(us_of_work(100))
            yield Send(ch, "hello")
            yield WaitChildren()

        kern.spawn(sender, "tx")
        kern.run_until_idle()
        assert got == ["hello"]

    def test_recv_of_buffered_message_does_not_block(self):
        eng, kern = make_kernel()
        got = []

        def beh(api):
            ch = Channel()
            yield Send(ch, 1)
            yield Send(ch, 2)
            got.append((yield Recv(ch)))
            got.append((yield Recv(ch)))

        kern.spawn(beh, "t")
        kern.run_until_idle()
        assert got == [1, 2]

    def test_ping_pong(self):
        eng, kern = make_kernel()
        hops = []

        def ponger(api, ping, pong):
            for _ in range(3):
                yield Recv(ping)
                hops.append("pong")
                yield Send(pong, "p")

        def pinger(api):
            ping, pong = Channel(), Channel()
            yield Fork(ponger, name="pong", args=(ping, pong))
            for _ in range(3):
                yield Send(ping, "p")
                hops.append("ping")
                yield Recv(pong)
            yield WaitChildren()

        kern.spawn(pinger, "ping")
        kern.run_until_idle()
        assert hops.count("ping") == 3 and hops.count("pong") == 3


class TestBarriers:
    def test_barrier_synchronises(self):
        eng, kern = make_kernel(BIG)
        after = []

        def worker(api, barrier, wait_ms):
            yield Compute(ms_of_work(wait_ms))
            yield BarrierWait(barrier)
            after.append(api.now)

        def parent(api):
            b = Barrier(3)
            yield Fork(worker, args=(b, 0.5))
            yield Fork(worker, args=(b, 1.0))
            yield Fork(worker, args=(b, 2.0))
            yield WaitChildren()

        kern.spawn(parent, "p")
        kern.run_until_idle()
        assert len(after) == 3
        # Everyone leaves the barrier close to the slowest arrival.
        assert max(after) - min(after) < 1_000

    def test_barrier_rounds(self):
        eng, kern = make_kernel(BIG)
        rounds_done = []

        def worker(api, barrier, idx):
            for r in range(3):
                yield Compute(us_of_work(100 * (idx + 1)))
                yield BarrierWait(barrier)
            rounds_done.append(idx)

        def parent(api):
            b = Barrier(2)
            yield Fork(worker, args=(b, 0))
            yield Fork(worker, args=(b, 1))
            yield WaitChildren()

        kern.spawn(parent, "p")
        kern.run_until_idle()
        assert sorted(rounds_done) == [0, 1]


class TestPreemptionAndTicks:
    def test_timeslice_shares_one_cpu(self):
        """Two CPU hogs pinned by circumstance to one core both finish."""
        eng, kern = make_kernel(config=KernelConfig(newidle_balance=False,
                                                    periodic_balance_us=0))

        def hog(api):
            yield Compute(ms_of_work(20.0))

        def parent(api):
            yield Fork(hog)
            yield Fork(hog)
            yield WaitChildren()

        kern.spawn(parent, "p")
        kern.run_until_idle(max_us=2_000_000)
        assert kern.n_live == 0

    def test_wakeup_preemption(self):
        """A task waking after a sleep preempts a long-running hog on its
        cpu when no other cpu is available."""
        eng, kern = make_kernel()
        wake_latency = {}

        def sleeper(api):
            yield Compute(us_of_work(100))
            t0 = api.now
            yield Sleep(1_000)
            wake_latency["v"] = api.task.wakeup_latency_us

        kern.spawn(sleeper, "s")
        kern.run_until_idle()
        assert wake_latency["v"] < 1_000

    def test_vruntime_accumulates(self):
        eng, kern = make_kernel()

        def beh(api):
            yield Compute(ms_of_work(10))

        t = kern.spawn(beh, "t")
        kern.run_until_idle()
        assert t.vruntime > 0
        assert t.total_runtime_us > 0

    def test_total_cycles_accounted(self):
        eng, kern = make_kernel()
        work = ms_of_work(5.0)

        def beh(api):
            yield Compute(work)

        t = kern.spawn(beh, "t")
        kern.run_until_idle()
        assert t.total_cycles == pytest.approx(work, rel=0.01)


class TestYield:
    def test_yield_keeps_task_runnable(self):
        eng, kern = make_kernel()
        steps = []

        def beh(api):
            steps.append(1)
            yield Yield()
            steps.append(2)
            yield Compute(us_of_work(10))

        t = kern.spawn(beh, "y")
        kern.run_until_idle()
        assert steps == [1, 2]
        assert t.state is TaskState.EXITED


class TestSmtContention:
    def test_sibling_contention_slows_execution(self):
        """Two tasks on the two hyperthreads of one physical core run
        slower than two tasks on separate physical cores."""

        def run(machine, pin_same_core):
            eng, kern = make_kernel(
                machine, config=KernelConfig(newidle_balance=False,
                                             periodic_balance_us=0))

            def hog(api):
                yield Compute(ms_of_work(10.0))

            t1 = kern._new_task(hog, "a", None)
            t2 = kern._new_task(hog, "b", None)
            kern.enqueue(t1, 0)
            kern.enqueue(t2, 2 if pin_same_core else 1)  # 2 = sibling of 0
            kern.run_until_idle()
            return eng.now

        shared = run(TINY, True)
        separate = run(TINY, False)
        assert shared > separate * 1.3


class TestBalancing:
    def test_newidle_balance_pulls_queued_work(self):
        eng, kern = make_kernel(BIG)

        def hog(api):
            yield Compute(ms_of_work(5.0))

        # Overload cpu 0 artificially with direct enqueues.
        tasks = [kern._new_task(hog, f"h{i}", None) for i in range(4)]
        for t in tasks:
            kern.enqueue(t, 0)
        kern.run_until_idle()
        assert sum(t.n_migrations for t in tasks) > 0

    def test_periodic_balance_runs(self):
        eng, kern = make_kernel(
            BIG, config=KernelConfig(newidle_balance=False,
                                     periodic_balance_us=10_000))

        def hog(api):
            yield Compute(ms_of_work(40.0))

        tasks = [kern._new_task(hog, f"h{i}", None) for i in range(3)]
        for t in tasks:
            kern.enqueue(t, 0)
        kern.run_until_idle(max_us=3_000_000)
        assert sum(t.n_migrations for t in tasks) > 0


class TestAccountingInvariants:
    def test_runnable_counter_returns_to_zero(self):
        eng, kern = make_kernel(BIG)

        def child(api):
            yield Compute(us_of_work(200))
            yield Sleep(100)
            yield Compute(us_of_work(200))

        def parent(api):
            for _ in range(6):
                yield Fork(child)
            yield WaitChildren()

        kern.spawn(parent, "p")
        kern.run_until_idle()
        assert kern.n_runnable == 0
        assert kern.n_live == 0

    def test_trace_segments_do_not_overlap_per_core(self):
        eng, kern = make_kernel(BIG, seed=3)

        def child(api):
            yield Compute(us_of_work(300))
            yield Sleep(150)
            yield Compute(us_of_work(300))

        def parent(api):
            for _ in range(8):
                yield Fork(child)
            yield WaitChildren()

        kern.spawn(parent, "p")
        kern.run_until_idle()
        per_core = {}
        for seg in kern.tracer.segments:
            per_core.setdefault(seg.core, []).append((seg.start, seg.end))
        for spans in per_core.values():
            spans.sort()
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert e1 <= s2

    def test_energy_accumulated(self):
        eng, kern = make_kernel()

        def beh(api):
            yield Compute(ms_of_work(5))

        kern.spawn(beh, "t")
        kern.run_until_idle()
        assert kern.energy.energy_joules > 0


class TestActivityPricing:
    """set_thread_state prices the changed core; the kernel does not price
    it a second time."""

    @staticmethod
    def count_notifies(kern):
        calls = []
        notify = kern.freq.notify_request_change

        def counting(cpu):
            calls.append(cpu)
            notify(cpu)

        kern.freq.notify_request_change = counting
        return calls

    @pytest.mark.parametrize("governor", [SchedutilGovernor,
                                          PerformanceGovernor])
    def test_shipped_governors_are_not_asked_twice(self, governor):
        eng, kern = make_kernel(governor=governor())
        calls = self.count_notifies(kern)
        kern._set_thread_activity(0, busy=True)
        kern._set_thread_activity(0, busy=False)
        assert calls == []


class TestActivityReports:
    """The kernel reports a thread's activity only when it changes, and
    re-prices only a sibling that is running a task.  Neither re-report
    could change a result; each cost a frequency re-evaluation or an
    event re-push."""

    SPECS = (
        dict(workload="configure-llvm_ninja", scale=0.3, scheduler="cfs"),
        dict(workload="configure-llvm_ninja", scale=0.3, scheduler="nest",
             nest_params=NestParams(spin_enabled=True)),
        dict(workload="hackbench", scale=1.0, scheduler="cfs"),
    )

    @pytest.fixture(scope="class")
    def calls(self):
        """Every activity report and re-price of the three runs, with the
        state it met: (thread state before, reported state) and (cpu,
        whether it had a current task)."""
        reports, reprices = [], []
        set_state = FreqModel.set_thread_state
        reprice = Kernel._reprice_running

        def recording_set_state(model, cpu, busy, spinning):
            reports.append((model.thread_state(cpu), (busy, spinning)))
            return set_state(model, cpu, busy, spinning)

        def recording_reprice(kern, cpu):
            reprices.append((cpu, kern.cpus[cpu].current is not None))
            return reprice(kern, cpu)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(FreqModel, "set_thread_state", recording_set_state)
            mp.setattr(Kernel, "_reprice_running", recording_reprice)
            for fields in self.SPECS:
                execute_spec(RunSpec(machine="5218_2s", seed=1, **fields))
        return reports, reprices

    def test_every_report_changes_the_thread_state(self, calls):
        reports, _ = calls
        assert len(reports) > 1000
        unchanged = sum(before == after for before, after in reports)
        assert unchanged == 0, f"{unchanged} of {len(reports)} reports"

    def test_only_a_running_sibling_is_repriced(self, calls):
        _, reprices = calls
        assert reprices
        idle = sum(not running for _, running in reprices)
        assert idle == 0, f"{idle} of {len(reprices)} re-prices"
