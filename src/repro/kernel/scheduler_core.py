"""The simulated kernel: context switching, ticks, placement, idle loop.

This module plays the role of ``kernel/sched/core.c`` plus the mechanical
parts of ``fair.c``: running tasks, accounting virtual runtime, handling
ticks, driving behaviour generators, and dispatching fork/wakeup placements
to the selection policy (CFS, Nest or Smove).  Everything frequency-related
is delegated to :class:`repro.hw.freqmodel.FreqModel`; everything
policy-related to :class:`repro.sched.base.SelectionPolicy`.

Key modelling choices (see DESIGN.md):

* Work is measured in cycles with 1000 cycles = 1 µs at 1 GHz, so a core at
  ``f`` MHz retires ``f`` cycles per µs.  Frequency transitions re-price the
  running task's completion event — the mechanism through which placement
  decisions change wall-clock time.
* A placement is two steps, selection then enqueue, separated by a small
  delay (``placement_delay_us``).  During the window the target runqueue is
  marked ``placement_pending``.  Policies that implement the paper's §3.4
  compare-and-swap flag skip pending cores; CFS does not, so simultaneous
  placements can collide and overload a core, exactly as in the paper.
* When a task blocks, the policy may request that the idle loop *spin* for a
  few ticks to keep the core warm (§3.2).  The spin stops early if the
  sibling hyperthread becomes busy or a task is placed on the core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..governors.base import Governor
from ..hw.energy import EnergyMeter
from ..hw.freqmodel import FreqModel
from ..hw.machines import Machine
from ..obs import events as oev
from ..obs.metrics import MetricsRegistry
from ..sched.base import SelectionPolicy
from ..sim.clock import TICK_US
from ..sim.engine import Engine, SimulationError
from ..sim.events import EventKind
from ..sim.trace import Tracer
from .domains import domain_hierarchy
from .runqueue import RunQueue
from .syscalls import (RT_GO, BarrierWait, Compute, Exit, Fork, Recv, RtSpec,
                       Send, Sleep, WaitChildren, WaitTask, Yield)
from .task import BlockReason, Task, TaskState

#: Bucket edges of the backup recovery-latency histogram (promotion of a
#: cold backup to its exit, in µs).
RT_RECOVERY_EDGES = (50, 100, 200, 500, 1_000, 2_000, 5_000,
                     10_000, 20_000, 50_000)


@dataclass(frozen=True)
class KernelConfig:
    """Tunables of the kernel model (Linux-flavoured defaults)."""

    context_switch_us: int = 3        # direct cost of a context switch
    placement_delay_us: int = 2       # selection -> enqueue window (§3.4)
    #: Throughput of each hyperthread when both threads of a physical core
    #: are running tasks (they share the core's execution units).  A
    #: spinning idle loop does not contend.
    smt_contention_factor: float = 0.62
    sched_latency_us: int = 18_000    # CFS scheduling period
    min_granularity_us: int = 2_250   # minimum timeslice
    wakeup_granularity_us: int = 1_000  # wakeup preemption threshold
    newidle_balance: bool = True      # pull work when a cpu goes idle
    periodic_balance_us: int = 64_000  # periodic load-balance interval
    idle_wake_cost_us: int = 8        # extra latency waking a deep-idle cpu


class TaskAPI:
    """Read-only handle passed to behaviour generators."""

    __slots__ = ("kernel", "task")

    def __init__(self, kernel: "Kernel", task: Task) -> None:
        self.kernel = kernel
        self.task = task

    @property
    def now(self) -> int:
        return self.kernel.engine.now

    def rng(self, name: str):
        return self.kernel.engine.rng.stream(f"task:{name}")


class _CpuState:
    """Per-hardware-thread scheduler state."""

    __slots__ = ("current", "tick_event", "spinning", "spin_event",
                 "stint_start", "vr_last_update")

    def __init__(self) -> None:
        self.current: Optional[Task] = None
        self.tick_event = None
        self.spinning = False
        self.spin_event = None
        self.stint_start = 0
        self.vr_last_update = 0


class Kernel:
    """The simulated OS scheduler core."""

    def __init__(
        self,
        engine: Engine,
        machine: Machine,
        policy: SelectionPolicy,
        governor: Governor,
        config: Optional[KernelConfig] = None,
        tracer: Optional[Tracer] = None,
        energy: Optional[EnergyMeter] = None,
    ) -> None:
        self.engine = engine
        self.machine = machine
        self.topology = machine.topology
        self.config = config or KernelConfig()
        self.policy = policy
        self.governor = governor

        n = self.topology.n_cpus
        self.cpus: List[_CpuState] = [_CpuState() for _ in range(n)]
        self.domains = domain_hierarchy(self.topology)
        # Flattened topology maps for the per-event hot paths (the topology
        # is immutable, so these never go stale).
        self.sibling_of = tuple(self.topology.sibling_of(c) for c in range(n))
        self.pc_of = tuple(self.topology.physical_core_of(c) for c in range(n))
        self.smt_siblings_of = tuple(self.topology.smt_siblings(c)
                                     for c in range(n))
        self.die_of = tuple(self.topology.die_of(c) for c in range(n))
        # The runqueues of a die share one queued-task count.
        die_queued = [[0] for _ in range(max(self.die_of) + 1)]
        self.rqs: List[RunQueue] = [
            RunQueue(cpu, engine.now, die_queued[self.die_of[cpu]])
            for cpu in range(n)]

        self.tracer = tracer or Tracer(n)
        self.energy = energy or EnergyMeter(self.topology)
        #: Structured-event log (shared with every component via the
        #: engine) and the kernel's always-on metrics registry.
        self.obs = engine.obs
        self.metrics = MetricsRegistry()
        self._h_wakeup_latency = self.metrics.histogram(
            "wakeup_latency_us",
            (1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000))
        self.freq = FreqModel(engine, self.topology, machine.turbo,
                              machine.pm, governor)
        self.freq.add_listener(self._on_core_freq_change)

        self.tasks: Dict[int, Task] = {}
        self._next_tid = 1
        self.n_live = 0
        self.n_runnable = 0           # RUNNABLE + RUNNING
        self.stop_when_idle = True

        #: Hotplug state (faults/): placements, idle searches and balancing
        #: all skip offline hardware threads.  Fault metrics counters are
        #: created lazily so clean runs keep a bit-identical metrics dict.
        self.cpu_online: List[bool] = [True] * n
        #: Optional seeded tick perturbation installed by the fault
        #: injector: a callable returning a per-tick offset in µs.
        self.tick_jitter: Optional[Callable[[], int]] = None

        #: Observers notified on runnable-count changes: fn(now, count).
        self.runnable_observers: List[Callable[[int, int], None]] = []

        #: RT (deadline) metrics, created lazily at the first RT fork so
        #: runs without RT tasks keep a bit-identical metrics dict.
        self._rt_c_met = None
        self._rt_c_miss = None
        self._rt_c_activations = None
        self._rt_c_kills = None
        self._rt_h_recovery = None

        governor.bind(self)
        policy.bind(self)
        # Hooks whose body is the base-class no-op are not called at all;
        # skipping an empty call cannot change a run.
        cls = type(policy)
        self._pol_on_tick = cls.on_tick is not SelectionPolicy.on_tick
        self._pol_on_enqueue = cls.on_enqueue is not SelectionPolicy.on_enqueue
        self._pol_on_exit_idle = (cls.on_exit_idle
                                  is not SelectionPolicy.on_exit_idle)

        self._balancer_started = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def spawn(self, behaviour: Callable[..., Any], name: str = "task",
              on_cpu: int = 0, args: tuple = ()) -> Task:
        """Create a root task (e.g. a shell starting a program).

        The task is placed through the policy's fork path, as if forked from
        ``on_cpu``.
        """
        task = self._new_task(behaviour, name, parent=None, args=args)
        self._place_fork(task, parent_cpu=on_cpu)
        return task

    def run_until_idle(self, max_us: Optional[int] = None) -> int:
        """Convenience: run the engine until every task has exited."""
        if not self._balancer_started and self.config.periodic_balance_us > 0:
            self._balancer_started = True
            self.engine.after(self.config.periodic_balance_us,
                              EventKind.BALANCE, self._periodic_balance)
        end = self.engine.run(until=max_us)
        self.tracer.flush(self.engine.now)
        self.energy.advance(self.engine.now)
        return end

    def nr_running(self, cpu: int) -> int:
        """Tasks on the cpu (running + queued)."""
        rq = self.rqs[cpu]
        return rq.nr_queued + (1 if self.cpus[cpu].current is not None else 0)

    def cpu_is_idle(self, cpu: int) -> bool:
        """No task running or queued (a spinning idle loop still counts
        as idle for placement purposes).  An offline cpu is never idle:
        it cannot accept work."""
        return (self.cpu_online[cpu]
                and self.cpus[cpu].current is None
                and self.rqs[cpu].nr_queued == 0)

    def cpu_last_used(self, cpu: int) -> int:
        """Time the cpu last ran a task (now, if currently busy)."""
        if self.cpus[cpu].current is not None:
            return self.engine.now
        return self.rqs[cpu].last_busy_us

    # ------------------------------------------------------------------
    # Hotplug and straggler faults (driven by faults.FaultInjector)
    # ------------------------------------------------------------------

    def least_loaded_online(self, near: int) -> int:
        """Deterministic fallback target: the least loaded online cpu,
        preferring the die of ``near`` (ties break towards low cpu ids)."""
        for span in (self.domains.die_span(near), range(self.topology.n_cpus)):
            best, best_key = None, None
            for c in span:
                if not self.cpu_online[c]:
                    continue
                key = (self.nr_running(c), c)
                if best_key is None or key < best_key:
                    best, best_key = c, key
            if best is not None:
                return best
        raise SimulationError("no online cpus left")

    def set_cpu_offline(self, cpu: int) -> None:
        """Hotplug ``cpu`` out: drain its runqueue, migrate the running
        task, scrub attachment history and let the policy repair itself.

        Mirrors the shape of Linux's ``sched_cpu_deactivate``: the cpu
        stops being a placement target first, then its tasks are pushed
        away.  Orphans are re-placed through the policy (so Nest routes
        them through its nest search and its counters stay consistent) or,
        if the policy abstains, onto the least loaded online cpu.
        """
        if not self.cpu_online[cpu]:
            return
        if sum(self.cpu_online) <= 1:
            raise SimulationError("cannot offline the last online cpu")
        now = self.engine.now
        self.cpu_online[cpu] = False
        cs = self.cpus[cpu]
        if cs.spinning:
            self._stop_spin(cpu)
        self._stop_tick(cpu)

        orphans: List[Task] = []
        curr = cs.current
        if curr is not None:
            self._stop_running(cpu, curr)
            curr.state = TaskState.RUNNABLE
            curr.enqueued_us = now
            orphans.append(curr)
        rq = self.rqs[cpu]
        while True:
            task = rq.pop()
            if task is None:
                break
            orphans.append(task)

        # Forget the dead cpu in every live task's attachment history so
        # orphaned (and merely attached) tasks re-attach to wherever they
        # land next rather than chasing a vanished core (§3.3 under faults).
        for task in self.tasks.values():
            if task.alive:
                hist = task.core_history
                for slot in range(len(hist)):
                    if hist[slot] == cpu:
                        hist[slot] = None

        self.policy.on_cpu_offline(cpu)
        if self.obs.enabled:
            self.obs.emit(now, oev.FAULT_CPU_OFFLINE, cpu=cpu,
                          value=len(orphans))
        if orphans:
            c_orphans = self.metrics.counter("fault_orphan_migrations")
            for task in orphans:
                dst = self.policy.select_cpu_offline_migration(task, cpu)
                if dst is None or not self.cpu_online[dst]:
                    dst = self.least_loaded_online(cpu)
                c_orphans.value += 1
                self._migrate_queued(task, cpu, dst)

    def set_cpu_online(self, cpu: int) -> None:
        """Bring a hotplugged cpu back.  It returns cold: its runqueue's
        ``last_busy_us`` is untouched, so the deep-idle wake cost applies
        to the first task placed there."""
        if self.cpu_online[cpu]:
            return
        self.cpu_online[cpu] = True
        self.policy.on_cpu_online(cpu)
        if self.obs.enabled:
            self.obs.emit(self.engine.now, oev.FAULT_CPU_ONLINE, cpu=cpu)

    def slow_running_task(self, cpu: int, factor: float) -> bool:
        """Straggler fault: inflate the remaining work of the task running
        on ``cpu`` by ``factor``.  Returns False (nothing to slow) if the
        cpu has no priced compute slice in flight."""
        task = self.cpus[cpu].current
        if task is None or task.completion_event is None or factor <= 1.0:
            return False
        now = self.engine.now
        # Bank what has already executed at the old pace, then stretch
        # only the unexecuted remainder.
        elapsed = now - task.run_start_us
        consumed = elapsed * task.run_freq_mhz
        executed = min(task.remaining_cycles, consumed)
        task.remaining_cycles -= executed
        task.total_cycles += executed
        task.remaining_cycles *= factor
        self.engine.cancel(task.completion_event)
        self._price_completion(cpu, task)
        return True

    # ------------------------------------------------------------------
    # Real-time primary/backup re-execution (fault-tolerant scheduling;
    # see DESIGN.md §10)
    # ------------------------------------------------------------------

    def _apply_rt_spec(self, task: Task, rt: RtSpec) -> None:
        """Stamp a forked child with its RT attributes and, for a backup
        copy, wire it to its primary and the activation channel."""
        if self._rt_c_met is None:
            m = self.metrics
            self._rt_c_met = m.counter("rt_deadline_met")
            self._rt_c_miss = m.counter("rt_deadline_miss")
            self._rt_c_activations = m.counter("rt_backup_activations")
            self._rt_c_kills = m.counter("rt_kills")
            self._rt_h_recovery = m.histogram("rt_recovery_latency_us",
                                              RT_RECOVERY_EDGES)
        primary = rt.primary
        if primary is None:
            task.deadline_us = self.engine.now + rt.deadline_us
        else:
            # The backup shares its primary's absolute deadline: both
            # copies belong to one job released at the primary's fork.
            task.deadline_us = (primary.deadline_us
                                if primary.deadline_us is not None
                                else self.engine.now + rt.deadline_us)
            task.backup_of = primary
            primary.backup = task
            primary.rt_channel = rt.channel

    def rt_fail_cpu(self, cpu: int) -> int:
        """Fail-stop semantics of a core-failure fault: destroy every RT
        task copy resident on ``cpu`` (running or queued) before the cpu
        is hotplugged out.  Non-RT tasks survive and are migrated by the
        hotplug path; in-flight placements are redirected when they land.
        Returns the number of copies destroyed."""
        rq = self.rqs[cpu]
        seen = set()
        queued: List[Task] = []
        for t in rq.live_tasks():
            if t.tid not in seen and t.deadline_us is not None:
                seen.add(t.tid)
                queued.append(t)
        queued.sort(key=lambda t: t.tid)
        victims: List[Task] = []
        curr = self.cpus[cpu].current
        if curr is not None and curr.deadline_us is not None:
            victims.append(curr)
        victims.extend(queued)
        for task in victims:
            self._rt_kill(task, cpu)
        return len(victims)

    def _rt_kill(self, task: Task, cpu: int) -> None:
        """Destroy one RT copy abruptly (no further execution)."""
        task.rt_killed = True
        self._rt_c_kills.value += 1
        if self.obs.enabled:
            self.obs.emit(self.engine.now, oev.RT_KILL, cpu=cpu,
                          task=task.tid)
        if task.cpu is None:
            # Queued (RUNNABLE) on the failing core: dequeue it first;
            # _exit_task only detaches RUNNING tasks.
            self.rqs[cpu].remove(task)
            self._runnable_delta(-1)
        self._exit_task(task)
        self._rt_handle_death(task, cpu)

    def _rt_handle_death(self, victim: Task, cpu: int) -> None:
        """Recovery after a kill: promote the cold backup, or account a
        deadline miss when no copy is left."""
        now = self.engine.now
        if victim.backup_of is not None:
            primary = victim.backup_of
            if victim.rt_activated_us is not None:
                # The promoted (sole remaining) copy died: the job is lost.
                self._rt_account(primary, met=False)
            # A cold backup died; the primary still runs and accounts for
            # the job itself (its own death re-checks the backup's state).
            return
        backup = victim.backup
        if backup is not None and backup.state is not TaskState.EXITED \
                and backup.rt_activated_us is None:
            backup.rt_activated_us = now
            self._rt_c_activations.value += 1
            if self.obs.enabled:
                self.obs.emit(now, oev.RT_BACKUP_ACTIVATE, cpu=cpu,
                              task=backup.tid, value=victim.tid)
            chan = victim.rt_channel
            receiver = chan.put(RT_GO)
            if receiver is not None:
                ok, msg = chan.try_get()
                if not ok:  # pragma: no cover - put guarantees a message
                    raise SimulationError("rt channel lost a message")
                receiver.resume_value = msg
                self._place_wakeup(receiver, cpu)
            # else: the backup has not reached its Recv yet; it finds the
            # activation message as soon as it does.
            return
        # No live backup to promote: the job is lost at kill time.
        self._rt_account(victim, met=False)

    def _rt_on_exit(self, task: Task) -> None:
        """Deadline accounting at a normal (non-killed) RT task exit."""
        now = self.engine.now
        if task.backup_of is not None:
            if task.rt_activated_us is not None:
                # A promoted backup finished the job.
                self._rt_account(task.backup_of,
                                 met=now <= task.deadline_us,
                                 recovery_us=now - task.rt_activated_us)
            # A cancelled (never-activated) backup retires silently.
            return
        self._rt_account(task, met=now <= task.deadline_us)

    def _rt_account(self, primary: Task, met: bool,
                    recovery_us: Optional[int] = None) -> None:
        """Record one job outcome exactly once (keyed on the primary)."""
        if primary.rt_accounted:
            return
        primary.rt_accounted = True
        now = self.engine.now
        if met:
            self._rt_c_met.value += 1
            if self.obs.enabled:
                self.obs.emit(now, oev.RT_DEADLINE_MET, task=primary.tid,
                              value=primary.deadline_us)
        else:
            self._rt_c_miss.value += 1
            if self.obs.enabled:
                self.obs.emit(now, oev.RT_DEADLINE_MISS, task=primary.tid,
                              value=primary.deadline_us)
        if recovery_us is not None:
            self._rt_h_recovery.observe(recovery_us)

    # ------------------------------------------------------------------
    # Task creation / fork
    # ------------------------------------------------------------------

    def _new_task(self, behaviour: Callable[..., Any], name: str,
                  parent: Optional[Task], args: tuple = ()) -> Task:
        tid = self._next_tid
        self._next_tid += 1
        task = Task(tid, name, None, parent, self.engine.now)
        api = TaskAPI(self, task)
        task.generator = behaviour(api, *args)
        self.tasks[tid] = task
        self.n_live += 1
        return task

    def _place_fork(self, task: Task, parent_cpu: int) -> None:
        cpu = self.policy.select_cpu_fork(task, parent_cpu)
        self._commit_placement(task, cpu, EventKind.FORK)

    def _place_wakeup(self, task: Task, waker_cpu: int) -> None:
        task.n_wakeups += 1
        cpu = self.policy.select_cpu_wakeup(task, waker_cpu)
        self._commit_placement(task, cpu, EventKind.WAKEUP)

    def _commit_placement(self, task: Task, cpu: int, kind: EventKind) -> None:
        """Two-step placement: mark pending, enqueue after a small delay."""
        if not self.cpu_online[cpu]:
            # The policy proposed a dead cpu (e.g. a stale fallback hint
            # while a hotplug fault is in flight): redirect deterministically.
            cpu = self.least_loaded_online(cpu)
            self.metrics.counter("fault_placement_redirects").value += 1
        rq = self.rqs[cpu]
        rq.placement_pending += 1
        task.record_core(cpu)
        if self.obs.enabled:
            self.obs.emit(self.engine.now,
                          oev.SCHED_FORK if kind is EventKind.FORK
                          else oev.SCHED_WAKEUP, cpu=cpu, task=task.tid)
        # The enqueue becomes visible a couple of µs after selection (the
        # §3.4 race window); the cost of waking an idle core out of its
        # C-state is charged to the task's first compute slice instead.
        delay = self.config.placement_delay_us + self.policy.selection_cost_us
        self.engine.after(delay, kind, self._enqueue_placed, (task, cpu))

    def _enqueue_placed(self, task: Task, cpu: int) -> None:
        self.rqs[cpu].placement_pending -= 1
        if task.state is TaskState.EXITED:
            # Destroyed by a core failure while the placement was in
            # flight: the enqueue lands on a corpse and is dropped.
            return
        if not self.cpu_online[cpu]:
            # The cpu was hotplugged out inside the §3.4 placement window:
            # land the task on the least loaded online cpu instead.
            cpu = self.least_loaded_online(cpu)
            task.record_core(cpu)
            self.metrics.counter("fault_placement_redirects").value += 1
        self.enqueue(task, cpu)

    # ------------------------------------------------------------------
    # Enqueue / preemption
    # ------------------------------------------------------------------

    def enqueue(self, task: Task, cpu: int) -> None:
        """Make ``task`` runnable on ``cpu`` and resolve preemption."""
        now = self.engine.now
        if task.state in (TaskState.RUNNING, TaskState.RUNNABLE):
            raise SimulationError(f"enqueue of already-runnable {task}")
        if task.prev_cpu is not None and task.prev_cpu != cpu:
            task.n_migrations += 1
        task.state = TaskState.RUNNABLE
        task.block_reason = BlockReason.NONE
        task.enqueued_us = now
        task.pelt.update(now, False)   # decay utilisation over the block
        self._runnable_delta(+1)

        cs = self.cpus[cpu]
        if cs.spinning:
            self._stop_spin(cpu)
        if cs.current is not None:
            self._account_current(cpu)   # freshen min_vruntime for the clamp
        rq = self.rqs[cpu]
        rq.push(task)
        if self._pol_on_enqueue:
            self.policy.on_enqueue(task, cpu)
        if cs.current is None:
            self._schedule(cpu)
        else:
            self._maybe_preempt(cpu, task)

    def _maybe_preempt(self, cpu: int, new_task: Task) -> None:
        cs = self.cpus[cpu]
        curr = cs.current
        if curr is None:
            return
        if curr.vruntime - new_task.vruntime > self.config.wakeup_granularity_us:
            self._preempt_current(cpu)

    def _preempt_current(self, cpu: int) -> None:
        """Put the running task back on the queue and schedule anew."""
        cs = self.cpus[cpu]
        curr = cs.current
        if curr is None:
            return
        if self.obs.enabled:
            self.obs.emit(self.engine.now, oev.SCHED_PREEMPT, cpu=cpu,
                          task=curr.tid)
        self._stop_running(cpu, curr)
        curr.state = TaskState.RUNNABLE
        curr.enqueued_us = self.engine.now
        self.rqs[cpu].push(curr)
        self._schedule(cpu)

    # ------------------------------------------------------------------
    # The dispatcher
    # ------------------------------------------------------------------

    def _schedule(self, cpu: int, after_block: bool = False) -> None:
        """Pick the next task for ``cpu`` or enter the idle path."""
        cs = self.cpus[cpu]
        if cs.current is not None:
            raise SimulationError(f"_schedule with current on cpu {cpu}")
        rq = self.rqs[cpu]
        while True:
            task = rq.pop()
            if task is None and self.config.newidle_balance:
                task = self._newidle_pull(cpu)
            if task is None:
                self._enter_idle(cpu, after_block)
                return
            if self._run_task(cpu, task):
                return
            # The task blocked or exited instantly; try the next one.

    def _run_task(self, cpu: int, task: Task) -> bool:
        """Install ``task`` on ``cpu``.  Returns False if it immediately
        blocked or exited (the cpu is then still free)."""
        now = self.engine.now
        cs = self.cpus[cpu]
        rq = self.rqs[cpu]
        # A core sitting in a deep idle state pays an exit latency before it
        # can run anything; a spinning or just-vacated core does not.
        deep_idle = (not cs.spinning
                     and now - rq.last_busy_us > self.config.idle_wake_cost_us)
        if cs.spinning:
            self._stop_spin(cpu)

        task.state = TaskState.RUNNING
        task.cpu = cpu
        if task.enqueued_us is not None:
            latency = now - task.enqueued_us
            task.wakeup_latency_us += latency
            task.enqueued_us = None
            self._h_wakeup_latency.observe(latency)
            if self.obs.enabled:
                self.obs.emit(now, oev.SCHED_DISPATCH, cpu=cpu,
                              task=task.tid, value=latency)
        cs.current = task
        cs.stint_start = now
        cs.vr_last_update = now

        self._set_thread_activity(cpu, busy=True)
        self.tracer.begin(cpu, now, self.freq.freq_mhz(cpu), task.tid)
        self._start_tick(cpu)

        # Drive the behaviour until it needs CPU time or leaves the CPU.
        switch_cost = self.config.context_switch_us
        if deep_idle:
            switch_cost += self.config.idle_wake_cost_us
        while True:
            if task.remaining_cycles > 0:
                self._price_completion(cpu, task, extra_us=switch_cost)
                return True
            outcome = self._advance(task)
            if outcome == "compute":
                continue
            if outcome == "yield":
                self._stop_running(cpu, task)
                task.state = TaskState.RUNNABLE
                task.enqueued_us = now
                rq.push(task)
                return False
            # blocked or exited: _advance already detached it from the cpu.
            return False

    def _effective_rate(self, cpu: int) -> float:
        """Cycles retired per µs on ``cpu``: frequency in MHz, scaled down
        when the sibling hyperthread is also running a task."""
        rate = float(self.freq.freq_mhz(cpu))
        sib = self.sibling_of[cpu]
        if sib != cpu and self.cpus[sib].current is not None:
            rate *= self.config.smt_contention_factor
        return rate

    def _price_completion(self, cpu: int, task: Task, extra_us: int = 0) -> None:
        """Schedule the completion event of the current compute slice."""
        now = self.engine.now
        rate = self._effective_rate(cpu)
        if rate <= 0:
            raise SimulationError("zero frequency")
        task.run_start_us = now
        task.run_freq_mhz = rate
        remaining_us = task.remaining_cycles / rate
        delay = max(1, int(remaining_us + 0.999999)) + extra_us
        task.completion_event = self.engine.after(
            delay, EventKind.COMPLETION, self._on_completion, (task,))

    def _reprice_running(self, cpu: int) -> None:
        """Re-price the running task after a rate change (frequency step or
        sibling contention change), banking the cycles already executed."""
        task = self.cpus[cpu].current
        if task is None or task.completion_event is None:
            return
        now = self.engine.now
        elapsed = now - task.run_start_us
        consumed = elapsed * task.run_freq_mhz
        executed = min(task.remaining_cycles, consumed)
        task.remaining_cycles -= executed
        task.total_cycles += executed
        self.engine.cancel(task.completion_event)
        self._price_completion(cpu, task)

    def _on_completion(self, task: Task) -> None:
        """The current compute slice finished."""
        cpu = task.cpu
        if cpu is None or task.state is not TaskState.RUNNING:
            raise SimulationError(f"completion for non-running {task}")
        task.completion_event = None
        now = self.engine.now
        task.total_cycles += task.remaining_cycles
        task.remaining_cycles = 0.0
        self._account_current(cpu)

        cs = self.cpus[cpu]
        while True:
            outcome = self._advance(task)
            if outcome == "compute":
                self._price_completion(cpu, task)
                return
            if outcome == "yield":
                self._stop_running(cpu, task)
                task.state = TaskState.RUNNABLE
                task.enqueued_us = now
                self.rqs[cpu].push(task)
                self._schedule(cpu)
                return
            if outcome == "blocked":
                self._schedule(cpu, after_block=True)
                return
            if outcome == "exited":
                self._schedule(cpu, after_block=False)
                if self._pol_on_exit_idle:
                    self.policy.on_exit_idle(cpu)
                return
            raise SimulationError(f"unknown outcome {outcome}")

    # ------------------------------------------------------------------
    # Behaviour interpretation
    # ------------------------------------------------------------------

    def _advance(self, task: Task) -> str:
        """Resume the generator; returns 'compute', 'blocked', 'yield' or
        'exited'.  The task must be RUNNING on task.cpu."""
        while True:
            try:
                action = task.generator.send(task.resume_value)
            except StopIteration:
                self._exit_task(task)
                return "exited"
            task.resume_value = None

            if isinstance(action, Compute):
                if action.cycles <= 0:
                    continue
                task.remaining_cycles = float(action.cycles)
                return "compute"

            if isinstance(action, Fork):
                child = self._new_task(action.behaviour, action.name,
                                       parent=task, args=action.args)
                if action.rt is not None:
                    self._apply_rt_spec(child, action.rt)
                self._place_fork(child, parent_cpu=task.cpu)
                task.resume_value = child
                continue

            if isinstance(action, Sleep):
                if action.us <= 0:
                    continue
                self._block(task, BlockReason.TIMER)
                self.engine.after(action.us, EventKind.IO,
                                  self._timer_wake, (task,))
                return "blocked"

            if isinstance(action, WaitChildren):
                if task.has_live_children:
                    self._block(task, BlockReason.CHILDREN)
                    return "blocked"
                continue

            if isinstance(action, WaitTask):
                target: Task = action.task
                if target.alive:
                    target.waited_by = task
                    task.waiting_for = target
                    self._block(task, BlockReason.TASK)
                    return "blocked"
                continue

            if isinstance(action, BarrierWait):
                woken = action.barrier.arrive(task)
                if woken is None:
                    self._block(task, BlockReason.BARRIER)
                    return "blocked"
                waker_cpu = task.cpu
                for t in woken:
                    self._place_wakeup(t, waker_cpu)
                continue

            if isinstance(action, Send):
                receiver = action.channel.put(action.message)
                if receiver is not None:
                    ok, msg = action.channel.try_get()
                    if not ok:  # pragma: no cover - put guarantees a message
                        raise SimulationError("channel lost a message")
                    receiver.resume_value = msg
                    self._place_wakeup(receiver, task.cpu)
                continue

            if isinstance(action, Recv):
                ok, msg = action.channel.try_get()
                if ok:
                    task.resume_value = msg
                    continue
                action.channel.receivers.append(task)
                self._block(task, BlockReason.CHANNEL)
                return "blocked"

            if isinstance(action, Yield):
                return "yield"

            if isinstance(action, Exit):
                self._exit_task(task)
                return "exited"

            raise SimulationError(f"unknown action {action!r}")

    # ------------------------------------------------------------------
    # Blocking, waking, exiting
    # ------------------------------------------------------------------

    def _block(self, task: Task, reason: BlockReason) -> None:
        """Detach the RUNNING task from its cpu and mark it blocked."""
        cpu = task.cpu
        if cpu is None:
            raise SimulationError(f"block of off-cpu {task}")
        self._stop_running(cpu, task)
        task.util_est = task.pelt.value     # util_est snapshot at dequeue
        task.state = (TaskState.SLEEPING if reason is BlockReason.TIMER
                      else TaskState.BLOCKED)
        task.block_reason = reason
        self._runnable_delta(-1)
        # Leave a decaying footprint of this task's load on the runqueue
        # (Linux keeps blocked load in the rq averages).
        self.rqs[cpu].blocked_load.update(self.engine.now, False)
        self.rqs[cpu].blocked_load.add(task.pelt.value * 0.5)

    def _timer_wake(self, task: Task) -> None:
        if task.state is not TaskState.SLEEPING:
            return
        # Timer wakeups are initiated by the interrupt on the previous cpu.
        waker = task.prev_cpu if task.prev_cpu is not None else 0
        self._place_wakeup(task, waker)

    def _exit_task(self, task: Task) -> None:
        cpu = task.cpu
        if cpu is not None:
            self._stop_running(cpu, task)
            self._runnable_delta(-1)
        task.state = TaskState.EXITED
        task.exited_us = self.engine.now
        self.n_live -= 1
        if task.deadline_us is not None and not task.rt_killed:
            self._rt_on_exit(task)

        parent = task.parent
        if parent is not None:
            parent.live_children -= 1
            if (parent.state is TaskState.BLOCKED
                    and parent.block_reason is BlockReason.CHILDREN
                    and not parent.live_children):
                self._place_wakeup(parent, cpu if cpu is not None else 0)
        waiter = task.waited_by
        if waiter is not None and waiter.state is TaskState.BLOCKED \
                and waiter.block_reason is BlockReason.TASK \
                and waiter.waiting_for is task:
            waiter.waiting_for = None
            self._place_wakeup(waiter, cpu if cpu is not None else 0)

        if self.n_live == 0 and self.stop_when_idle:
            self.engine.stop("workload-complete")

    def _stop_running(self, cpu: int, task: Task) -> None:
        """Common bookkeeping to take the RUNNING task off the cpu."""
        now = self.engine.now
        cs = self.cpus[cpu]
        if cs.current is not task:
            raise SimulationError(f"{task} is not current on cpu {cpu}")
        self._account_current(cpu)
        if task.completion_event is not None:
            # Bank the cycles already executed in this stint.
            elapsed = now - task.run_start_us
            consumed = elapsed * task.run_freq_mhz
            executed = min(task.remaining_cycles, consumed)
            task.remaining_cycles -= executed
            task.total_cycles += executed
            self.engine.cancel(task.completion_event)
            task.completion_event = None
        task.total_runtime_us += now - cs.stint_start
        task.prev_cpu = cpu
        task.cpu = None
        cs.current = None
        self._set_thread_activity(cpu, busy=False)
        self.tracer.end(cpu, now)
        self.rqs[cpu].last_busy_us = now
        # The tick stays armed: it self-cancels at the next firing if the
        # cpu is still idle (periodic ticks, not per-stint ones).

    def _account_current(self, cpu: int) -> None:
        """Charge vruntime and PELT for the running task up to now."""
        cs = self.cpus[cpu]
        curr = cs.current
        now = self.engine.now
        if curr is None:
            return
        delta = now - cs.vr_last_update
        if delta > 0:
            curr.vruntime += delta     # all weights equal (nice 0)
            cs.vr_last_update = now
            rq = self.rqs[cpu]
            rq.min_vruntime = max(rq.min_vruntime, curr.vruntime)
        curr.pelt.update(now, True)

    def _runnable_delta(self, delta: int) -> None:
        self.n_runnable += delta
        now = self.engine.now
        for fn in self.runnable_observers:
            fn(now, self.n_runnable)

    # ------------------------------------------------------------------
    # Idle path and warm-core spinning (§3.2)
    # ------------------------------------------------------------------

    def _enter_idle(self, cpu: int, after_block: bool) -> None:
        """Start the warm-core spin if the policy asks for one and the
        sibling is idle.  Otherwise there is nothing to report: the cpu
        idles only after ``_stop_running`` took its task off, which
        reported the thread idle at this instant."""
        cs = self.cpus[cpu]
        spin_ticks = float(self.policy.spin_ticks()) if after_block else 0.0
        if spin_ticks > 0:
            sib = self.sibling_of[cpu]
            sib_busy = sib != cpu and self.cpus[sib].current is not None
            if not sib_busy:
                cs.spinning = True
                if self.obs.enabled:
                    self.obs.emit(self.engine.now, oev.SPIN_START, cpu=cpu)
                self._set_thread_activity(cpu, busy=False, spinning=True)
                self.tracer.begin(cpu, self.engine.now,
                                  self.freq.freq_mhz(cpu), -1, spinning=True)
                cs.spin_event = self.engine.after(
                    int(round(spin_ticks * TICK_US)), EventKind.SPIN_STOP,
                    self._spin_timeout, (cpu,))

    def _spin_timeout(self, cpu: int) -> None:
        cs = self.cpus[cpu]
        cs.spin_event = None
        if cs.spinning:
            self._stop_spin(cpu)

    def _stop_spin(self, cpu: int) -> None:
        cs = self.cpus[cpu]
        if not cs.spinning:
            return
        cs.spinning = False
        if cs.spin_event is not None:
            self.engine.cancel(cs.spin_event)
            cs.spin_event = None
        if self.obs.enabled:
            self.obs.emit(self.engine.now, oev.SPIN_STOP, cpu=cpu)
        self.tracer.end(cpu, self.engine.now)
        self._set_thread_activity(cpu, busy=False)

    # ------------------------------------------------------------------
    # Activity, frequency, energy plumbing
    # ------------------------------------------------------------------

    def _set_thread_activity(self, cpu: int, busy: bool,
                             spinning: bool = False) -> None:
        now = self.engine.now
        rq = self.rqs[cpu]
        rq.busy_avg.update(now, rq.currently_busy)
        rq.currently_busy = busy
        active = self.freq.set_thread_state(cpu, busy, spinning)
        self.energy.set_core_active(self.pc_of[cpu], active, now)
        # The paper's spin stops as soon as the hyperthread gets a task,
        # and the sibling's execution rate changes with this thread's state.
        sib = self.sibling_of[cpu]
        if sib != cpu:
            if busy and self.cpus[sib].spinning:
                self._stop_spin(sib)
            if self.cpus[sib].current is not None:
                self._reprice_running(sib)

    def _on_core_freq_change(self, physical_core: int, mhz: int) -> None:
        now = self.engine.now
        self.energy.set_core_freq(physical_core, mhz, now)
        if self.obs.enabled:
            self.obs.emit(now, oev.FREQ_STEP, cpu=physical_core, value=mhz)
        for cpu in self.smt_siblings_of[physical_core]:
            self.tracer.freq_change(cpu, now, mhz)
            if self.cpus[cpu].current is not None:
                self._reprice_running(cpu)

    # ------------------------------------------------------------------
    # Ticks
    # ------------------------------------------------------------------

    def _tick_period(self) -> int:
        """Nominal tick period, perturbed by the fault injector's seeded
        jitter when armed (always >= 1 µs)."""
        if self.tick_jitter is None:
            return TICK_US
        return max(1, TICK_US + self.tick_jitter())

    def _start_tick(self, cpu: int) -> None:
        cs = self.cpus[cpu]
        if cs.tick_event is None:
            cs.tick_event = self.engine.after(
                self._tick_period(), EventKind.TICK, self._tick, (cpu,))

    def _stop_tick(self, cpu: int) -> None:
        """Cancel a pending tick (used by tests; the normal path lets the
        tick die by itself when it fires on an idle cpu)."""
        cs = self.cpus[cpu]
        if cs.tick_event is not None:
            self.engine.cancel(cs.tick_event)
            cs.tick_event = None

    def _tick(self, cpu: int) -> None:
        cs = self.cpus[cpu]
        cs.tick_event = None
        curr = cs.current
        if curr is None:
            return
        self._account_current(cpu)
        self.freq.notify_request_change(cpu)
        if self._pol_on_tick:
            self.policy.on_tick(cpu, self.freq.freq_mhz(cpu))

        rq = self.rqs[cpu]
        if rq.nr_queued > 0:
            # Linux's nohz idle-balance kick: a busy tick with waiting
            # tasks prods an idle cpu on the same die to pull.
            self._nohz_kick(cpu)
            nr = rq.nr_queued + 1
            slice_us = max(self.config.sched_latency_us // nr,
                           self.config.min_granularity_us)
            ran = self.engine.now - cs.stint_start
            if ran >= slice_us:
                self._preempt_current(cpu)
                if self.cpus[cpu].current is not None:
                    self._start_tick(cpu)
                return
        cs.tick_event = self.engine.after(
            self._tick_period(), EventKind.TICK, self._tick, (cpu,))

    def _nohz_kick(self, busy_cpu: int) -> None:
        if not self.config.newidle_balance:
            return
        for c in self.domains.die_span(busy_cpu):
            if c != busy_cpu and self.cpu_is_idle(c) \
                    and not self.rqs[c].placement_pending:
                self.engine.after(1, EventKind.BALANCE,
                                  self._idle_pull, (c,))
                return

    def _idle_pull(self, cpu: int) -> None:
        """An idle cpu answering a nohz kick: steal queued work."""
        if not self.cpu_is_idle(cpu):
            return
        task = self._newidle_pull(cpu)
        if task is None:
            return
        while not self._run_task(cpu, task):
            task = self.rqs[cpu].pop() or self._newidle_pull(cpu)
            if task is None:
                self._enter_idle(cpu, after_block=False)
                return

    # ------------------------------------------------------------------
    # Load balancing
    # ------------------------------------------------------------------

    def _newidle_pull(self, cpu: int) -> Optional[Task]:
        """Newly-idle balance: steal a queued task from the busiest rq on
        the same die (CFS's newidle balance rarely crosses the LLC)."""
        rqs = self.rqs
        if rqs[cpu].die_queued[0] == 0:
            return None     # nothing queued anywhere on the die
        best, best_n = None, 0
        for other in self.domains.die_span(cpu):
            if other == cpu:
                continue
            n = rqs[other].nr_queued
            if n > best_n:
                best, best_n = other, n
        if best is None:
            return None
        task = rqs[best].steal_one()
        if task is None:
            return None
        task.n_migrations += 1
        if self.obs.enabled:
            self.obs.emit(self.engine.now, oev.SCHED_MIGRATE, cpu=cpu,
                          task=task.tid, value=best)
        return task

    def _periodic_balance(self) -> None:
        """Machine-wide periodic balance: move queued tasks from overloaded
        cpus to idle ones, intra-die first."""
        moved = 0
        for span in ([self.domains.die_span(c * self.topology.cores_per_socket)
                      for c in range(self.topology.n_sockets)]
                     + [tuple(range(self.topology.n_cpus))]):
            moved += self._balance_span(span)
        self.engine.after(self.config.periodic_balance_us,
                          EventKind.BALANCE, self._periodic_balance)

    def _balance_span(self, span) -> int:
        idle = [c for c in span if self.cpu_is_idle(c)
                and not self.rqs[c].placement_pending]
        if not idle:
            return 0
        loaded = sorted((c for c in span if self.rqs[c].nr_queued > 0),
                        key=lambda c: -self.rqs[c].nr_queued)
        moved = 0
        for src in loaded:
            if not idle:
                break
            while self.rqs[src].nr_queued > 0 and idle:
                dst = idle.pop(0)
                task = self.rqs[src].steal_one()
                if task is None:
                    break
                self._migrate_queued(task, src, dst)
                moved += 1
        return moved

    def _migrate_queued(self, task: Task, src: int, dst: int) -> None:
        """Move a queued (RUNNABLE) task from ``src`` to ``dst``."""
        task.prev_cpu = src
        task.n_migrations += 1
        if self.obs.enabled:
            self.obs.emit(self.engine.now, oev.SCHED_MIGRATE, cpu=dst,
                          task=task.tid, value=src)
        cs = self.cpus[dst]
        if cs.spinning:
            self._stop_spin(dst)
        if cs.current is not None:
            self._account_current(dst)
        self.rqs[dst].push(task)
        if self._pol_on_enqueue:
            self.policy.on_enqueue(task, dst)
        if cs.current is None:
            self._schedule(dst)
        else:
            self._maybe_preempt(dst, task)
