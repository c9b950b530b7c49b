"""Meta's ``scx_nest`` scheduler variant, as a comparator policy.

``scx_nest`` (SNIPPETS.md snippets 2–3) is a sched_ext eBPF scheduler
that combines a **global weighted virtual-time dispatch queue** (CFS-like
fairness across the whole machine) with Nest-style warm-core selection at
wakeup.  It keeps the paper's primary/reserve core masks but replaces the
paper's trip-over-a-stale-core hysteresis with **per-core compaction
timers**: a core arms a timer when it schedules to idle, and is demoted
to the reserve only if the timer fires with the core still untouched.

The simulator's kernel dispatches from per-cpu runqueues and requires a
policy to return a CPU synchronously, so the global queue is modelled at
the placement layer (see DESIGN.md §11 for the full mapping):

* every placement charges the task one virtual-time slice in a
  :class:`GlobalVtimeQueue`; a task placed on a *busy* core also enters
  the queue as a waiting entry;
* when a core schedules to idle after a task exit, it **pulls** the
  minimum-vtime waiting task from the global queue and migrates it over
  (``scxnest.vtime_pull``) — the shared-DSQ "idle core consumes the
  fairest waiting task" behaviour;
* entries are clamped on entry to at most ``max_lag_us`` behind the
  queue's virtual clock, bounding how far a task can fall behind
  (scx_nest's idle-vtime clamp, which prevents starvation).

Mask discipline mirrors scx_nest: primary hits reset a task's
impatience, failed primary searches increment it, and a task that failed
``r_impatient`` times in a row skips the masks entirely and its CFS pick
is promoted straight into the primary mask.  Unlike the paper's Nest
there is no task→core attachment and no warm-core spinning.  The masks,
their scans and the hotplug repair are the mask core shared with Nest
(``sched/nestcore.py``), and its mask transitions log as Nest's do
(``nest.promote``, ``nest.expand``, ``nest.compact``).
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Set, Tuple

from ..kernel.task import Task, TaskState
from ..obs import events as oev
from ..sim.clock import TICK_US
from ..sim.events import EventKind
from ..core.params import DEFAULT_PARAMS, NestParams
from .nestcore import NestCore

#: Default virtual-time slice charged per placement (scx_nest's
#: ``SCX_SLICE_DFL`` analogue), and the lag clamp applied on enqueue.
SLICE_US = 4_000
MAX_LAG_US = 2 * SLICE_US


class GlobalVtimeQueue:
    """A global weighted virtual-time queue (scx_nest's shared DSQ).

    Entries are ordered by ``(vtime, seq)``: strictly by virtual time,
    FIFO among equals.  ``charge`` advances a key's virtual time (and the
    queue's clock, which only moves forward); ``push`` clamps the entry's
    vtime to at most ``max_lag_us`` behind the clock, so a long-sleeping
    task cannot hoard an unbounded fairness credit and a lagging task is
    never more than ``max_lag_us`` behind when it is dispatched.
    """

    def __init__(self, slice_us: int = SLICE_US,
                 max_lag_us: int = MAX_LAG_US) -> None:
        if slice_us <= 0 or max_lag_us < 0:
            raise ValueError("non-positive slice or negative lag bound")
        self.slice_us = slice_us
        self.max_lag_us = max_lag_us
        self.vtime_now = 0
        self._vtime: Dict[int, int] = {}
        self._heap: List[Tuple[int, int, int, Any]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def vtime_of(self, key: int) -> int:
        """The key's stored virtual time (clock value for new keys)."""
        return self._vtime.get(key, self.vtime_now)

    def charge(self, key: int, amount_us: Optional[int] = None,
               weight: int = 1) -> int:
        """Advance the key's vtime by ``amount_us / weight`` (default one
        slice) and ratchet the queue clock forward.  Returns the key's
        new virtual time."""
        if weight <= 0:
            raise ValueError(f"non-positive weight {weight}")
        amount = self.slice_us if amount_us is None else amount_us
        if amount < 0:
            raise ValueError(f"negative charge {amount}")
        vtime = self.vtime_of(key) + amount // weight
        self._vtime[key] = vtime
        if vtime > self.vtime_now:
            self.vtime_now = vtime
        return vtime

    def push(self, key: int, payload: Any = None) -> int:
        """Queue ``key``, clamping its vtime to the lag bound.  Returns
        the effective vtime the entry was queued at."""
        vtime = max(self.vtime_of(key), self.vtime_now - self.max_lag_us)
        self._vtime[key] = vtime
        heapq.heappush(self._heap, (vtime, self._seq, key, payload))
        self._seq += 1
        return vtime

    def pop(self) -> Optional[Tuple[int, Any]]:
        """The minimum-``(vtime, seq)`` entry as ``(key, payload)``, or
        ``None`` when empty."""
        if not self._heap:
            return None
        _vtime, _seq, key, payload = heapq.heappop(self._heap)
        return key, payload


class ScxNestPolicy(NestCore):
    """scx_nest placement: warm-core masks + global vtime queue + timers."""

    #: The mask walk plus the vtime bookkeeping sit in front of CFS —
    #: comparable to Nest's added selection code, a touch cheaper (no
    #: attachment history check).
    selection_cost_us = 2

    def __init__(self, params: NestParams = DEFAULT_PARAMS) -> None:
        super().__init__(params)
        self._queue = GlobalVtimeQueue()
        #: Per-cpu compaction-timer token: present iff a timer is armed;
        #: the value pairs a generation with the arm time so superseded
        #: or disarmed timers become no-ops when they fire.
        self._armed: Dict[int, Tuple[int, int]] = {}
        self._arm_gen = 0
        #: Cores with a pending 0-delay vtime-pull event.
        self._pull_pending: Set[int] = set()
        m = self.metrics
        self._c_placements = m.counter("placements")
        self._c_primary = m.counter("primary_hits")
        self._c_reserve = m.counter("reserve_hits")
        self._c_cfs = m.counter("cfs_fallbacks")
        self._c_impatient = m.counter("impatient_placements")
        self._c_expand = m.counter("expansions")
        self._c_arm = m.counter("compact_arms")
        self._c_compact = m.counter("compactions")
        self._c_cancel = m.counter("compact_cancels")
        self._c_enq = m.counter("vtime_enqueues")
        self._c_pull = m.counter("vtime_pulls")

    @property
    def name(self) -> str:
        return "Scxnest"

    def check_invariants(self) -> None:
        """Tier accounting adds up, no timer or queue outcome outnumbers
        its cause, and the masks obey §3.1."""
        c = self.metrics.counters()
        hits = c["primary_hits"] + c["reserve_hits"] + c["cfs_fallbacks"]
        if hits != c["placements"]:
            raise AssertionError(
                f"scxnest counter inconsistency: primary({c['primary_hits']})"
                f" + reserve({c['reserve_hits']})"
                f" + cfs({c['cfs_fallbacks']}) = {hits}"
                f" != placements({c['placements']})")
        if c["impatient_placements"] > c["cfs_fallbacks"]:
            raise AssertionError(
                f"scxnest counter inconsistency: impatient placements"
                f"({c['impatient_placements']}) exceed cfs fallbacks"
                f"({c['cfs_fallbacks']})")
        if c["expansions"] > c["impatient_placements"]:
            raise AssertionError(
                f"scxnest counter inconsistency: expansions"
                f"({c['expansions']}) exceed impatient placements"
                f"({c['impatient_placements']})")
        if c["compactions"] + c["compact_cancels"] > c["compact_arms"]:
            raise AssertionError(
                f"scxnest counter inconsistency: compactions"
                f"({c['compactions']}) + cancels({c['compact_cancels']}) "
                f"exceed arms({c['compact_arms']})")
        if c["vtime_pulls"] > c["vtime_enqueues"]:
            raise AssertionError(
                f"scxnest counter inconsistency: vtime pulls"
                f"({c['vtime_pulls']}) exceed enqueues"
                f"({c['vtime_enqueues']})")
        self._masks.check()

    # ------------------------------------------------------------------
    # Selection entry points
    # ------------------------------------------------------------------

    def select_cpu_fork(self, task: Task, parent_cpu: int) -> int:
        return self._select(task, start=parent_cpu, is_fork=True)

    def select_cpu_wakeup(self, task: Task, waker_cpu: int) -> int:
        start = task.prev_cpu if task.prev_cpu is not None else waker_cpu
        return self._select(task, start=start, is_fork=False,
                            waker_cpu=waker_cpu)

    def _select(self, task: Task, start: int, is_fork: bool,
                waker_cpu: Optional[int] = None) -> int:
        p = self.params
        self._c_placements.value += 1
        obs = self._obs
        examined = 0

        impatient = (p.impatience_enabled and not is_fork
                     and task.impatience >= p.r_impatient)

        if not impatient:
            # The previous core is always tried first; no compaction on
            # the way (demotions are the timers' job).
            cpu, examined = self._scan_primary(
                start, None if is_fork else task.prev_cpu, None)
            if cpu is not None:
                self._c_primary.value += 1
                task.impatience = 0
                self._finish_placement(task, cpu, examined)
                if obs.enabled:
                    obs.emit(self.kernel.engine.now, oev.PLACE_PRIMARY,
                             cpu=cpu, task=task.tid, value=examined)
                return cpu
            if p.reserve_enabled:
                cpu, n = self._scan_reserve(start, start)
                examined += n
                if cpu is not None:
                    self._masks.promote(cpu)
                    self._c_reserve.value += 1
                    if not is_fork:
                        task.impatience += 1
                    self._finish_placement(task, cpu, examined)
                    if obs.enabled:
                        now = self.kernel.engine.now
                        obs.emit(now, oev.PLACE_RESERVE, cpu=cpu,
                                 task=task.tid, value=examined)
                        obs.emit(now, oev.NEST_PROMOTE, cpu=cpu,
                                 task=task.tid,
                                 value=len(self._masks.primary))
                    return cpu

        # Global-queue fallback: stock CFS chooses, fairness is settled by
        # the vtime queue (the task enters it if the pick is busy).
        self._c_cfs.value += 1
        if is_fork:
            cpu = self._cfs.select_cpu_fork(task, start)
        else:
            cpu = self._cfs.select_cpu_wakeup(
                task, waker_cpu if waker_cpu is not None else start)

        if impatient:
            # scx_nest's r_impatient rule: the pick is promoted straight
            # into the primary mask and the impatience counter resets.
            self._c_impatient.value += 1
            task.impatience = 0
            if obs.enabled:
                obs.emit(self.kernel.engine.now, oev.PLACE_IMPATIENT,
                         cpu=cpu, task=task.tid, value=examined)
            if cpu not in self._masks.primary:
                self._masks.expand(cpu)
                self._c_expand.value += 1
                if obs.enabled:
                    obs.emit(self.kernel.engine.now, oev.NEST_EXPAND,
                             cpu=cpu, task=task.tid,
                             value=len(self._masks.primary))
        else:
            if not is_fork:
                task.impatience += 1
            self._masks.admit_reserve(cpu)
            if obs.enabled:
                obs.emit(self.kernel.engine.now, oev.PLACE_CFS, cpu=cpu,
                         task=task.tid, value=examined)
        self._finish_placement(task, cpu, examined)
        return cpu

    def _finish_placement(self, task: Task, cpu: int, examined: int) -> None:
        """Per-placement instrumentation plus the vtime bookkeeping."""
        self._h_search.observe(examined)
        self._h_size.observe(len(self._masks.primary))
        self._queue.charge(task.tid)
        if not self.kernel.cpu_is_idle(cpu):
            # The pick is busy: the task waits its turn in the global
            # queue, from which idling cores pull in vtime order.
            self._queue.push(task.tid, (task, cpu))
            self._c_enq.value += 1

    # ------------------------------------------------------------------
    # Idle-path hooks: vtime pulls and compaction timers
    # ------------------------------------------------------------------

    def on_exit_idle(self, cpu: int) -> None:
        """A task exited and ``cpu`` scheduled to idle: pull the fairest
        waiting task from the global queue (deferred one engine step so
        the exit path finishes first), and arm the compaction timer."""
        kernel = self.kernel
        if not kernel.cpu_online[cpu]:
            return
        self._request_pull(cpu)
        if self.params.compaction_enabled and cpu in self._masks.primary \
                and cpu not in self._armed:
            self._arm_compaction(cpu)

    def on_tick(self, cpu: int, freq_mhz: int) -> None:
        """scx_nest drives dispatch from a periodic timer: a busy tick
        with global-queue entries prods one idle core to pull, covering
        the cross-die imbalances the kernel's same-die newidle balance
        never reaches."""
        if not len(self._queue):
            return
        kernel = self.kernel
        for idle_cpu in range(kernel.topology.n_cpus):
            if idle_cpu not in self._pull_pending \
                    and kernel.cpu_online[idle_cpu] \
                    and kernel.cpu_is_idle(idle_cpu):
                self._request_pull(idle_cpu)
                return

    def _request_pull(self, cpu: int) -> None:
        if len(self._queue) and cpu not in self._pull_pending:
            self._pull_pending.add(cpu)
            self.kernel.engine.after(0, EventKind.BALANCE,
                                     self._pull_fired, (cpu,))

    def _pull_fired(self, cpu: int) -> None:
        """Consume global-queue entries in (vtime, seq) order until one
        still describes a waiting task, then migrate it here."""
        self._pull_pending.discard(cpu)
        kernel = self.kernel
        if not kernel.cpu_online[cpu] or not kernel.cpu_is_idle(cpu):
            return
        if self.params.placement_flag \
                and kernel.rqs[cpu].placement_pending > 0:
            return
        while True:
            entry = self._queue.pop()
            if entry is None:
                return
            _tid, payload = entry
            task, src = payload
            if task.state is not TaskState.RUNNABLE or src == cpu:
                continue   # stale: the task ran, or is already ours
            if not kernel.rqs[src].remove(task):
                continue   # stale: no longer queued where we left it
            self._c_pull.value += 1
            if self._obs.enabled:
                self._obs.emit(kernel.engine.now, oev.SCXNEST_VTIME_PULL,
                               cpu=cpu, task=task.tid, value=src)
            kernel._migrate_queued(task, src, cpu)
            return

    def _arm_compaction(self, cpu: int) -> None:
        delay = self._compact_delay_us()
        self._arm_gen += 1
        now = self.kernel.engine.now
        self._armed[cpu] = (self._arm_gen, now)
        self._c_arm.value += 1
        if self._obs.enabled:
            self._obs.emit(now, oev.SCXNEST_COMPACT_ARM, cpu=cpu,
                           value=delay)
        self.kernel.engine.after(delay, EventKind.PREEMPT,
                                 self._compaction_fired,
                                 (cpu, self._arm_gen))

    def _compact_delay_us(self) -> int:
        return max(1, int(self.params.p_remove_ticks * TICK_US))

    def _compaction_fired(self, cpu: int, gen: int) -> None:
        """Demote the core if it sat untouched since arming; a reused
        core cancels (and re-arms while it is idle again)."""
        token = self._armed.get(cpu)
        if token is None or token[0] != gen:
            return    # disarmed (hotplug) or superseded by a newer timer
        arm_time = token[1]
        del self._armed[cpu]
        kernel = self.kernel
        if not kernel.cpu_online[cpu] or cpu not in self._masks.primary:
            return    # evicted while the timer was in flight
        if kernel.cpu_last_used(cpu) > arm_time:
            # The core did work since arming: compaction is off, and the
            # timer re-arms if the core is sitting idle again.
            self._c_cancel.value += 1
            if self._obs.enabled:
                self._obs.emit(kernel.engine.now,
                               oev.SCXNEST_COMPACT_CANCEL, cpu=cpu)
            if self.params.compaction_enabled and kernel.cpu_is_idle(cpu):
                self._arm_compaction(cpu)
            return
        self._demote(cpu, oev.NEST_COMPACT)

    def _forget_cpu(self, cpu: int) -> None:
        """Hotplug disarms the core's compaction timer."""
        self._armed.pop(cpu, None)
