"""The fast simulation backend: SoA state tables + fused hot paths.

This module is the second engine behind ``--engine {ref,fast}``.  Every
class here is a *transliteration* of its reference counterpart: same
arithmetic, in the same order, on the same float/int objects, scheduling
the same events with the same sequence numbers — so a run through the
fast stack is bit-identical to the reference stack (enforced by
``verify fuzz`` running every scenario through both, and by
``tests/test_fastengine_parity.py``).

Where the speed comes from:

* :class:`FastEngine` — the run loop and ``after()`` inline the event
  queue (no ``EventQueue.pop``/``schedule`` call per event) and only
  touch the clock when the timestamp actually advances, batching all
  same-time events under one time update;
* :class:`FastRunQueue` / :class:`FastKernel` — every hot mutator
  dual-writes the object attribute *and* the flat SoA column
  (:mod:`repro.kernel.soa`), and the hot readers (placement scans,
  pricing, ticks) use ``col[cpu]`` integer indexing instead of
  attribute chains; PELT updates and event cancellation are inlined;
* :class:`FastFreqModel` — the DVFS target computation fuses the
  governor's request into the sweep (schedutil's utilisation math runs
  inline on the SoA columns) instead of calling through the governor
  object per hardware thread;
* :class:`FastCfsPolicy` / :class:`FastNestPolicy` — the §2.1/§3
  placement scans read only SoA columns; the bounded any-idle scan goes
  through :meth:`EngineState.first_idle`, which the numpy state
  vectorises on wide spans.

The bit-identity rules this file obeys (see DESIGN.md):

* every ``after()``/``cancel()``/``rearm()`` of the reference is
  preserved — each schedule or re-arm consumes a sequence number that
  decides same-time ties — and the inlined pop re-keys re-armed heap
  entries exactly as :meth:`EventQueue.pop` does;
* obs events and metric increments happen at the same points, in the
  same order;
* ``min``/``max``/division stay the exact builtin operations of the
  reference (no inverse-multiply, no reordered accumulation);
* the decay-factor memo is shared with the reference module, keyed and
  cleared identically.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional

from ..core.nest import NestPolicy
from ..core.params import DEFAULT_PARAMS, NestParams
from ..governors.base import Governor
from ..governors.performance import PerformanceGovernor
from ..governors.schedutil import HEADROOM, SchedutilGovernor
from ..hw.energy import EnergyMeter
from ..hw.freqmodel import FreqModel
from ..kernel.pelt import _DECAY_CACHE, decay_factor
from ..kernel.runqueue import SLEEPER_BONUS_US, RunQueue
from ..kernel.scheduler_core import Kernel, KernelConfig
from ..kernel.soa import make_state
from ..kernel.syscalls import (BarrierWait, Compute, Exit, Fork, Recv, Send,
                               Sleep, WaitChildren, WaitTask, Yield)
from ..kernel.task import BlockReason, TaskState
from ..obs import events as oev
from ..sched.base import SelectionPolicy
from ..sched.cfs import WAKEUP_SCAN_LIMIT, CfsPolicy, _rotate
from ..sched.smove import SmovePolicy
from ..sim.clock import TICK_US
from ..sim.engine import Engine, SimulationError
from ..sim.events import Event, EventKind

# Module-level aliases: one global load instead of an attribute chain in
# the inlined PELT updates.  _DECAY_CACHE is cleared in place by
# decay_factor (never rebound), so the alias stays valid.
_DC = _DECAY_CACHE
_df = decay_factor

# IntEnum members *are* ints: they can sit in the heap tuples directly
# and compare at C level against the ints the reference queue stores.
_EK_COMPLETION = EventKind.COMPLETION
_EK_IO = EventKind.IO
_EK_FREQ = EventKind.FREQ
_EK_TICK = EventKind.TICK
_EK_BALANCE = EventKind.BALANCE
_EK_FORK = EventKind.FORK

_EXITED = TaskState.EXITED


class FastEngine(Engine):
    """Engine with the event loop and ``after()`` inlined.

    Behaviourally identical to :class:`Engine`: same events, same
    sequence numbers, same stop reasons, same ``events_processed``.
    """

    def after(
        self,
        delay: int,
        kind: EventKind,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
    ) -> Event:
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        q = self.queue
        seq = q._seq
        q._seq = seq + 1
        t = self.clock.now + delay
        ev = Event(t, kind, seq, callback, args)
        heappush(q._heap, (t, kind, seq, ev))
        q._live += 1
        return ev

    def run(self, until: Optional[int] = None,
            max_events: int = 200_000_000) -> int:
        self._stopped = False
        self._stop_reason = None
        queue = self.queue
        heap = queue._heap
        clock = self.clock
        processed = 0
        pop = heappop
        while not self._stopped:
            if until is not None:
                nxt = queue.peek_time()
                if nxt is None or nxt > until:
                    clock.advance_to(max(until, clock.now))
                    self.now = clock.now
                    self._stop_reason = "until"
                    break
            ev = None
            while heap:
                entry = pop(heap)
                e = entry[3]
                if e.cancelled:
                    continue
                if e.seq != entry[2]:        # re-armed later: re-key
                    heappush(heap, (e.time, entry[1], e.seq, e))
                    continue
                queue._live -= 1
                ev = e
                break
            if ev is None:
                self._stop_reason = "drained"
                break
            t = ev.time
            if t != clock.now:
                # Same monotonicity guarantee as Clock.advance_to; all
                # events at one timestamp batch under a single update.
                if t < clock.now:
                    raise ValueError(
                        f"clock moving backwards: {t} < {clock.now}")
                clock.now = t
            self.now = t
            ev.callback(*ev.args)
            processed += 1
            if processed >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; possible livelock")
        self.events_processed += processed
        return clock.now


class FastRunQueue(RunQueue):
    """RunQueue that dual-writes the SoA ``nr_queued``/vruntime columns."""

    __slots__ = ("_nrq_col", "_vr_col")

    def __init__(self, cpu: int, now: int, state) -> None:
        RunQueue.__init__(self, cpu, now)
        self._nrq_col = state.nr_queued
        self._vr_col = state.t_vruntime

    def push(self, task) -> None:
        tid = task.tid
        if tid in self._queued:
            raise RuntimeError(f"{task} already queued on cpu {self.cpu}")
        vr = task.vruntime
        clamp = self.min_vruntime - SLEEPER_BONUS_US
        if vr < clamp:
            vr = clamp
            task.vruntime = vr
            self._vr_col[tid] = vr
        heappush(self._heap, (vr, self._seq, task))
        self._seq += 1
        self._queued.add(tid)
        n = self.nr_queued + 1
        self.nr_queued = n
        self._nrq_col[self.cpu] = n

    def pop(self):
        heap = self._heap
        queued = self._queued
        while heap:
            vr, _, task = heappop(heap)
            if task.tid in queued:
                queued.discard(task.tid)
                n = self.nr_queued - 1
                self.nr_queued = n
                self._nrq_col[self.cpu] = n
                if vr > self.min_vruntime:
                    self.min_vruntime = vr
                return task
        return None

    def remove(self, task) -> bool:
        if task.tid in self._queued:
            self._queued.discard(task.tid)
            n = self.nr_queued - 1
            self.nr_queued = n
            self._nrq_col[self.cpu] = n
            return True
        return False

    def steal_one(self):
        task = RunQueue.steal_one(self)
        if task is not None:
            self._nrq_col[self.cpu] = self.nr_queued
        return task


class FastFreqModel(FreqModel):
    """FreqModel with flattened PM params and the governor fused in.

    The per-core ``mhz`` lives in the ``_CoreState`` objects (shared
    with every un-overridden reader) *and* in the SoA ``core_mhz``
    column; every mutation point syncs the column before firing
    listeners, because the fast kernel's re-pricing reads the column.
    """

    def __init__(self, engine, topology, turbo, pm, governor,
                 machine, kernel, state) -> None:
        FreqModel.__init__(self, engine, topology, turbo, pm, governor)
        self._queue = engine.queue
        self._col_mhz = state.core_mhz
        self._ramp_up_step = pm.ramp_up_step_mhz
        self._ramp_interval = pm.ramp_interval_us
        self._decay_step = pm.decay_step_mhz
        self._decay_interval = pm.decay_interval_us
        self._idle_hold = pm.idle_hold_us
        self._turbo_latency = pm.turbo_latency_us
        self._gap_forgiveness = pm.gap_forgiveness_us
        self._instant_pstate = pm.instant_pstate
        self._autonomous_boost = pm.autonomous_boost
        self._cores_per_socket = topology.cores_per_socket
        # Governor fusion: the stock governors are plain functions of
        # machine constants and runqueue state, so their request/floor
        # math runs inline.  Unknown governor subclasses fall back to
        # the generic method-call path (mode 0).
        self._machine_min = machine.min_mhz
        self._max_turbo = machine.max_turbo_mhz
        self._nominal = machine.nominal_mhz
        #: Precomputed ``HEADROOM * max_turbo`` — same left-assoc
        #: grouping as the reference ``HEADROOM * max_turbo * util``.
        self._hdr_turbo = HEADROOM * machine.max_turbo_mhz
        if type(governor) is SchedutilGovernor:
            self._gov_mode = 2
        elif type(governor) is PerformanceGovernor:
            self._gov_mode = 1
        else:
            self._gov_mode = 0
        self._obs_log = engine.obs
        self._kernel_cpus = kernel.cpus
        self._kernel_rqs = kernel.rqs
        self._c_busy_val = state.busy_val
        self._c_busy_ts = state.busy_ts
        self._c_busy_now = state.busy_now

    # ---- fused schedutil request (bit-identical transliteration) ------

    def _sched_request(self, cpu: int, now: int) -> int:
        """``SchedutilGovernor.request_mhz`` inlined over the SoA columns."""
        v = self._c_busy_val[cpu]
        delta = now - self._c_busy_ts[cpu]
        if delta > 0:
            if self._c_busy_now[cpu]:
                y = _DC.get(delta)
                if y is None:
                    y = _df(delta)
                v = v * y + 1024 * (1.0 - y)
            elif v != 0.0:
                y = _DC.get(delta)
                if y is None:
                    y = _df(delta)
                v *= y
        est = 0.0
        current = self._kernel_cpus[cpu].current
        if current is not None:
            p = current.pelt
            pv = p.value
            pd = now - p.last_update_us
            if pd > 0:
                y = _DC.get(pd)
                if y is None:
                    y = _df(pd)
                pv = pv * y + 1024 * (1.0 - y)
            ue = current.util_est
            est = ue if ue >= pv else pv
        rq = self._kernel_rqs[cpu]
        queued = rq._queued
        if queued:
            for item in rq._heap:
                t = item[2]
                if t.tid in queued:
                    est += t.util_est
        m = min(1024, est)
        util = v if m <= v else m
        f = self._hdr_turbo * util / 1024
        mhz = int(f)
        if mhz > self._max_turbo:
            mhz = self._max_turbo
        if mhz < self._machine_min:
            mhz = self._machine_min
        obs = self._obs_log
        if obs.enabled:
            obs.emit(now, oev.FREQ_REQUEST, cpu=cpu, value=mhz)
        return mhz

    # ---- target computation and ramping --------------------------------

    def _target_mhz(self, pc: int, now: int) -> int:
        st = self._cores[pc]
        if st.active_threads == 0 and st.spinning_threads == 0:
            return self._min_mhz
        ceiling = self._ceiling_by_active[
            self._socket_active[self._socket_of_pc[pc]]]
        sustained = (st.active_since is not None
                     and now - st.active_since >= self._turbo_latency)
        if sustained and self._autonomous_boost:
            target = ceiling
        else:
            if not sustained and self._presustain_cap_mhz < ceiling:
                ceiling = self._presustain_cap_mhz
            mode = self._gov_mode
            if mode == 2:
                request = 0
                for t in self._siblings_of_pc[pc]:
                    r = self._sched_request(t, now)
                    if r > request:
                        request = r
                floor = self._machine_min
            elif mode == 1:
                request = self._max_turbo
                floor = self._nominal
            else:
                request = 0
                floor = self._min_mhz
                governor = self.governor
                for t in self._siblings_of_pc[pc]:
                    r = governor.request_mhz(t)
                    if r > request:
                        request = r
                    f = governor.floor_mhz(t)
                    if f > floor:
                        floor = f
            target = min(ceiling, max(request, floor))
        if st.spinning_threads > 0 and st.active_threads == 0:
            target = min(ceiling, max(target, st.mhz))
        target = max(target, self._min_mhz)
        cap = self._thermal_cap[pc]
        if cap is not None and target > cap:
            target = cap
        return target

    def set_thread_state(self, cpu: int, busy: bool, spinning: bool) -> None:
        if busy and spinning:
            raise ValueError("a thread cannot be busy and spinning")
        pc = self._pc_of[cpu]
        st = self._cores[pc]
        was_active = st.active_threads > 0 or st.spinning_threads > 0
        prev = self._thread_state
        old_busy, old_spin = prev[cpu]
        if old_busy:
            st.active_threads -= 1
        if old_spin:
            st.spinning_threads -= 1
        if busy:
            st.active_threads += 1
        if spinning:
            st.spinning_threads += 1
        prev[cpu] = (busy, spinning)

        now = self.engine.now
        active = st.active_threads > 0 or st.spinning_threads > 0
        if active and not was_active:
            if (st.idle_since is not None
                    and st.prev_active_since is not None
                    and now - st.idle_since <= self._gap_forgiveness):
                st.active_since = st.prev_active_since
            else:
                st.active_since = now
            st.idle_since = None
            socket = self._socket_of_pc[pc]
            self._socket_active[socket] += 1
            if self._instant_pstate:
                jump = self._target_mhz(pc, now)
            else:
                mode = self._gov_mode
                if mode == 2:
                    jump = self._machine_min
                elif mode == 1:
                    jump = self._nominal
                else:
                    jump = max(self.governor.floor_mhz(t)
                               for t in self._siblings_of_pc[pc])
                cap = self._thermal_cap[pc]
                if cap is not None and jump > cap:
                    jump = cap
            if st.mhz < jump:
                st.mhz = jump
                self._col_mhz[pc] = jump
                for fn in self._listeners:
                    fn(pc, jump)
            self._reevaluate_socket(socket)
        elif was_active and not active:
            st.prev_active_since = st.active_since
            st.active_since = None
            st.idle_since = now
            socket = self._socket_of_pc[pc]
            self._socket_active[socket] -= 1
            self._reevaluate_socket(socket)
        else:
            self._reevaluate(pc)

    def _reevaluate_socket(self, socket: int) -> None:
        cps = self._cores_per_socket
        base = socket * cps
        cores = self._cores
        min_mhz = self._min_mhz
        for pc in range(base, base + cps):
            st = cores[pc]
            if (st.active_threads == 0 and st.spinning_threads == 0
                    and st.step_event is None and st.mhz == min_mhz):
                continue
            self._reevaluate(pc)

    def _reevaluate(self, pc: int) -> None:
        st = self._cores[pc]
        ev = st.step_event
        if (st.active_threads == 0 and st.spinning_threads == 0
                and ev is None and st.mhz == self._min_mhz):
            return
        now = self.engine.now
        target = self._target_mhz(pc, now)
        delay = None
        if target == st.mhz:
            if (st.active_threads > 0 or st.spinning_threads > 0) \
                    and self._turbo_latency > 0 \
                    and st.active_since is not None:
                remaining = self._turbo_latency - (now - st.active_since)
                if remaining > 0:
                    delay = remaining
        elif target > st.mhz:
            delay = self._ramp_interval
        else:
            delay = self._decay_interval
            if st.idle_since is not None:
                held = now - st.idle_since
                if held < self._idle_hold:
                    delay = self._idle_hold - held
        if delay is None:
            if ev is not None:
                if not ev.cancelled:         # inline engine.cancel
                    ev.cancelled = True
                    self._queue._live -= 1
                st.step_event = None
        elif ev is None:
            st.step_event = self.engine.after(
                delay, _EK_FREQ, self._step, (pc,))
        else:
            st.step_event = self._queue.rearm(ev, now + delay)

    def _step(self, pc: int) -> None:
        st = self._cores[pc]
        st.step_event = None
        now = self.engine.now
        target = self._target_mhz(pc, now)
        mhz = st.mhz
        if target > mhz:
            new = mhz + self._ramp_up_step
            if new > target:
                new = target
        elif target < mhz:
            new = mhz - self._decay_step
            if new < target:
                new = target
        else:
            new = mhz
        if new != mhz:
            st.mhz = new
            self._col_mhz[pc] = new
            for fn in self._listeners:
                fn(pc, new)
        self._reevaluate(pc)

    # ---- cold mutators: keep the column in sync before listeners fire --

    def set_thermal_cap(self, physical_core: int,
                        mhz: Optional[int]) -> None:
        if mhz is not None:
            mhz = max(int(mhz), self._min_mhz)
        self._thermal_cap[physical_core] = mhz
        st = self._cores[physical_core]
        if mhz is not None and st.mhz > mhz:
            st.mhz = mhz
            self._col_mhz[physical_core] = mhz
            for fn in self._listeners:
                fn(physical_core, mhz)
        self._reevaluate(physical_core)

    def force_freq(self, physical_core: int, mhz: int) -> None:
        st = self._cores[physical_core]
        if st.mhz != mhz:
            st.mhz = mhz
            self._col_mhz[physical_core] = mhz
            for fn in self._listeners:
                fn(physical_core, mhz)
        self._reevaluate(physical_core)


class FastEnergyMeter(EnergyMeter):
    """Energy meter with the power summation loop de-chained.

    Same additions in the same order as :meth:`EnergyMeter._compute_power`
    (the cross-socket running total is float-order observable), but with
    the per-iteration attribute chains hoisted to locals.  ``m > vmax``
    replaces ``max(vmax, m)`` — identical for ints — and the dynamic-power
    term keeps the reference's left-associated ``c_dyn * f * v * v``.
    """

    def _compute_power(self) -> float:
        p = self.params
        topo = self.topology
        active = self._core_active
        mhz = self._core_mhz
        uncore = p.uncore_watts
        static = p.core_static_watts
        idle = p.core_idle_watts
        c_dyn = p.c_dyn
        v0 = p.v0
        v_slope = p.v_slope
        total = 0.0
        cps = topo.cores_per_socket
        base = 0
        for _socket in range(topo.n_sockets):
            total += uncore
            end = base + cps
            vmax_mhz = 0
            for pc in range(base, end):
                if active[pc]:
                    m = mhz[pc]
                    if m > vmax_mhz:
                        vmax_mhz = m
            v = v0 + v_slope * (vmax_mhz / 1000.0)
            for pc in range(base, end):
                if active[pc]:
                    total += static + c_dyn * (mhz[pc] / 1000.0) * v * v
                else:
                    total += idle
            base = end
        return total


class FastKernel(Kernel):
    """Kernel with SoA dual-writes and inlined hot paths.

    Construction order matters: the SoA tables and the flattened
    ``die_of`` map are created *before* ``Kernel.__init__`` because the
    fast policies bind (and capture column references) during it.
    """

    def __init__(self, engine, machine, policy, governor, config=None,
                 tracer=None, energy=None, use_numpy=None) -> None:
        topo = machine.topology
        self.state = make_state(topo.n_cpus, topo.n_physical_cores,
                                now=engine.now, min_mhz=machine.min_mhz,
                                use_numpy=use_numpy)
        self.die_of = tuple(topo.die_of(c) for c in range(topo.n_cpus))
        if energy is None:
            energy = FastEnergyMeter(topo)
        Kernel.__init__(self, engine, machine, policy, governor,
                        config=config, tracer=tracer, energy=energy)
        s = self.state
        # The online column aliases the kernel's hotplug list: bools are
        # ints, so hotplug writes are visible to every column reader.
        s.online = self.cpu_online
        self._queue = engine.queue
        self._die_span = tuple(self.domains.die_span(c)
                               for c in range(topo.n_cpus))
        self._c_nrq = s.nr_queued
        self._c_running = s.running
        self._c_pending = s.pending
        self._c_last_busy = s.last_busy
        self._c_busy_val = s.busy_val
        self._c_busy_ts = s.busy_ts
        self._c_busy_now = s.busy_now
        self._c_blocked_val = s.blocked_val
        self._c_blocked_ts = s.blocked_ts
        self._c_mhz = s.core_mhz
        self._c_tvr = s.t_vruntime
        self._c_tpv = s.t_pelt_val
        self._c_tpts = s.t_pelt_ts
        self._c_trem = s.t_remaining
        cfg = self.config
        self._ctx_cost = cfg.context_switch_us
        self._idle_wake = cfg.idle_wake_cost_us
        self._smt_factor = cfg.smt_contention_factor
        self._placement_delay = cfg.placement_delay_us
        self._newidle = cfg.newidle_balance
        # No-op hook elision: skipping a call whose body is the empty
        # base-class default is bit-identical.
        self._gov_on_tick = type(governor).on_tick is not Governor.on_tick
        self._gov_on_act = (type(governor).on_activity_change
                            is not Governor.on_activity_change)
        self._pol_on_tick = (type(policy).on_tick
                             is not SelectionPolicy.on_tick)

    # ---- engine-facing factories ---------------------------------------

    def _make_runqueue(self, cpu: int, now: int):
        return FastRunQueue(cpu, now, self.state)

    def _make_freqmodel(self, engine, machine, governor):
        return FastFreqModel(engine, self.topology, machine.turbo,
                             machine.pm, governor, machine=machine,
                             kernel=self, state=self.state)

    # ---- task creation --------------------------------------------------

    def _new_task(self, behaviour, name, parent, args=()):
        task = Kernel._new_task(self, behaviour, name, parent, args=args)
        row = self.state.add_task(self.engine.now)
        if row != task.tid:
            raise SimulationError("SoA task rows out of sync with tids")
        return task

    # ---- enqueue / preemption -------------------------------------------

    def enqueue(self, task, cpu: int) -> None:
        now = self.engine.now
        st = task.state
        if st is TaskState.RUNNING or st is TaskState.RUNNABLE:
            raise SimulationError(f"enqueue of already-runnable {task}")
        if task.prev_cpu is not None and task.prev_cpu != cpu:
            task.n_migrations += 1
        task.state = TaskState.RUNNABLE
        task.block_reason = BlockReason.NONE
        task.enqueued_us = now
        p = task.pelt                     # inline pelt.update(now, False)
        delta = now - p.last_update_us
        if delta > 0:
            v = p.value
            if v != 0.0:
                y = _DC.get(delta)
                if y is None:
                    y = _df(delta)
                p.value = v * y
            p.last_update_us = now
            tid = task.tid
            self._c_tpv[tid] = p.value
            self._c_tpts[tid] = now
        n_run = self.n_runnable + 1       # inline _runnable_delta(+1)
        self.n_runnable = n_run
        for fn in self.runnable_observers:
            fn(now, n_run)

        cs = self.cpus[cpu]
        if cs.spinning:
            self._stop_spin(cpu)
        if cs.current is not None:
            self._account_current(cpu)
        self.rqs[cpu].push(task)
        self.policy.on_enqueue(task, cpu)
        if cs.current is None:
            self._schedule(cpu)
        else:
            self._maybe_preempt(cpu, task)

    # ---- the dispatcher -------------------------------------------------

    def _run_task(self, cpu: int, task) -> bool:
        now = self.engine.now
        cs = self.cpus[cpu]
        rq = self.rqs[cpu]
        deep_idle = (not cs.spinning
                     and now - rq.last_busy_us > self._idle_wake)
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
        if task.exec_start_us is None:
            task.exec_start_us = now
        cs.current = task
        self._c_running[cpu] = 1
        cs.stint_start = now
        cs.vr_last_update = now
        rq.nr_switches += 1

        self._set_thread_activity(cpu, busy=True)
        self.tracer.begin(cpu, now, self._c_mhz[self.pc_of[cpu]], task.tid)
        self._start_tick(cpu)

        switch_cost = self._ctx_cost
        if deep_idle:
            switch_cost += self._idle_wake
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
            return False

    def _price_completion(self, cpu: int, task, extra_us: int = 0) -> None:
        now = self.engine.now
        rate = float(self._c_mhz[self.pc_of[cpu]])
        sib = self.sibling_of[cpu]
        if sib != cpu and self.cpus[sib].current is not None:
            rate *= self._smt_factor
        if rate <= 0:
            raise SimulationError("zero frequency")
        task.run_start_us = now
        task.run_freq_mhz = rate
        remaining_us = task.remaining_cycles / rate
        delay = max(1, int(remaining_us + 0.999999)) + extra_us
        task.completion_event = self.engine.after(
            delay, _EK_COMPLETION, self._on_completion, (task,))

    def _reprice_running(self, cpu: int) -> None:
        task = self.cpus[cpu].current
        if task is None or task.completion_event is None:
            return
        now = self.engine.now
        elapsed = now - task.run_start_us
        consumed = elapsed * task.run_freq_mhz
        rem = task.remaining_cycles
        executed = rem if rem <= consumed else consumed
        rem -= executed
        task.remaining_cycles = rem
        task.total_cycles += executed
        self._c_trem[task.tid] = rem
        ev = task.completion_event
        if not ev.cancelled:                 # inline engine.cancel
            ev.cancelled = True
            self._queue._live -= 1
        self._price_completion(cpu, task)

    def _on_completion(self, task) -> None:
        cpu = task.cpu
        if cpu is None or task.state is not TaskState.RUNNING:
            raise SimulationError(f"completion for non-running {task}")
        task.completion_event = None
        now = self.engine.now
        task.total_cycles += task.remaining_cycles
        task.remaining_cycles = 0.0
        self._c_trem[task.tid] = 0.0
        self._account_current(cpu)

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
                self.policy.on_exit_idle(cpu)
                return
            raise SimulationError(f"unknown outcome {outcome}")

    # ---- behaviour interpretation ---------------------------------------

    def _advance(self, task) -> str:
        send = task.generator.send
        after = self.engine.after
        while True:
            try:
                action = send(task.resume_value)
            except StopIteration:
                self._exit_task(task)
                return "exited"
            task.resume_value = None

            if isinstance(action, Compute):
                if action.cycles <= 0:
                    continue
                rem = float(action.cycles)
                task.remaining_cycles = rem
                self._c_trem[task.tid] = rem
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
                task.sleep_event = after(
                    action.us, _EK_IO, self._timer_wake, (task,))
                return "blocked"

            if isinstance(action, WaitChildren):
                # task.live_children builds a list over every child; an
                # early-exit scan for one live child decides identically.
                for c in task.children:
                    if c.state is not _EXITED:
                        self._block(task, BlockReason.CHILDREN)
                        return "blocked"
                continue

            if isinstance(action, WaitTask):
                target = action.task
                if target.state is not _EXITED:
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

    def _exit_task(self, task) -> None:
        cpu = task.cpu
        if cpu is not None:
            self._stop_running(cpu, task)
            self._runnable_delta(-1)
        task.state = _EXITED
        task.exited_us = self.engine.now
        self.n_live -= 1
        if task.deadline_us is not None and not task.rt_killed:
            self._rt_on_exit(task)

        parent = task.parent
        if parent is not None and parent.state is TaskState.BLOCKED:
            if parent.block_reason is BlockReason.CHILDREN:
                for c in parent.children:
                    if c.state is not _EXITED:
                        break
                else:
                    self._place_wakeup(parent, cpu if cpu is not None else 0)
        waiter = task.waited_by
        if waiter is not None and waiter.state is TaskState.BLOCKED \
                and waiter.block_reason is BlockReason.TASK \
                and waiter.waiting_for is task:
            waiter.waiting_for = None
            self._place_wakeup(waiter, cpu if cpu is not None else 0)

        if self.n_live == 0 and self.stop_when_idle:
            self.engine.stop("workload-complete")

    # ---- blocking and accounting ----------------------------------------

    def _block(self, task, reason) -> None:
        cpu = task.cpu
        if cpu is None:
            raise SimulationError(f"block of off-cpu {task}")
        self._stop_running(cpu, task)
        task.util_est = task.pelt.value
        task.state = (TaskState.SLEEPING if reason is BlockReason.TIMER
                      else TaskState.BLOCKED)
        task.block_reason = reason
        now = self.engine.now
        n_run = self.n_runnable - 1       # inline _runnable_delta(-1)
        self.n_runnable = n_run
        for fn in self.runnable_observers:
            fn(now, n_run)
        bl = self.rqs[cpu].blocked_load   # inline update(now, False) + add
        delta = now - bl.last_update_us
        if delta > 0:
            v = bl.value
            if v != 0.0:
                y = _DC.get(delta)
                if y is None:
                    y = _df(delta)
                bl.value = v * y
            bl.last_update_us = now
        bl.value = min(1024, bl.value + task.pelt.value * 0.5)
        self._c_blocked_val[cpu] = bl.value
        self._c_blocked_ts[cpu] = bl.last_update_us

    def _stop_running(self, cpu: int, task) -> None:
        now = self.engine.now
        cs = self.cpus[cpu]
        if cs.current is not task:
            raise SimulationError(f"{task} is not current on cpu {cpu}")
        self._account_current(cpu)
        ev = task.completion_event
        if ev is not None:
            elapsed = now - task.run_start_us
            consumed = elapsed * task.run_freq_mhz
            rem = task.remaining_cycles
            executed = rem if rem <= consumed else consumed
            rem -= executed
            task.remaining_cycles = rem
            task.total_cycles += executed
            self._c_trem[task.tid] = rem
            if not ev.cancelled:             # inline engine.cancel
                ev.cancelled = True
                self._queue._live -= 1
            task.completion_event = None
        task.total_runtime_us += now - cs.stint_start
        task.prev_cpu = cpu
        task.cpu = None
        task.last_ran_us = now
        cs.current = None
        self._c_running[cpu] = 0
        self._set_thread_activity(cpu, busy=False)
        self.tracer.end(cpu, now)
        self.rqs[cpu].last_busy_us = now
        self._c_last_busy[cpu] = now

    def _account_current(self, cpu: int) -> None:
        cs = self.cpus[cpu]
        curr = cs.current
        now = self.engine.now
        if curr is None:
            return
        tid = curr.tid
        delta = now - cs.vr_last_update
        if delta > 0:
            vr = curr.vruntime + delta
            curr.vruntime = vr
            self._c_tvr[tid] = vr
            cs.vr_last_update = now
            rq = self.rqs[cpu]
            if vr > rq.min_vruntime:
                rq.min_vruntime = vr
        p = curr.pelt                     # inline pelt.update(now, True)
        pd = now - p.last_update_us
        if pd > 0:
            y = _DC.get(pd)
            if y is None:
                y = _df(pd)
            v = p.value * y + 1024 * (1.0 - y)
            p.value = v
            p.last_update_us = now
            self._c_tpv[tid] = v
            self._c_tpts[tid] = now

    # ---- activity / frequency plumbing ----------------------------------

    def _set_thread_activity(self, cpu: int, busy: bool,
                             spinning: bool = False) -> None:
        now = self.engine.now
        rq = self.rqs[cpu]
        a = rq.busy_avg          # inline busy_avg.update(now, currently_busy)
        delta = now - a.last_update_us
        if delta > 0:
            v = a.value
            if rq.currently_busy:
                y = _DC.get(delta)
                if y is None:
                    y = _df(delta)
                a.value = v * y + 1024 * (1.0 - y)
            elif v != 0.0:
                y = _DC.get(delta)
                if y is None:
                    y = _df(delta)
                a.value = v * y
            a.last_update_us = now
            self._c_busy_val[cpu] = a.value
            self._c_busy_ts[cpu] = now
        rq.currently_busy = busy
        self._c_busy_now[cpu] = 1 if busy else 0
        freq = self.freq
        freq.set_thread_state(cpu, busy, spinning)
        pc = self.pc_of[cpu]
        cst = freq._cores[pc]
        self.energy.set_core_active(
            pc, cst.active_threads > 0 or cst.spinning_threads > 0, now)
        if self._gov_on_act:
            self.governor.on_activity_change(cpu)
        freq._reevaluate(pc)       # == notify_request_change(cpu)
        sib = self.sibling_of[cpu]
        if sib != cpu:
            if busy and self.cpus[sib].spinning:
                self._stop_spin(sib)
            self._reprice_running(sib)

    # ---- ticks -----------------------------------------------------------

    def _start_tick(self, cpu: int) -> None:
        cs = self.cpus[cpu]
        if cs.tick_event is None:
            jit = self.tick_jitter
            period = TICK_US if jit is None else max(1, TICK_US + jit())
            cs.tick_event = self.engine.after(
                period, _EK_TICK, self._tick, (cpu,))

    def _tick(self, cpu: int) -> None:
        cs = self.cpus[cpu]
        cs.tick_event = None
        curr = cs.current
        if curr is None:
            return
        self._account_current(cpu)
        if self._gov_on_tick:
            self.governor.on_tick(cpu)
        pc = self.pc_of[cpu]
        self.freq._reevaluate(pc)  # == notify_request_change(cpu)
        if self._pol_on_tick:
            self.policy.on_tick(cpu, self._c_mhz[pc])

        rq = self.rqs[cpu]
        if rq.nr_queued > 0:
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
        jit = self.tick_jitter
        period = TICK_US if jit is None else max(1, TICK_US + jit())
        cs.tick_event = self.engine.after(
            period, _EK_TICK, self._tick, (cpu,))

    def _nohz_kick(self, busy_cpu: int) -> None:
        if not self._newidle:
            return
        online = self.cpu_online
        running = self._c_running
        nrq = self._c_nrq
        pend = self._c_pending
        for c in self._die_span[busy_cpu]:
            if c != busy_cpu and online[c] and not running[c] \
                    and not nrq[c] and not pend[c]:
                self.engine.after(1, _EK_BALANCE, self._idle_pull, (c,))
                return

    # ---- load balancing --------------------------------------------------

    def _newidle_pull(self, cpu: int):
        nrq = self._c_nrq
        best = -1
        best_n = 0
        for other in self._die_span[cpu]:
            if other == cpu:
                continue
            n = nrq[other]
            if n > best_n:
                best, best_n = other, n
        if best < 0 or best_n < 1:
            return None
        task = self.rqs[best].steal_one()
        if task is None:
            return None
        task.n_migrations += 1
        if self.obs.enabled:
            self.obs.emit(self.engine.now, oev.SCHED_MIGRATE, cpu=cpu,
                          task=task.tid, value=best)
        return task

    # ---- placement -------------------------------------------------------

    def _commit_placement(self, task, cpu: int, kind) -> None:
        if not self.cpu_online[cpu]:
            cpu = self.least_loaded_online(cpu)
            self.metrics.counter("fault_placement_redirects").value += 1
        rq = self.rqs[cpu]
        n = rq.placement_pending + 1
        rq.placement_pending = n
        self._c_pending[cpu] = n
        hist = task.core_history          # inline record_core
        hist[1] = hist[0]
        hist[0] = cpu
        if self.obs.enabled:
            self.obs.emit(self.engine.now,
                          oev.SCHED_FORK if kind is _EK_FORK
                          else oev.SCHED_WAKEUP, cpu=cpu, task=task.tid)
        delay = self._placement_delay + self.policy.selection_cost_us
        self.engine.after(delay, kind, self._enqueue_placed, (task, cpu))

    def _enqueue_placed(self, task, cpu: int) -> None:
        rq = self.rqs[cpu]
        n = rq.placement_pending - 1
        rq.placement_pending = n
        self._c_pending[cpu] = n
        if task.state is _EXITED:
            # Destroyed by a core failure while the placement was in
            # flight: the enqueue lands on a corpse and is dropped.
            return
        if not self.cpu_online[cpu]:
            cpu = self.least_loaded_online(cpu)
            task.record_core(cpu)
            self.metrics.counter("fault_placement_redirects").value += 1
        self.enqueue(task, cpu)

    # ---- column-backed queries ------------------------------------------

    def nr_running(self, cpu: int) -> int:
        return self._c_nrq[cpu] + self._c_running[cpu]

    def cpu_is_idle(self, cpu: int) -> bool:
        return (self.cpu_online[cpu] and self._c_running[cpu] == 0
                and self._c_nrq[cpu] == 0)

    def cpu_last_used(self, cpu: int) -> int:
        if self._c_running[cpu]:
            return self.engine.now
        return self._c_last_busy[cpu]

    # ---- faults ----------------------------------------------------------

    def slow_running_task(self, cpu: int, factor: float) -> bool:
        changed = Kernel.slow_running_task(self, cpu, factor)
        if changed:
            task = self.cpus[cpu].current
            self._c_trem[task.tid] = task.remaining_cycles
        return changed


class FastCfsPolicy(CfsPolicy):
    """CFS placement over the SoA columns.

    Every helper below is the reference body with ``kernel.rqs[c].attr``
    chains replaced by column reads.  ``_search_any_idle`` goes through
    :meth:`EngineState.first_idle`, which is where the optional numpy
    layer vectorises wide scans.
    """

    def on_bind(self) -> None:
        self._bind_fast()

    def _bind_fast(self) -> None:
        """Capture column references; also used by wrapping policies whose
        ``on_bind`` assigns ``self._cfs.kernel`` directly."""
        k = self.kernel
        s = k.state
        self._state = s
        self._online = k.cpu_online
        self._running = s.running
        self._nrq = s.nr_queued
        self._pending = s.pending
        self._busy_val = s.busy_val
        self._busy_ts = s.busy_ts
        self._busy_now = s.busy_now
        self._blocked_val = s.blocked_val
        self._blocked_ts = s.blocked_ts
        self._die_of = k.die_of
        self._la_memo = None

    @property
    def name(self) -> str:
        # Results and metric prefixes must match the reference engine's.
        return "CfsPolicy"

    def select_cpu_fork(self, task, parent_cpu: int) -> int:
        # The domain walk recomputes a cpu's load once per hierarchy
        # level.  Nothing mutates between those reads (the walk is pure),
        # so memoising per placement returns the identical floats.
        self._la_memo = memo = {}
        try:
            return CfsPolicy.select_cpu_fork(self, task, parent_cpu)
        finally:
            self._la_memo = None
            memo.clear()

    def _load_avg(self, cpu: int, now: int) -> float:
        """``RunQueue.load_avg`` fused over the columns."""
        memo = self._la_memo
        if memo is not None:
            cached = memo.get(cpu)
            if cached is not None:
                return cached
        v = self._busy_val[cpu]
        delta = now - self._busy_ts[cpu]
        if delta > 0:
            if self._busy_now[cpu]:
                y = _DC.get(delta)
                if y is None:
                    y = _df(delta)
                v = v * y + 1024 * (1.0 - y)
            elif v != 0.0:
                y = _DC.get(delta)
                if y is None:
                    y = _df(delta)
                v = v * y
        bv = self._blocked_val[cpu]
        if bv != 0.0:
            d2 = now - self._blocked_ts[cpu]
            if d2 > 0:
                y = _DC.get(d2)
                if y is None:
                    y = _df(d2)
                bv = bv * y
        load = v + bv
        if memo is not None:
            memo[cpu] = load
        return load

    def _find_idlest_group(self, groups, current_cpu: int):
        now = self.kernel.engine.now
        online = self._online
        running = self._running
        nrq = self._nrq
        load_avg = self._load_avg
        local = None
        best = None
        best_key = None
        for group in groups:
            if current_cpu in group:
                local = group
                continue
            idle_cpus = 0
            nr_run = 0
            load = 0.0
            n_online = 0
            for c in group:
                if not online[c]:
                    continue
                n_online += 1
                q = nrq[c]
                if not running[c]:
                    if q == 0:
                        idle_cpus += 1
                    nr_run += q
                else:
                    nr_run += q + 1
                load += load_avg(c, now)
            if n_online == 0:
                continue    # hotplugged-out group: not a placement target
            key = (-idle_cpus, nr_run, int(load / 32.0))
            if best_key is None or key < best_key:
                best, best_key = group, key
        if local is None:
            return best
        if best is None:
            return local
        local_idle = 0
        for c in local:
            if online[c] and not running[c] and nrq[c] == 0:
                local_idle += 1
        if local_idle >= -best_key[0]:
            return local
        return best

    def _find_idlest_cpu(self, group, from_cpu: int) -> int:
        kernel = self.kernel
        now = kernel.engine.now
        online = self._online
        running = self._running
        nrq = self._nrq
        pend = self._pending
        load_avg = self._load_avg
        check_pending = self.check_pending_default
        best = None
        best_key = None
        for rank, c in enumerate(_rotate(group, from_cpu)):
            if not online[c]:
                continue
            q = nrq[c]
            busy = running[c]
            if not busy and q == 0 \
                    and not (check_pending and pend[c] > 0):
                key = (0, 0, int(load_avg(c, now) / 32.0), rank)
            else:
                key = (1, q + (1 if busy else 0),
                       int(load_avg(c, now) / 32.0), rank)
            if best_key is None or key < best_key:
                best, best_key = c, key
        if best is None:
            return kernel.least_loaded_online(from_cpu)
        return best

    def _wake_affine(self, task, prev: int, waker: int) -> int:
        kernel = self.kernel
        online = self._online
        if not online[prev]:
            return waker if online[waker] \
                else kernel.least_loaded_online(waker)
        if not online[waker]:
            return prev
        if prev == waker:
            return prev
        now = kernel.engine.now
        running = self._running
        nrq = self._nrq
        die_of = self._die_of
        if not running[waker] and nrq[waker] == 0 \
                and die_of[prev] == die_of[waker]:
            if not running[prev] and nrq[prev] == 0:
                return prev
            return waker
        this_load = self._load_avg(waker, now) + task.util_est
        prev_load = self._load_avg(prev, now)
        if this_load * 1.17 < prev_load:
            return waker
        return prev

    def _usable_idle(self, cpu: int, check_pending: bool) -> bool:
        if not self._online[cpu]:
            return False
        if self._running[cpu] or self._nrq[cpu] != 0:
            return False
        if check_pending and self._pending[cpu] > 0:
            return False
        return True

    def _search_idle_core(self, die, target: int, check_pending: bool):
        kernel = self.kernel
        pc_of = kernel.pc_of
        siblings_of = kernel.smt_siblings_of
        online = self._online
        running = self._running
        nrq = self._nrq
        pend = self._pending
        seen_cores = set()
        for c in _rotate(tuple(die), target):
            pc = pc_of[c]
            if pc in seen_cores:
                continue
            seen_cores.add(pc)
            sibs = siblings_of[c]
            all_idle = True
            for s in sibs:
                if not online[s] or running[s] or nrq[s] \
                        or (check_pending and pend[s] > 0):
                    all_idle = False
                    break
            if all_idle:
                return min(sibs)
        return None

    def _search_any_idle(self, die, target: int, check_pending: bool,
                         unbounded: bool = False):
        ordered = _rotate(tuple(die), target)
        limit = None if unbounded else WAKEUP_SCAN_LIMIT
        c = self._state.first_idle(ordered, check_pending, limit)
        return None if c < 0 else c


class FastNestPolicy(NestPolicy):
    """Nest placement with column-fused idle checks and searches."""

    def __init__(self, params: NestParams = DEFAULT_PARAMS) -> None:
        super().__init__(params)
        self._cfs = FastCfsPolicy()

    def on_bind(self) -> None:
        NestPolicy.on_bind(self)
        self._cfs._bind_fast()
        k = self.kernel
        s = k.state
        self._online = k.cpu_online
        self._running = s.running
        self._nrq = s.nr_queued
        self._pending = s.pending
        self._last_busy = s.last_busy
        self._die_of = k.die_of
        self._check_flag = self.params.placement_flag

    def _idle(self, cpu: int) -> bool:
        if not (self._online[cpu] and self._running[cpu] == 0
                and self._nrq[cpu] == 0):
            return False
        if self._check_flag and self._pending[cpu] > 0:
            return False
        return True

    def _search_primary(self, start: int, task, is_fork: bool):
        primary = self.primary
        if not primary:
            return None, 0
        p = self.params
        now = self.kernel.engine.now
        stale_cutoff_us = int(p.p_remove_ticks * TICK_US)

        die_of = self._die_of
        start_die = die_of[start]
        same_die = [c for c in primary if die_of[c] == start_die]
        other = [c for c in primary if die_of[c] != start_die]
        candidates = list(_rotate(tuple(same_die), start)) + sorted(other)

        prefer = []
        if p.prev_core_first and not is_fork and task.prev_cpu is not None \
                and task.prev_cpu in primary:
            prefer = [task.prev_cpu]

        online = self._online
        running = self._running
        nrq = self._nrq
        pend = self._pending
        check_flag = self._check_flag
        last_busy = self._last_busy
        compaction = p.compaction_enabled
        examined = 0
        for cpu in prefer + candidates:
            examined += 1
            if not online[cpu] or running[cpu] or nrq[cpu] \
                    or (check_flag and pend[cpu] > 0):
                continue
            if compaction and cpu not in prefer:
                # The cpu is idle (running column is 0), so the reference's
                # cpu_last_used(cpu) is exactly the last_busy column.
                idle_for = now - last_busy[cpu]
                if idle_for >= stale_cutoff_us:
                    self._demote(cpu)
                    continue
            return cpu, examined
        return None, examined

    def _search_reserve(self, start: int):
        reserve = self.reserve
        if not reserve:
            return None, 0
        home = self.home_cpu if self.home_cpu is not None else start
        die_of = self._die_of
        start_die = die_of[start]
        same_die = [c for c in reserve if die_of[c] == start_die]
        other = [c for c in reserve if die_of[c] != start_die]
        online = self._online
        running = self._running
        nrq = self._nrq
        pend = self._pending
        check_flag = self._check_flag
        examined = 0
        for cpu in list(_rotate(tuple(same_die), home)) \
                + list(_rotate(tuple(other), home)):
            examined += 1
            if online[cpu] and not running[cpu] and not nrq[cpu] \
                    and not (check_flag and pend[cpu] > 0):
                return cpu, examined
        return None, examined


class FastSmovePolicy(SmovePolicy):
    """S_move with the fused CFS fallback."""

    def __init__(self, move_delay_us: int = 50) -> None:
        super().__init__(move_delay_us)
        self._cfs = FastCfsPolicy()

    def on_bind(self) -> None:
        SmovePolicy.on_bind(self)
        self._cfs._bind_fast()


#: Schedulers with a bit-identical fast-engine variant, derived from the
#: policy registry (an entry is fast iff it registered a
#: ``fast_factory``).  Anything else (FT-RT, scx_nest) must run on the
#: reference engine; the differential harness keys off this tuple when
#: deciding whether a scenario is parity-checkable.
from ..sched.registry import fast_scheduler_names, make_registered_fast_policy

FAST_SCHEDULERS = fast_scheduler_names()


def make_fast_policy(name: str, nest_params=None):
    """Instantiate the fast variant of a selection policy by short name.

    Registry entries without a fast factory refuse with the standard
    declared-refusal error (sched/registry.py)."""
    return make_registered_fast_policy(name, nest_params)
