"""Per-core DVFS model.

Frequency is a property of the *physical core* (both hyperthreads run at the
same frequency, as on Intel).  The frequency of a core is decided by the
hardware within governor-supplied bounds (§2.3 of the paper):

* the ceiling is the socket's turbo limit given the number of active physical
  cores on the socket (Table 3), further capped by the governor's request
  (schedutil requests track utilisation; performance requests the full range
  with a floor at the nominal frequency);
* the hardware *ramps* toward the target rather than jumping: Speed Shift
  hardware (Skylake/Cascade Lake) ramps quickly, Enhanced SpeedStep
  (Broadwell E7-8870 v4) ramps slowly and drops out of turbo quickly when it
  observes gaps in the computation — the behaviour §5.2 calls the machine
  being "prone to using subturbo frequencies";
* an idle core holds its frequency for a short grace period and then decays
  stepwise to the minimum.  A core whose idle loop is *spinning* (Nest's
  ``S_max`` warm-core mechanism) counts as active and keeps its frequency.

This model is what makes task placement matter: a task placed on a long-idle
core starts at the minimum frequency and pays the ramp latency, while a task
placed on a just-vacated warm core starts fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional

from ..sim.engine import Engine
from ..sim.events import Event, EventKind
from .topology import Topology
from .turbo import TurboTable

if TYPE_CHECKING:  # pragma: no cover
    from ..governors.base import Governor


@dataclass(frozen=True)
class PMParams:
    """Power-management personality of a microarchitecture.

    The pivotal behaviour is the *sustained-activity boost*: hardware grants
    the full per-count turbo ceiling only to cores that have been active for
    ``turbo_latency_us`` without a gap longer than ``gap_forgiveness_us``.
    Before that, an active core is capped at ``presustain_cap`` (the all-core
    turbo on Speed Shift parts, the nominal frequency on Broadwell) and runs
    at whatever the governor requests below the cap.  This is why short
    tasks scattered onto long-idle cores never reach the high turbo range,
    while a compact, continuously-warm nest does — the causal core of the
    paper.
    """

    name: str
    ramp_up_step_mhz: int       # frequency gained per ramp interval
    ramp_interval_us: int       # time between upward ramp steps
    decay_step_mhz: int         # frequency lost per decay interval when idle
    decay_interval_us: int      # time between downward steps
    idle_hold_us: int           # grace period before an idle core decays
    turbo_latency_us: int       # sustained activity needed for full turbo
    gap_forgiveness_us: int     # idle gaps shorter than this keep "sustained"
    presustain_cap: str         # "allcore" or "nominal"
    #: Speed Shift hardware programs the computed P-state on the wakeup path
    #: (transitions take tens of µs); SpeedStep only honours the governor's
    #: floor immediately and ramps toward anything above it.
    instant_pstate: bool = True
    #: HWP parts autonomously drive a sustained-active core to the full
    #: turbo budget regardless of the governor's hint.  Pre-HWP SpeedStep
    #: always follows the OS request — sustained activity merely unlocks the
    #: turbo *range* — which is why utilisation-gated schedutil leaves the
    #: E7-8870 v4 at low frequencies whenever tasks pause (§5.3).
    autonomous_boost: bool = True

    def __post_init__(self) -> None:
        if self.presustain_cap not in ("allcore", "nominal"):
            raise ValueError("presustain_cap must be 'allcore' or 'nominal'")


#: Intel Speed Shift (HWP): fast ramp, quick autonomous boost of busy cores
#: (Skylake 6130, Cascade Lake 5218/5220).
SPEED_SHIFT = PMParams(
    name="Intel Speed Shift",
    ramp_up_step_mhz=700,
    ramp_interval_us=500,
    decay_step_mhz=700,
    decay_interval_us=1_000,
    idle_hold_us=3_000,
    turbo_latency_us=8_000,
    gap_forgiveness_us=500,
    presustain_cap="allcore",
)

#: Enhanced Intel SpeedStep (Broadwell E7-8870 v4): slow ramp, quick decay,
#: long sustained activity required, and gaps in the computation drop the
#: core back to sub-turbo (§5.2: the machine is "prone to using subturbo
#: frequencies" whenever there are gaps).
SPEED_STEP = PMParams(
    name="Enhanced Intel SpeedStep",
    ramp_up_step_mhz=250,
    ramp_interval_us=1_000,
    decay_step_mhz=500,
    decay_interval_us=500,
    idle_hold_us=400,
    turbo_latency_us=15_000,
    gap_forgiveness_us=500,
    presustain_cap="nominal",
    instant_pstate=False,
    autonomous_boost=False,
)

#: AMD Precision Boost (Ryzen 4650G): fast, HWP-like.
AMD_BOOST = PMParams(
    name="AMD Precision Boost",
    ramp_up_step_mhz=800,
    ramp_interval_us=400,
    decay_step_mhz=800,
    decay_interval_us=1_000,
    idle_hold_us=3_000,
    turbo_latency_us=6_000,
    gap_forgiveness_us=2_000,
    presustain_cap="allcore",
)


#: Callback signature for frequency transitions: (physical_core, new_mhz).
FreqListener = Callable[[int, int], None]


class _CoreState:
    """Mutable DVFS state of one physical core."""

    __slots__ = ("mhz", "active_threads", "spinning_threads", "active_since",
                 "idle_since", "step_event", "prev_active_since")

    def __init__(self, mhz: int) -> None:
        self.mhz = mhz
        self.active_threads = 0        # hw threads running a task
        self.spinning_threads = 0      # hw threads in the spinning idle loop
        self.active_since: Optional[int] = None
        self.idle_since: Optional[int] = 0
        self.step_event: Optional[Event] = None
        self.prev_active_since: Optional[int] = None  # for gap forgiveness


class FreqModel:
    """Tracks and evolves per-physical-core frequencies."""

    def __init__(
        self,
        engine: Engine,
        topology: Topology,
        turbo: TurboTable,
        pm: PMParams,
        governor: "Governor",
    ) -> None:
        self.engine = engine
        self.topology = topology
        self.turbo = turbo
        self.pm = pm
        self.governor = governor
        # The PM personality is immutable: bind its fields once rather
        # than reading them through ``self.pm`` on every re-pricing.
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
        self._listeners: List[FreqListener] = []
        self._cores = [_CoreState(turbo.min_mhz)
                       for _ in range(topology.n_physical_cores)]
        self._socket_active = [0] * topology.n_sockets
        #: Per socket, a bitmask of its active cores, kept in step with
        #: ``_socket_active``; ``_bit_of_pc`` is each core's bit in it.
        self._active_mask = [0] * topology.n_sockets
        #: Per socket, a bitmask of its cores with a ramp step pending:
        #: a core's bit is set exactly when its ``step_event`` is not None.
        self._armed_mask = [0] * topology.n_sockets
        self._bit_of_pc = tuple(1 << (pc % topology.cores_per_socket)
                                for pc in range(topology.n_physical_cores))
        self._thread_state: List[tuple[bool, bool]] = \
            [(False, False)] * topology.n_cpus
        # Memoized lookups for the hot re-pricing paths: topology maps are
        # immutable per machine and the turbo table is a pure function of
        # the active-core count, so flatten them once.
        self._min_mhz = turbo.min_mhz
        self._pc_of = tuple(topology.physical_core_of(c)
                            for c in range(topology.n_cpus))
        self._socket_of_pc = tuple(pc // topology.cores_per_socket
                                   for pc in range(topology.n_physical_cores))
        self._siblings_of_pc = tuple(topology.smt_siblings(pc)
                                     for pc in range(topology.n_physical_cores))
        self._ceiling_by_active = tuple(
            turbo.ceiling(k) for k in range(topology.cores_per_socket + 1))
        if pm.presustain_cap == "allcore":
            cap = turbo.limits[-1]
        else:
            cap = turbo.nominal_mhz
        self._presustain_cap_mhz = max(cap, turbo.nominal_mhz)
        #: Thermal caps injected by faults/ (None = uncapped).  A cap
        #: clamps the target below everything else the model computes,
        #: like a firmware thermal limit.
        self._thermal_cap: List[Optional[int]] = \
            [None] * topology.n_physical_cores

    # ---- public queries -----------------------------------------------

    def add_listener(self, fn: FreqListener) -> None:
        self._listeners.append(fn)

    def freq_mhz(self, cpu: int) -> int:
        """Current frequency of the physical core containing hw thread cpu."""
        return self._cores[self._pc_of[cpu]].mhz

    def core_freq_mhz(self, physical_core: int) -> int:
        return self._cores[physical_core].mhz

    def active_physical_cores(self, socket: int) -> int:
        return self._socket_active[socket]

    # ---- state transitions ----------------------------------------------

    def set_thread_state(self, cpu: int, busy: bool, spinning: bool) -> bool:
        """Report the activity of one hardware thread.

        ``busy`` means a task is running; ``spinning`` means the idle loop is
        spinning to keep the core warm.  At most one of them may be True.
        Returns whether the thread's physical core is now active (running
        or spinning on any of its threads), which the kernel mirrors into
        the energy meter.
        """
        if busy and spinning:
            raise ValueError("a thread cannot be busy and spinning")
        pc = self._pc_of[cpu]
        st = self._cores[pc]
        was_active = st.active_threads > 0 or st.spinning_threads > 0

        # The caller gives absolute state, so subtract the previous
        # contribution of this thread before adding the new one.
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
            # Gap forgiveness: a brief idle interruption does not reset the
            # hardware's sustained-activity observation.
            if (st.idle_since is not None
                    and st.prev_active_since is not None
                    and now - st.idle_since <= self._gap_forgiveness):
                st.active_since = st.prev_active_since
            else:
                st.active_since = now
            st.idle_since = None
            socket = self._socket_of_pc[pc]
            self._socket_active[socket] += 1
            self._active_mask[socket] |= self._bit_of_pc[pc]
            # A waking core exits its idle state directly at the governor's
            # floor P-state (the performance governor's guarantee).  Speed
            # Shift hardware programs the full computed P-state on the
            # wakeup path, so there is no slow climb out of idle at all.
            if self._instant_pstate:
                jump = self._target_mhz(pc, now)
            else:
                jump = max(self.governor.floor_mhz(t)
                           for t in self._siblings_of_pc[pc])
                cap = self._thermal_cap[pc]
                if cap is not None and jump > cap:
                    jump = cap
            if st.mhz < jump:
                st.mhz = jump
                for fn in self._listeners:
                    fn(pc, jump)
            # On Speed Shift the jump *is* the core's target: nothing it
            # reads changed since, so the re-evaluation reuses it.
            self._reevaluate_socket(
                socket, pc, jump if self._instant_pstate else None)
        elif was_active and not active:
            st.prev_active_since = st.active_since
            st.active_since = None
            st.idle_since = now
            socket = self._socket_of_pc[pc]
            self._socket_active[socket] -= 1
            self._active_mask[socket] &= ~self._bit_of_pc[pc]
            self._reevaluate_socket(socket, pc)
        else:
            self._reevaluate(pc)
        return active

    def thread_state(self, cpu: int) -> tuple[bool, bool]:
        """(busy, spinning) state last reported for hardware thread ``cpu``."""
        return self._thread_state[cpu]

    def notify_request_change(self, cpu: int) -> None:
        """Governor request for ``cpu`` may have changed; re-evaluate."""
        self._reevaluate(self._pc_of[cpu])

    def set_thermal_cap(self, physical_core: int,
                        mhz: Optional[int]) -> None:
        """Clamp (or, with ``None``, unclamp) a core below ``mhz``.

        Installed by the fault injector.  Like a firmware thermal limit the
        clamp-down is immediate — running tasks are re-priced through the
        listener — while recovery after the cap lifts follows the normal
        ramp intervals.
        """
        if mhz is not None:
            mhz = max(int(mhz), self._min_mhz)
        self._thermal_cap[physical_core] = mhz
        st = self._cores[physical_core]
        if mhz is not None and st.mhz > mhz:
            st.mhz = mhz
            for fn in self._listeners:
                fn(physical_core, mhz)
        self._reevaluate(physical_core)

    def thermal_cap(self, physical_core: int) -> Optional[int]:
        return self._thermal_cap[physical_core]

    # ---- target computation and ramping -----------------------------------

    def _target_mhz(self, pc: int, now: int) -> int:
        st = self._cores[pc]
        if st.active_threads == 0 and st.spinning_threads == 0:
            return self._min_mhz
        ceiling = self._ceiling_by_active[
            self._socket_active[self._socket_of_pc[pc]]]
        sustained = (st.active_since is not None
                     and now - st.active_since >= self._turbo_latency)
        if sustained and self._autonomous_boost:
            # HWP autonomous boost: the hardware drives a continuously-
            # active core to its full turbo budget, whatever the governor
            # hints.
            target = ceiling
        else:
            if not sustained:
                if self._presustain_cap_mhz < ceiling:
                    ceiling = self._presustain_cap_mhz
            # Governor bounds, evaluated over the core's hw threads: the
            # hardware honours the strongest request on the core.
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
        # A spinning idle loop looks 100%-active to the hardware, which
        # therefore holds the frequency even if the governor's request sinks
        # (Nest's warm-core mechanism, §3.2).
        if st.spinning_threads > 0 and st.active_threads == 0:
            target = min(ceiling, max(target, st.mhz))
        target = max(target, self._min_mhz)
        cap = self._thermal_cap[pc]
        if cap is not None and target > cap:
            target = cap
        return target

    def _reevaluate_socket(self, socket: int, changed: int,
                           target: Optional[int] = None) -> None:
        """Re-price a socket's cores after its active-core count changed.

        The socket-mates go first, in ascending order, and the ``changed``
        core goes last, exactly once (with ``target`` if the caller has
        already computed it): its ramp step then holds the newest sequence
        number, which orders its same-time ``freq.step`` after theirs.

        Re-pricing is lazy.  A socket-mate with a ramp step pending is
        skipped: the step re-reads the target when it fires, and a
        re-evaluation could only keep it or move it earlier.  A settled
        idle core (inactive, at the minimum frequency) is skipped too: its
        target is the minimum whatever the active-core count.  The mates
        left are the ones with no step pending, such as sustained cores
        whose turbo ceiling just moved.

        Only active mates can be left: an idle core above the minimum
        always has a step pending (DESIGN.md §4).  So the walk visits
        ``active & ~armed & ~changed``, lowest bit first, where ``armed``
        is the socket's mask of cores with a step pending.  Re-pricing a
        mate arms or drops only that mate's step, so the mask taken at
        the start names the mates a per-core check would have re-priced.
        """
        base = socket * self._cores_per_socket
        mask = (self._active_mask[socket] & ~self._armed_mask[socket]
                & ~self._bit_of_pc[changed])
        while mask:
            low = mask & -mask
            mask ^= low
            self._reevaluate(base + low.bit_length() - 1)
        self._reevaluate(changed, target)

    def _reevaluate(self, pc: int, target: Optional[int] = None) -> None:
        """Recompute the target and arm (or drop) the next ramp step.

        A caller that has just computed the core's target at this instant
        passes it as ``target``; stepping the core's frequency toward that
        target in between leaves it unchanged.

        A pending step may move earlier, never later: it is kept when it
        falls due at or before ``now + delay``, since it re-reads the
        target when it fires.  Moving it later on every re-pricing would
        starve it on a busy socket, where activity changes come faster
        than ramp intervals.  An earlier step is a cancel plus a fresh
        ``after``, which consumes one sequence number.
        """
        st = self._cores[pc]
        ev = st.step_event
        if (st.active_threads == 0 and st.spinning_threads == 0
                and ev is None and st.mhz == self._min_mhz):
            return    # settled idle core: target == mhz == min
        now = self.engine.now
        if target is None:
            target = self._target_mhz(pc, now)
        delay = None
        if target == st.mhz:
            # If turbo reluctance is still capping us, wake up when it lifts.
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
                self.engine.cancel(ev)
                st.step_event = None
                self._armed_mask[self._socket_of_pc[pc]] &= \
                    ~self._bit_of_pc[pc]
        elif ev is None or ev.time > now + delay:
            if ev is not None:
                self.engine.cancel(ev)
            else:
                self._armed_mask[self._socket_of_pc[pc]] |= \
                    self._bit_of_pc[pc]
            st.step_event = self.engine.after(
                delay, EventKind.FREQ, self._step, (pc,))

    def _step(self, pc: int) -> None:
        """One ramp step: move the frequency toward the current target."""
        st = self._cores[pc]
        st.step_event = None
        self._armed_mask[self._socket_of_pc[pc]] &= ~self._bit_of_pc[pc]
        now = self.engine.now
        target = self._target_mhz(pc, now)
        if target > st.mhz:
            new = min(st.mhz + self._ramp_up_step, target)
        elif target < st.mhz and (st.idle_since is None
                                  or now - st.idle_since >= self._idle_hold):
            new = max(st.mhz - self._decay_step, target)
        else:
            # At the target, or idle and still within the hold: a step
            # armed before the core went idle does not cut the hold short,
            # and the re-evaluation below re-arms it for the hold's end.
            new = st.mhz
        if new != st.mhz:
            st.mhz = new
            for fn in self._listeners:
                fn(pc, new)
        self._reevaluate(pc, target)

    # ---- warm start -----------------------------------------------------

    def force_freq(self, physical_core: int, mhz: int) -> None:
        """Set a core's frequency directly (tests and warm-start)."""
        st = self._cores[physical_core]
        if st.mhz != mhz:
            st.mhz = mhz
            for fn in self._listeners:
                fn(physical_core, mhz)
        self._reevaluate(physical_core)
