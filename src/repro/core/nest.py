"""The Nest scheduling policy (paper §3).

Nest maintains two sets of cores:

* the **primary nest** — cores in use or recently used, searched first;
* the **reserve nest** — cores that left the primary nest or that CFS chose
  recently, bounded at ``R_max`` entries.

The search path on fork/wakeup is primary → reserve → CFS (Figure 1, red
arrows); core movement between the nests follows the blue arrows: reserve
hits are promoted, CFS picks enter the reserve, unused primary cores are
demoted when a task next trips over them (compaction), and a core whose task
exits is demoted immediately.  Impatient tasks (too many previous-core
collisions) skip the primary nest and their chosen core is promoted
directly, growing the nest.  The nests, their scans and the hotplug repair
live in the mask core shared with scx_nest (``sched/nestcore.py``).  See
DESIGN.md for the mapping to the paper.
"""

from __future__ import annotations

from typing import Optional

from ..kernel.task import Task
from ..obs import events as oev
from ..sim.clock import TICK_US
from .params import DEFAULT_PARAMS, NestParams
from ..sched.nestcore import NestCore


class NestPolicy(NestCore):
    """Nest placement wrapping CFS (most of the paper's patch sits in front
    of CFS's core-selection function, §7)."""

    #: Nest adds a block of code to core selection (§3.4/§5.6), so its
    #: per-selection cost is higher than stock CFS.
    selection_cost_us = 3

    def __init__(self, params: NestParams = DEFAULT_PARAMS) -> None:
        super().__init__(params)
        self.home_cpu: Optional[int] = None
        #: Idle time after which the primary scan demotes a core it passes
        #: (§3.1 compaction); None when compaction is ablated.
        self._stale_us = int(params.p_remove_ticks * TICK_US) \
            if params.compaction_enabled else None
        m = self.metrics
        self._c_primary = m.counter("primary_hits")
        self._c_reserve = m.counter("reserve_hits")
        self._c_cfs = m.counter("cfs_fallbacks")
        self._c_attach = m.counter("attachment_hits")
        self._c_compact = m.counter("compactions")
        self._c_exit = m.counter("exit_demotions")
        self._c_impatient = m.counter("impatient_placements")
        self._c_placements = m.counter("placements")

    def check_invariants(self) -> None:
        """Every placement is claimed by exactly one search tier."""
        c = self.metrics.counters()
        hits = (c["attachment_hits"] + c["primary_hits"]
                + c["reserve_hits"] + c["cfs_fallbacks"])
        if hits != c["placements"]:
            raise AssertionError(
                f"nest counter inconsistency: attachment({c['attachment_hits']})"
                f" + primary({c['primary_hits']}) + reserve({c['reserve_hits']})"
                f" + cfs({c['cfs_fallbacks']}) = {hits}"
                f" != placements({c['placements']})")

    @property
    def name(self) -> str:
        return "Nest"

    # ------------------------------------------------------------------
    # Selection entry points
    # ------------------------------------------------------------------

    def select_cpu_fork(self, task: Task, parent_cpu: int) -> int:
        if self.home_cpu is None:
            # The paper starts reserve searches from the core on which the
            # system call that enabled Nest ran.
            self.home_cpu = parent_cpu
        return self._select(task, start=parent_cpu, is_fork=True)

    def select_cpu_wakeup(self, task: Task, waker_cpu: int) -> int:
        start = task.prev_cpu if task.prev_cpu is not None else waker_cpu
        if self.home_cpu is None:
            self.home_cpu = waker_cpu
        if self.params.impatience_enabled and task.prev_cpu is not None:
            if self._idle(task.prev_cpu):
                task.impatience = 0
            else:
                task.impatience += 1
        return self._select(task, start=start, is_fork=False,
                            waker_cpu=waker_cpu)

    # ------------------------------------------------------------------
    # The §3 search
    # ------------------------------------------------------------------

    def _select(self, task: Task, start: int, is_fork: bool,
                waker_cpu: Optional[int] = None) -> int:
        p = self.params
        masks = self._masks
        self._c_placements.value += 1
        obs = self._obs
        examined = 0

        # §3.3: the first choice is always the attached core, if it is in
        # the primary nest and idle — even if it is compaction-eligible.
        if p.attachment_enabled and not is_fork:
            ac = task.attached_core
            if ac is not None and ac in masks.primary and self._idle(ac):
                self._c_attach.value += 1
                task.impatience = 0
                self._finish_placement(0)
                if obs.enabled:
                    obs.emit(self.kernel.engine.now, oev.PLACE_ATTACH,
                             cpu=ac, task=task.tid)
                return ac

        impatient = (p.impatience_enabled
                     and task.impatience >= p.r_impatient and not is_fork)

        if not impatient:
            # §3.3: the previous core is tried first (prev_core_first);
            # stale cores are compacted as the scan passes them.
            prev = task.prev_cpu if p.prev_core_first and not is_fork \
                else None
            cpu, n = self._scan_primary(start, prev, self._stale_us)
            examined += n
            if cpu is not None:
                self._c_primary.value += 1
                self._finish_placement(examined)
                if obs.enabled:
                    obs.emit(self.kernel.engine.now, oev.PLACE_PRIMARY,
                             cpu=cpu, task=task.tid, value=examined)
                return cpu

        if p.reserve_enabled:
            # §3.1: the reserve scan starts from the fixed home core, to
            # limit dispersal.
            cpu, n = self._scan_reserve(
                start, self.home_cpu if self.home_cpu is not None else start)
            examined += n
            if cpu is not None:
                masks.promote(cpu)
                self._c_reserve.value += 1
                if impatient:
                    self._c_impatient.value += 1
                    task.impatience = 0
                self._finish_placement(examined)
                if obs.enabled:
                    now = self.kernel.engine.now
                    kind = oev.PLACE_IMPATIENT if impatient \
                        else oev.PLACE_RESERVE
                    obs.emit(now, kind, cpu=cpu, task=task.tid, value=examined)
                    obs.emit(now, oev.NEST_PROMOTE, cpu=cpu, task=task.tid,
                             value=len(masks.primary))
                return cpu

        # Fall back on CFS (with Nest's §3.4 wakeup work conservation).
        self._c_cfs.value += 1
        if is_fork:
            cpu = self._cfs.select_cpu_fork(task, start)
        else:
            target = self._cfs._wake_affine(
                task, start, waker_cpu if waker_cpu is not None else start)
            cpu = self._cfs.select_idle_sibling(
                target,
                all_dies=p.wakeup_work_conservation,
                check_pending=p.placement_flag)

        if impatient:
            # §3.1: the chosen core joins the primary nest directly, to
            # expand it, and the impatience counter resets.  A core that
            # already was primary stays put, and no nest.expand is logged.
            expand = cpu not in masks.primary
            if expand:
                masks.expand(cpu)
            self._c_impatient.value += 1
            task.impatience = 0
            if obs.enabled:
                now = self.kernel.engine.now
                obs.emit(now, oev.PLACE_IMPATIENT, cpu=cpu, task=task.tid,
                         value=examined)
                if expand:
                    obs.emit(now, oev.NEST_EXPAND, cpu=cpu, task=task.tid,
                             value=len(masks.primary))
        else:
            # A pick outside both nests enters the reserve while it has
            # room; otherwise it joins no nest (§3.1).
            masks.admit_reserve(cpu)
            if obs.enabled:
                obs.emit(self.kernel.engine.now, oev.PLACE_CFS, cpu=cpu,
                         task=task.tid, value=examined)
        self._finish_placement(examined)
        return cpu

    def _finish_placement(self, examined: int) -> None:
        """Per-placement metric observations (search effort, nest size)."""
        self._h_search.observe(examined)
        self._h_size.observe(len(self._masks.primary))

    # ------------------------------------------------------------------
    # Nest maintenance hooks
    # ------------------------------------------------------------------

    def on_exit_idle(self, cpu: int) -> None:
        """§3.1: a task terminated and left the core idle — the core is no
        longer considered useful and is demoted immediately."""
        if cpu in self._masks.primary and self.kernel.cpu_is_idle(cpu):
            self._demote(cpu, oev.NEST_EXIT_DEMOTE)
            self._c_exit.value += 1

    def _forget_cpu(self, cpu: int) -> None:
        if self.home_cpu == cpu:
            # Reserve scans re-anchor on the next placement's cpu.
            self.home_cpu = None

    def spin_ticks(self) -> float:
        return self.params.s_max_ticks if self.params.spin_enabled else 0.0
