"""The S_move scheduler of Gouicem et al. (paper §2.2), as a baseline.

S_move targets *frequency inversion*: a parent forks/wakes a child and
immediately blocks, so the child should inherit the parent's warm core
instead of starting cold.  S_move lets CFS choose a core, and only when that
core's frequency — *as observed at its last clock tick* — is low does it
place the child on the waker's core, arming a timer that migrates the child
to the CFS-chosen core if it has not started running within a brief delay.

The "last clock tick" detail is what the paper uses to explain S_move's weak
results on Speed Shift machines (§5.2): ticks only run on busy cpus, and a
busy cpu on a 6130/5218 is almost always already fast, so the observed
frequency is stale-high for idle cores and the mechanism rarely fires.
The model reproduces this by sampling frequencies only from the tick hook.
"""

from __future__ import annotations

from typing import List, Optional

from ..kernel.task import Task, TaskState
from ..obs.metrics import MetricsRegistry
from ..sim.events import EventKind
from .base import SelectionPolicy
from .cfs import CfsPolicy


class SmovePolicy(SelectionPolicy):
    """S_move placement: CFS plus frequency-gated child-on-waker-core."""

    selection_cost_us = 1

    def __init__(self, move_delay_us: int = 50) -> None:
        super().__init__()
        self.move_delay_us = move_delay_us
        self._cfs = CfsPolicy()
        self._tick_freq: Optional[List[int]] = None
        self.metrics = MetricsRegistry()
        self._c_deferred = self.metrics.counter("deferred_placements")
        self._c_timer = self.metrics.counter("timer_migrations")

    def on_bind(self) -> None:
        self._cfs.kernel = self.kernel
        # Frequency of each cpu as last observed by a scheduler tick.  Ticks
        # only run on busy cpus, so the value is stale for idle cores — and
        # optimistically high, since a core's last tick usually saw it busy
        # and fast.  This staleness is the paper's explanation for S_move
        # barely firing on the 6130/5218 (§5.2).
        self._tick_freq = [self.kernel.machine.max_turbo_mhz] \
            * self.kernel.topology.n_cpus

    @property
    def name(self) -> str:
        return "Smove"

    def on_tick(self, cpu: int, freq_mhz: int) -> None:
        self._tick_freq[cpu] = freq_mhz

    # ------------------------------------------------------------------

    def select_cpu_fork(self, task: Task, parent_cpu: int) -> int:
        cfs_cpu = self._cfs.select_cpu_fork(task, parent_cpu)
        return self._maybe_move(task, cfs_cpu, parent_cpu)

    def select_cpu_wakeup(self, task: Task, waker_cpu: int) -> int:
        cfs_cpu = self._cfs.select_cpu_wakeup(task, waker_cpu)
        return self._maybe_move(task, cfs_cpu, waker_cpu)

    def _maybe_move(self, task: Task, cfs_cpu: int, waker_cpu: int) -> int:
        kernel = self.kernel
        nominal = kernel.machine.nominal_mhz
        observed = self._tick_freq[cfs_cpu]
        if cfs_cpu == waker_cpu or observed >= nominal:
            return cfs_cpu
        waker_freq = self._tick_freq[waker_cpu]
        if waker_freq < nominal:
            return cfs_cpu
        # Defer to the waker's core; arm the migration timer.
        self._c_deferred.value += 1
        kernel.engine.after(self.move_delay_us, EventKind.PREEMPT,
                            self._timer_fired, (task, waker_cpu, cfs_cpu))
        return waker_cpu

    def _timer_fired(self, task: Task, placed_cpu: int, cfs_cpu: int) -> None:
        """Move the task to the CFS-chosen core if it never got to run."""
        if task.state is not TaskState.RUNNABLE:
            return
        if not self.kernel.cpu_online[cfs_cpu]:
            return    # the CFS choice was hotplugged out while the timer ran
        rq = self.kernel.rqs[placed_cpu]
        if rq.remove(task):
            self._c_timer.value += 1
            self.kernel._migrate_queued(task, placed_cpu, cfs_cpu)
