"""The schedutil governor (paper §2.3).

Schedutil couples the frequency request to the scheduler's utilisation
signal: ``f = C * f_max * util / util_max`` with C = 1.25 headroom, exactly
the kernel's ``get_next_freq``.  A cpu whose runqueue has been busy recently
requests a high frequency; a cpu that has been idle for a while — or that
just received its first short-lived task — requests a low one.  This is the
governor under which CFS's task-scattering hurts: every placement on a
long-idle core restarts from a low request (and a low actual frequency).
"""

from __future__ import annotations

from math import exp

from ..kernel.pelt import LN_Y, PELT_MAX
from ..obs import events as oev
from ..obs.log import EventLog
from .base import Governor

#: Headroom multiplier used by the kernel ("1.25 * max * util / max_cap").
HEADROOM = 1.25


class SchedutilGovernor(Governor):
    """Utilisation-driven frequency requests with the full range allowed."""

    def __init__(self) -> None:
        super().__init__()
        self._obs = EventLog()   # replaced with the engine's log on bind

    def on_bind(self) -> None:
        self._obs = self.kernel.engine.obs
        # The machine is immutable: read its frequency range once, not
        # through property calls on every request.
        machine = self.kernel.machine
        self._min_mhz = machine.min_mhz
        self._max_mhz = machine.max_turbo_mhz
        #: Each cpu's last computed request while the log is on (-1: none
        #: yet); ``freq.request`` is logged only when it changes.
        self._logged = [-1] * machine.topology.n_cpus

    def floor_mhz(self, cpu: int) -> int:
        return self._min_mhz

    def request_mhz(self, cpu: int) -> int:
        kernel = self.kernel
        now = kernel.engine.now
        rq = kernel.rqs[cpu]
        # Running average of cpu activity (the runqueue's busy PELT
        # signal decayed to now)...
        busy = rq.busy_avg
        util = busy.value
        delta = now - busy.last_update_us
        if delta > 0:
            if rq.currently_busy:
                y = exp(LN_Y * delta)
                util = util * y + PELT_MAX * (1.0 - y)
            elif util != 0.0:
                util = util * exp(LN_Y * delta)
        # ...bumped immediately by the utilisation estimates of the tasks
        # now attached to the cpu (the kernel's util_est): a wakeup of a
        # known-busy task raises the request without waiting for PELT.
        est = 0.0
        current = kernel.cpus[cpu].current
        if current is not None:
            est += max(current.util_est, current.pelt.peek(now, True))
        if rq.nr_queued:
            for task in rq.live_tasks():
                est += task.util_est
        if est > PELT_MAX:
            est = PELT_MAX
        if est > util:
            util = est
        mhz = int(HEADROOM * self._max_mhz * util / PELT_MAX)
        if mhz > self._max_mhz:
            mhz = self._max_mhz
        if mhz < self._min_mhz:
            mhz = self._min_mhz
        if self._obs.enabled and self._logged[cpu] != mhz:
            self._logged[cpu] = mhz
            self._obs.emit(now, oev.FREQ_REQUEST, cpu=cpu, value=mhz)
        return mhz

    @property
    def name(self) -> str:
        return "schedutil"
