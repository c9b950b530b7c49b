"""CPU energy model (turbostat substitute).

The paper's observations that the model must reproduce (§5.2):

* socket power is dominated by the *highest-frequency active core* on the
  socket, because the voltage rail is shared — so concentrating tasks on one
  already-fast socket adds little power;
* as long as any core on the machine is active, every socket remains in a
  high state of availability (uncore/memory power), so the big CPU-energy
  saving comes from finishing the application sooner, not from parking
  sockets.

Power model per socket::

    P = P_uncore                                    (always, machine awake)
      + sum over active physical cores of
            P_core_static + c_dyn * f * v(socket)^2

with the socket voltage ``v`` proportional to the highest active-core
frequency on the socket.  Idle-but-powered cores draw a small static power.
Units: MHz in, Watts out, energy in Joules.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List

from ..sim.clock import US_PER_SEC
from .topology import Topology

#: Power-state entry of an idle core.  No frequency takes this value, so
#: an idle core never aliases an active one, not even an active core the
#: meter still prices at 0 MHz because no frequency has reached it yet.
_IDLE = -1

#: Distinct power states one meter remembers before it drops them all.
#: A configure run on the 5218 visits 20 to 150 and a hackbench run about
#: 1,000; the bound keeps a long run from growing the memo without limit.
POWER_MEMO_MAX = 1 << 12


@dataclass(frozen=True)
class PowerParams:
    """Coefficients of the socket power model."""

    uncore_watts: float = 18.0       # per-socket baseline while machine is up
    core_idle_watts: float = 0.4     # powered but idle physical core
    core_static_watts: float = 1.2   # active core, frequency independent
    # Dynamic coefficient: P_dyn = c_dyn * (f_ghz) * (v)^2, v = v0 + v_slope*f_ghz
    c_dyn: float = 2.6
    v0: float = 0.55
    v_slope: float = 0.16            # per GHz


class EnergyMeter:
    """Integrates machine CPU power over simulated time.

    The meter is advanced lazily: callers invoke :meth:`advance` with the
    current time before changing any state that affects power (the kernel
    does this on every activity/frequency transition).
    """

    def __init__(self, topology: Topology, params: PowerParams | None = None) -> None:
        self.topology = topology
        self.params = params or PowerParams()
        self.energy_joules = 0.0
        self._last_us = 0
        # Mirror of the state needed to compute power.
        n_pc = topology.n_physical_cores
        self._core_mhz: List[int] = [0] * n_pc
        self._core_active: List[bool] = [False] * n_pc
        self._samples: List[tuple[int, float]] = []
        # Power is piecewise constant between state changes, so it is
        # computed once per change and cached (None = dirty) rather than
        # re-summed over every core on each advance.
        self._power: float | None = None
        # Power is a pure function of each core's MHz while it is active
        # (an idle core draws idle power whatever its MHz), so the state
        # that keys it holds the MHz of active cores and _IDLE for idle
        # ones.  A run revisits few distinct states, so a miss is summed
        # by _compute_power and remembered.  The key is bytes, which the
        # cyclic GC does not track.
        self._state = array("i", [_IDLE]) * n_pc
        self._memo: Dict[bytes, float] = {}

    # ---- state mirroring -------------------------------------------------

    def set_core_freq(self, physical_core: int, mhz: int, now: int) -> None:
        self.advance(now)
        if self._core_mhz[physical_core] != mhz:
            self._core_mhz[physical_core] = mhz
            # An idle core's frequency cannot change the power.
            if self._core_active[physical_core]:
                self._state[physical_core] = mhz
                self._power = None

    def set_core_active(self, physical_core: int, active: bool, now: int) -> None:
        self.advance(now)
        if self._core_active[physical_core] != active:
            self._core_active[physical_core] = active
            self._state[physical_core] = (self._core_mhz[physical_core]
                                          if active else _IDLE)
            self._power = None

    # ---- integration -------------------------------------------------------

    def current_power_watts(self) -> float:
        """Whole-machine CPU power with the present state."""
        power = self._power
        if power is None:
            key = self._state.tobytes()
            memo = self._memo
            power = memo.get(key)
            if power is None:
                if len(memo) >= POWER_MEMO_MAX:
                    memo.clear()
                power = memo[key] = self._compute_power()
            self._power = power
        return power

    def _compute_power(self) -> float:
        # Attribute chains hoisted to locals; the additions keep their
        # order, so the float total is unchanged.
        p = self.params
        uncore = p.uncore_watts
        static = p.core_static_watts
        idle = p.core_idle_watts
        c_dyn = p.c_dyn
        v0 = p.v0
        v_slope = p.v_slope
        active = self._core_active
        mhz = self._core_mhz
        topo = self.topology
        cps = topo.cores_per_socket
        total = 0.0
        for socket in range(topo.n_sockets):
            total += uncore
            cores = range(socket * cps, (socket + 1) * cps)
            vmax_mhz = 0
            for pc in cores:
                if active[pc] and mhz[pc] > vmax_mhz:
                    vmax_mhz = mhz[pc]
            v = v0 + v_slope * (vmax_mhz / 1000.0)
            for pc in cores:
                if active[pc]:
                    total += static + c_dyn * (mhz[pc] / 1000.0) * v * v
                else:
                    total += idle
        return total

    def advance(self, now: int) -> None:
        """Integrate energy up to time ``now`` (µs)."""
        if now <= self._last_us:
            return
        dt = (now - self._last_us) / US_PER_SEC
        self.energy_joules += self.current_power_watts() * dt
        self._last_us = now

    def sample(self, now: int) -> None:
        """Record a (time, cumulative-energy) sample, turbostat style."""
        self.advance(now)
        self._samples.append((now, self.energy_joules))

    @property
    def samples(self) -> List[tuple[int, float]]:
        return list(self._samples)

