"""Tests for the DVFS model."""

from collections import Counter

import pytest

from repro.hw.freqmodel import (FreqModel, PMParams, SPEED_SHIFT, SPEED_STEP)
from repro.hw.topology import Topology
from repro.hw.turbo import XEON_5218
from repro.sim.engine import Engine
from repro.sim.events import EventKind


class StubGovernor:
    """Fixed floor/request governor for unit tests; counts the requests
    it is asked for, per cpu."""

    def __init__(self, floor=1000, request=3900):
        self.floor = floor
        self.request = request
        self.asked = Counter()

    def floor_mhz(self, cpu):
        return self.floor

    def request_mhz(self, cpu):
        self.asked[cpu] += 1
        return self.request


def make(pm=SPEED_SHIFT, floor=1000, request=3900,
         topo=Topology(2, 16, 2)):
    eng = Engine()
    gov = StubGovernor(floor, request)
    fm = FreqModel(eng, topo, XEON_5218, pm, gov)
    return eng, fm, gov


class TestActivityTracking:
    def test_starts_at_min(self):
        _, fm, _ = make()
        assert fm.freq_mhz(0) == XEON_5218.min_mhz

    def test_active_count_per_socket(self):
        eng, fm, _ = make()
        fm.set_thread_state(0, busy=True, spinning=False)
        fm.set_thread_state(16, busy=True, spinning=False)
        assert fm.active_physical_cores(0) == 1
        assert fm.active_physical_cores(1) == 1

    def test_siblings_share_one_physical_core(self):
        eng, fm, _ = make()
        fm.set_thread_state(0, busy=True, spinning=False)
        fm.set_thread_state(32, busy=True, spinning=False)   # sibling of 0
        assert fm.active_physical_cores(0) == 1
        fm.set_thread_state(0, busy=False, spinning=False)
        assert fm.active_physical_cores(0) == 1   # sibling still busy
        fm.set_thread_state(32, busy=False, spinning=False)
        assert fm.active_physical_cores(0) == 0

    def test_busy_and_spinning_rejected(self):
        _, fm, _ = make()
        with pytest.raises(ValueError):
            fm.set_thread_state(0, busy=True, spinning=True)

    def test_spinning_counts_as_active(self):
        _, fm, _ = make()
        assert fm.set_thread_state(0, busy=False, spinning=True)
        assert fm.active_physical_cores(0) == 1

    def test_returns_core_activity(self):
        _, fm, _ = make()
        assert fm.set_thread_state(0, busy=True, spinning=False)
        assert fm.set_thread_state(32, busy=True, spinning=False)
        assert fm.set_thread_state(0, busy=False, spinning=False)  # sibling
        assert not fm.set_thread_state(32, busy=False, spinning=False)

    def test_thread_state_readback(self):
        _, fm, _ = make()
        fm.set_thread_state(3, busy=True, spinning=False)
        assert fm.thread_state(3) == (True, False)
        assert fm.thread_state(4) == (False, False)


class TestInstantPstate:
    def test_activation_jumps_to_target_on_speed_shift(self):
        eng, fm, _ = make(request=2500)
        fm.set_thread_state(0, busy=True, spinning=False)
        # Speed Shift programs the P-state on the wakeup path: the core is
        # at the (pre-sustain-capped) requested frequency immediately.
        assert fm.freq_mhz(0) == 2500

    def test_activation_jump_capped_by_allcore_presustain(self):
        eng, fm, _ = make(request=3900)
        fm.set_thread_state(0, busy=True, spinning=False)
        assert fm.freq_mhz(0) == XEON_5218.limits[-1]   # all-core cap

    def test_speedstep_only_jumps_to_floor(self):
        eng, fm, _ = make(pm=SPEED_STEP, floor=2300, request=3900)
        fm.set_thread_state(0, busy=True, spinning=False)
        assert fm.freq_mhz(0) == 2300


class TestSustainedBoost:
    def test_sustained_activity_unlocks_full_turbo(self):
        eng, fm, _ = make(request=3900)
        fm.set_thread_state(0, busy=True, spinning=False)
        eng.run(until=SPEED_SHIFT.turbo_latency_us + 5_000)
        assert fm.freq_mhz(0) == XEON_5218.ceiling(1)   # 3900

    def test_gap_resets_sustained_activity(self):
        eng, fm, _ = make(request=3900)
        fm.set_thread_state(0, busy=True, spinning=False)
        eng.run(until=SPEED_SHIFT.turbo_latency_us + 5_000)
        fm.set_thread_state(0, busy=False, spinning=False)
        gap = SPEED_SHIFT.gap_forgiveness_us + 200
        eng.run(until=eng.now + gap)
        fm.set_thread_state(0, busy=True, spinning=False)
        eng.run(until=eng.now + 2_000)
        # Back under the pre-sustain cap (after decay toward it).
        assert fm.freq_mhz(0) <= XEON_5218.limits[-1] + SPEED_SHIFT.decay_step_mhz

    def test_short_gap_forgiven(self):
        eng, fm, _ = make(request=3900)
        fm.set_thread_state(0, busy=True, spinning=False)
        eng.run(until=SPEED_SHIFT.turbo_latency_us + 5_000)
        fm.set_thread_state(0, busy=False, spinning=False)
        eng.run(until=eng.now + SPEED_SHIFT.gap_forgiveness_us - 100)
        fm.set_thread_state(0, busy=True, spinning=False)
        assert fm.freq_mhz(0) == XEON_5218.ceiling(1)

    def test_no_autonomous_boost_on_speedstep(self):
        eng, fm, _ = make(pm=SPEED_STEP, floor=1000, request=1800)
        fm.set_thread_state(0, busy=True, spinning=False)
        eng.run(until=SPEED_STEP.turbo_latency_us + 20_000)
        # Follows the request, not the turbo ceiling.
        assert fm.freq_mhz(0) == 1800

    def test_turbo_ceiling_depends_on_active_count(self):
        eng, fm, _ = make(request=3900)
        for cpu in range(10):
            fm.set_thread_state(cpu, busy=True, spinning=False)
        eng.run(until=SPEED_SHIFT.turbo_latency_us + 10_000)
        assert fm.freq_mhz(0) == XEON_5218.ceiling(10)   # 3100


class TestIdleDecay:
    def test_idle_core_decays_to_min(self):
        eng, fm, _ = make(request=3900)
        fm.set_thread_state(0, busy=True, spinning=False)
        eng.run(until=20_000)
        fm.set_thread_state(0, busy=False, spinning=False)
        eng.run(until=eng.now + 60_000)
        assert fm.freq_mhz(0) == XEON_5218.min_mhz

    def test_idle_hold_keeps_freq_briefly(self):
        eng, fm, _ = make(request=3900)
        fm.set_thread_state(0, busy=True, spinning=False)
        eng.run(until=20_000)
        f = fm.freq_mhz(0)
        fm.set_thread_state(0, busy=False, spinning=False)
        eng.run(until=eng.now + SPEED_SHIFT.idle_hold_us - 500)
        assert fm.freq_mhz(0) == f

    def test_spin_holds_frequency(self):
        eng, fm, _ = make(request=3900)
        fm.set_thread_state(0, busy=True, spinning=False)
        eng.run(until=20_000)
        f = fm.freq_mhz(0)
        fm.set_thread_state(0, busy=False, spinning=True)
        eng.run(until=eng.now + 30_000)
        assert fm.freq_mhz(0) >= f

    def test_idle_duration(self):
        eng, fm, _ = make()
        fm.set_thread_state(0, busy=True, spinning=False)
        fm.set_thread_state(0, busy=False, spinning=False)
        eng.run(until=100)
        assert fm.idle_duration(0, eng.now) == 100
        fm.set_thread_state(0, busy=True, spinning=False)
        assert fm.idle_duration(0, eng.now) is None


class TestListeners:
    def test_listener_called_on_change(self):
        eng, fm, _ = make(request=2500)
        changes = []
        fm.add_listener(lambda pc, mhz: changes.append((pc, mhz)))
        fm.set_thread_state(0, busy=True, spinning=False)
        assert changes and changes[0][0] == 0

    def test_force_freq(self):
        eng, fm, _ = make()
        fm.force_freq(3, 2222)
        assert fm.core_freq_mhz(3) == 2222


class TestRampTimer:
    def test_reevaluation_rearms_the_pending_step_in_place(self):
        """Re-pricing a ramping core moves its pending step instead of
        leaving a cancelled step in the heap per re-evaluation."""
        eng, fm, _ = make(pm=SPEED_STEP, floor=1000, request=3900)
        steps = []
        fm.add_listener(lambda pc, mhz: steps.append((eng.now, pc, mhz)))
        fm.set_thread_state(0, busy=True, spinning=False)
        last = 10_000
        peak = 0

        def reprice():
            nonlocal peak
            fm.notify_request_change(0)
            if eng.now < last:
                eng.after(1, EventKind.CONTROL, reprice)
            peak = max(peak, len(eng.queue._heap))

        eng.at(1, EventKind.CONTROL, reprice)
        eng.run(until=last)
        assert peak <= 2          # the next re-pricing and the ramp step
        assert steps == []
        eng.run(until=last + SPEED_STEP.ramp_interval_us)
        assert steps == [(last + SPEED_STEP.ramp_interval_us, 0,
                          1000 + SPEED_STEP.ramp_up_step_mhz)]


class TestPricingOrder:
    """A core whose activity changed is priced once, after its socket-mates."""

    def test_changed_core_steps_after_its_socket_mates(self):
        eng, fm, _ = make(pm=SPEED_STEP, floor=1000, request=3900)
        steps = []
        fm.add_listener(lambda pc, mhz: steps.append((eng.now, pc)))
        for cpu in (1, 2, 3):
            fm.set_thread_state(cpu, busy=True, spinning=False)
        eng.run(until=500)
        fm.set_thread_state(0, busy=True, spinning=False)
        seqs = [fm._cores[pc].step_event.seq for pc in range(4)]
        assert max(seqs[1:]) < seqs[0]
        # All four ramp steps fall due together; the tie goes by sequence.
        due = 500 + SPEED_STEP.ramp_interval_us
        eng.run(until=due)
        assert [pc for t, pc in steps if t == due] == [1, 2, 3, 0]

    def test_a_wake_asks_the_governor_once_per_thread(self):
        eng, fm, gov = make(request=2500)
        for cpu in (1, 2, 3):
            fm.set_thread_state(cpu, busy=True, spinning=False)
        gov.asked.clear()
        fm.set_thread_state(0, busy=True, spinning=False)
        # Core 0's wake jump is its target; each mate is re-priced once.
        assert gov.asked == {cpu: 1 for cpu in (0, 1, 2, 3, 32, 33, 34, 35)}
