"""Tests for the DVFS model."""

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.hw.freqmodel import (AMD_BOOST, FreqModel, PMParams, SPEED_SHIFT,
                                SPEED_STEP)
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


def toggle_every(eng, fm, cpu, period_us):
    """Flip ``cpu`` between busy and idle every ``period_us``."""
    busy = False

    def flip():
        nonlocal busy
        busy = not busy
        fm.set_thread_state(cpu, busy=busy, spinning=False)
        eng.after(period_us, EventKind.CONTROL, flip)

    eng.after(period_us, EventKind.CONTROL, flip)


class TestRampTimer:
    def test_reevaluation_rearms_the_pending_step_in_place(self):
        """Re-pricing a ramping core keeps its pending step where it is:
        the step fires on its interval however often the core is
        re-priced, and no cancelled step piles up in the heap."""
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
        # Up from the floor to the pre-sustain (nominal) cap, one step per
        # ramp interval.
        ramp = SPEED_STEP.ramp_interval_us
        cap = XEON_5218.nominal_mhz
        assert steps == [
            (k * ramp, 0, min(1000 + k * SPEED_STEP.ramp_up_step_mhz, cap))
            for k in range(1, 7)]


class TestStepTiming:
    """A pending ramp or decay step never moves later, so activity
    elsewhere on the socket cannot starve it."""

    def test_ramp_completes_while_a_socket_mate_toggles(self):
        # 2250 MHz is below the 2300 MHz pre-sustain cap, so the target
        # stays put while core 0 is short of turbo latency.
        eng, fm, _ = make(pm=SPEED_STEP, floor=1000, request=2250)
        fm.set_thread_state(0, busy=True, spinning=False)
        assert fm.freq_mhz(0) == 1000
        toggle_every(eng, fm, 1, 100)
        intervals = -(-(2250 - 1000) // SPEED_STEP.ramp_up_step_mhz)
        eng.run(until=intervals * SPEED_STEP.ramp_interval_us)
        assert fm.freq_mhz(0) == 2250

    def test_idle_core_decays_while_its_socket_stays_busy(self):
        eng, fm, _ = make(request=2500)
        for cpu in (0, 2, 3):
            fm.set_thread_state(cpu, busy=True, spinning=False)
        start = fm.freq_mhz(0)
        assert start == 2500
        fm.set_thread_state(0, busy=False, spinning=False)
        toggle_every(eng, fm, 1, 100)
        delta = start - XEON_5218.min_mhz
        eng.run(until=SPEED_SHIFT.idle_hold_us - 1)
        assert fm.freq_mhz(0) == start         # still within the hold
        intervals = -(-delta // SPEED_SHIFT.decay_step_mhz)
        eng.run(until=SPEED_SHIFT.idle_hold_us
                + intervals * SPEED_SHIFT.decay_interval_us)
        assert fm.freq_mhz(0) == XEON_5218.min_mhz

    def test_a_step_armed_before_idle_does_not_cut_the_hold_short(self):
        eng, fm, _ = make(pm=SPEED_STEP, floor=1000, request=2250)
        fm.set_thread_state(0, busy=True, spinning=False)
        ramp = SPEED_STEP.ramp_interval_us
        eng.run(until=ramp)
        assert fm.freq_mhz(0) == 1250
        # Idle shortly before the next ramp step, which falls due within
        # the hold and is therefore kept.
        idle_at = 2 * ramp - 100
        eng.run(until=idle_at)
        fm.set_thread_state(0, busy=False, spinning=False)
        eng.run(until=idle_at + SPEED_STEP.idle_hold_us - 1)
        assert fm.freq_mhz(0) == 1250
        eng.run(until=idle_at + SPEED_STEP.idle_hold_us)
        assert fm.freq_mhz(0) == XEON_5218.min_mhz

    @given(pm=st.sampled_from([SPEED_SHIFT, SPEED_STEP]),
           ops=st.lists(st.tuples(
               st.integers(0, 15),
               st.sampled_from(["busy", "spin", "idle", "cap", "uncap"]),
               st.integers(0, 2_000)), min_size=1, max_size=60))
    def test_steps_never_move_later_nor_rise_above_a_ceiling(self, pm, ops):
        """Property, over random activity toggles and thermal caps on two
        sockets: a pending step's time never increases, and no upward step
        lands above the Table 3 ceiling for the socket's active-core
        count or above the core's thermal cap."""
        topo = Topology(2, 4, 2)
        eng, fm, _ = make(pm=pm, request=3900, topo=topo)
        mhz = [fm.core_freq_mhz(pc) for pc in range(topo.n_physical_cores)]

        def on_change(pc, new):
            if new > mhz[pc]:
                socket = pc // topo.cores_per_socket
                assert new <= XEON_5218.ceiling(
                    fm.active_physical_cores(socket))
                cap = fm.thermal_cap(pc)
                assert cap is None or new <= cap
            mhz[pc] = new

        fm.add_listener(on_change)
        for cpu, what, gap in ops:
            eng.run(until=eng.now + gap)
            due = [None if core.step_event is None else core.step_event.time
                   for core in fm._cores]
            pc = topo.physical_core_of(cpu)
            if what == "cap":
                fm.set_thermal_cap(pc, 2000)
            elif what == "uncap":
                fm.set_thermal_cap(pc, None)
            else:
                fm.set_thread_state(cpu, busy=what == "busy",
                                    spinning=what == "spin")
            for before, core in zip(due, fm._cores):
                if before is not None and core.step_event is not None:
                    assert core.step_event.time <= before

    @given(pm=st.sampled_from([SPEED_SHIFT, SPEED_STEP, AMD_BOOST]),
           ops=st.lists(st.tuples(
               st.integers(0, 15),
               st.sampled_from(["busy", "spin", "idle", "idle", "cap",
                                "uncap", "force"]),
               st.integers(0, 2_000)), min_size=1, max_size=60))
    def test_active_masks_and_idle_steps_after_random_toggles(self, pm,
                                                               ops):
        """Property, over random activity toggles, thermal caps and forced
        frequencies on two sockets, for each PM personality: each socket's
        active-core mask is its set of active cores, and every idle core
        above the minimum has a step pending (the invariant that lets the
        socket walk visit only the active cores).  After every toggle and
        every step that fires, a core's bit in its socket's armed mask is
        set exactly when its step is pending."""
        topo = Topology(2, 4, 2)
        eng, fm, _ = make(pm=pm, request=3900, topo=topo)
        cps = topo.cores_per_socket

        def assert_armed_mask_matches():
            for pc, core in enumerate(fm._cores):
                armed = fm._armed_mask[pc // cps] >> (pc % cps) & 1
                assert armed == (core.step_event is not None)

        step = fm._step

        def checked_step(pc):
            step(pc)
            assert_armed_mask_matches()

        fm._step = checked_step     # what _reevaluate arms from now on
        for cpu, what, gap in ops:
            eng.run(until=eng.now + gap)
            pc = topo.physical_core_of(cpu)
            if what == "cap":
                fm.set_thermal_cap(pc, 2000)
            elif what == "uncap":
                fm.set_thermal_cap(pc, None)
            elif what == "force":
                fm.force_freq(pc, 2500)
            else:
                fm.set_thread_state(cpu, busy=what == "busy",
                                    spinning=what == "spin")
            for socket in range(topo.n_sockets):
                active = {i for i in range(cps)
                          if fm._cores[socket * cps + i].active_threads
                          or fm._cores[socket * cps + i].spinning_threads}
                mask = fm._active_mask[socket]
                assert {i for i in range(cps) if mask >> i & 1} == active
                assert fm.active_physical_cores(socket) == len(active)
            for core in fm._cores:
                if not (core.active_threads or core.spinning_threads) \
                        and core.mhz > XEON_5218.min_mhz:
                    assert core.step_event is not None
            assert_armed_mask_matches()


#: Ramp and decay share one interval, so the steps a wake arms on the
#: socket-mates and on the waking core fall due together.
EVEN = PMParams(name="even", ramp_up_step_mhz=1000, ramp_interval_us=1000,
                decay_step_mhz=1000, decay_interval_us=1000, idle_hold_us=0,
                turbo_latency_us=0, gap_forgiveness_us=0,
                presustain_cap="allcore", instant_pstate=False)


class TestPricingOrder:
    """A core whose activity changed is priced once, after the socket-mates
    that have no step pending."""

    def test_changed_core_steps_after_its_socket_mates(self):
        eng, fm, _ = make(pm=EVEN, floor=1000, request=3900)
        steps = []
        fm.add_listener(lambda pc, mhz: steps.append((eng.now, pc)))
        for cpu in (1, 2, 3, 4):
            fm.set_thread_state(cpu, busy=True, spinning=False)
        eng.run(until=5_000)
        # Sustained at the four-core ceiling, with no step pending.
        assert [fm.core_freq_mhz(pc) for pc in (1, 2, 3, 4)] == \
            [XEON_5218.ceiling(4)] * 4
        assert all(fm._cores[pc].step_event is None for pc in (1, 2, 3, 4))
        fm.set_thread_state(0, busy=True, spinning=False)
        # The fifth active core lowers the mates' ceiling, so each gets a
        # decay step; the waking core gets its ramp step last.
        assert XEON_5218.ceiling(5) < XEON_5218.ceiling(4)
        seqs = [fm._cores[pc].step_event.seq for pc in range(5)]
        assert seqs[1:] == sorted(seqs[1:]) and max(seqs[1:]) < seqs[0]
        # All five steps fall due together; the tie goes by sequence.
        due = 5_000 + EVEN.ramp_interval_us
        eng.run(until=due)
        assert [pc for t, pc in steps if t == due] == [1, 2, 3, 4, 0]

    def test_a_wake_asks_the_governor_once_per_thread(self):
        eng, fm, gov = make(request=2500)
        for cpu in (1, 2, 3):
            fm.set_thread_state(cpu, busy=True, spinning=False)
        pending = [fm._cores[pc].step_event for pc in (1, 2, 3)]
        assert None not in pending     # each waits out turbo latency
        assert fm._armed_mask[0] & 0b1110 == 0b1110
        reevaluated = []
        reevaluate = fm._reevaluate

        def spy(pc, target=None):
            reevaluated.append(pc)
            reevaluate(pc, target)

        fm._reevaluate = spy
        gov.asked.clear()
        fm.set_thread_state(0, busy=True, spinning=False)
        # Core 0's wake jump is its target, asked once per hw thread.  The
        # mates have a step pending, which re-reads the target when it
        # fires, so the walk steps over them: they are not re-priced and
        # their steps stay put.
        assert gov.asked == {0: 1, 32: 1}
        assert reevaluated == [0]
        assert [fm._cores[pc].step_event for pc in (1, 2, 3)] == pending
