"""Tests for the energy model and the machine catalogue (paper Table 2)."""

import pytest
from hypothesis import given, strategies as st

from repro.hw import energy as energy_mod
from repro.hw.energy import EnergyMeter, PowerParams
from repro.hw.machines import (ALL_MACHINES, E7_8870_V4_4S, PAPER_MACHINES,
                               RYZEN_4650G_1S, XEON_5218_2S, XEON_5220_1S,
                               XEON_6130_2S, XEON_6130_4S, get_machine)
from repro.hw.topology import Topology


class TestPowerModel:
    def test_idle_machine_draws_uncore_and_idle_power(self):
        topo = Topology(2, 2, 2)
        m = EnergyMeter(topo, PowerParams(uncore_watts=10, core_idle_watts=1))
        assert m.current_power_watts() == pytest.approx(2 * 10 + 4 * 1)

    def test_active_core_adds_dynamic_power(self):
        topo = Topology(1, 2, 2)
        m = EnergyMeter(topo)
        idle = m.current_power_watts()
        m.set_core_active(0, True, 0)
        m.set_core_freq(0, 3000, 0)
        assert m.current_power_watts() > idle

    def test_higher_freq_more_power(self):
        topo = Topology(1, 2, 2)
        a = EnergyMeter(topo)
        a.set_core_active(0, True, 0)
        a.set_core_freq(0, 2000, 0)
        b = EnergyMeter(topo)
        b.set_core_active(0, True, 0)
        b.set_core_freq(0, 3900, 0)
        assert b.current_power_watts() > a.current_power_watts()

    def test_socket_voltage_follows_fastest_core(self):
        """A slow core on a socket with a fast core draws more than on a
        socket where everything is slow (shared voltage rail)."""
        topo = Topology(1, 2, 2)
        slow_only = EnergyMeter(topo)
        slow_only.set_core_active(0, True, 0)
        slow_only.set_core_freq(0, 1000, 0)
        mixed = EnergyMeter(topo)
        mixed.set_core_active(0, True, 0)
        mixed.set_core_freq(0, 1000, 0)
        mixed.set_core_active(1, True, 0)
        mixed.set_core_freq(1, 3900, 0)
        fast_core_alone = EnergyMeter(topo)
        fast_core_alone.set_core_active(1, True, 0)
        fast_core_alone.set_core_freq(1, 3900, 0)
        # mixed > sum of parts - idle overlap: the slow core pays the fast
        # core's voltage.
        extra_mixed = mixed.current_power_watts() - fast_core_alone.current_power_watts()
        extra_alone = slow_only.current_power_watts() - EnergyMeter(topo).current_power_watts()
        assert extra_mixed > extra_alone

    def test_energy_integrates_power_over_time(self):
        topo = Topology(1, 1, 2)
        m = EnergyMeter(topo)
        p = m.current_power_watts()
        m.advance(2_000_000)   # 2 simulated seconds
        assert m.energy_joules == pytest.approx(2 * p)

    def test_advance_is_monotonic_noop_backwards(self):
        m = EnergyMeter(Topology(1, 1, 2))
        m.advance(1000)
        e = m.energy_joules
        m.advance(500)
        assert m.energy_joules == e

    def test_samples_and_energy_between(self):
        m = EnergyMeter(Topology(1, 1, 2))
        m.sample(0)
        m.sample(1_000_000)
        m.sample(2_000_000)
        total = m.energy_joules
        assert [t for t, _ in m.samples] == [0, 1_000_000, 2_000_000]
        assert m.samples[-1][1] == pytest.approx(total)
        assert m.samples[1][1] == pytest.approx(total / 2)


class LoopMeter(EnergyMeter):
    """Reference meter: the loop version, re-summed on every query."""

    def current_power_watts(self):
        return self._compute_power()


#: One meter operation: (kind, physical core, value, µs since the last).
#: Frequencies include 0, which a core's meter entry holds until the first
#: frequency change reaches it.
_METER_OPS = st.lists(st.tuples(
    st.sampled_from(["freq", "active", "advance"]),
    st.integers(0, 7),
    st.sampled_from([0, 800, 1000, 2300, 3900]),
    st.integers(0, 3_000)), min_size=1, max_size=80)


class TestPowerMemo:
    @given(ops=_METER_OPS)
    def test_memoised_power_equals_the_loop(self, ops):
        """Property: over random frequency, activity and advance
        sequences on two sockets (cores may go active before any
        frequency reaches them), the memoised meter's power and energy
        equal, bit for bit, a meter that re-sums every core each time."""
        topo = Topology(2, 4, 2)
        fast, ref = EnergyMeter(topo), LoopMeter(topo)
        now = 0
        for kind, pc, value, gap in ops:
            now += gap
            for m in (fast, ref):
                if kind == "freq":
                    m.set_core_freq(pc, value, now)
                elif kind == "active":
                    m.set_core_active(pc, value >= 1000, now)
                else:
                    m.advance(now)
            assert fast.current_power_watts() == ref.current_power_watts()
            assert fast.energy_joules == ref.energy_joules

    def test_an_idle_core_frequency_change_keeps_the_power(self):
        m = EnergyMeter(Topology(1, 2, 1))
        p = m.current_power_watts()
        m.set_core_freq(0, 3000, 0)
        assert m._power == p     # still clean: no recompute needed

    def test_the_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(energy_mod, "POWER_MEMO_MAX", 4)
        m = EnergyMeter(Topology(1, 2, 1))
        m.set_core_active(0, True, 0)
        for t, mhz in enumerate(range(1000, 1010), start=1):
            m.set_core_freq(0, mhz, t)
            m.current_power_watts()
            assert len(m._memo) <= 4


class TestMachines:
    """Paper Table 2."""

    def test_four_paper_machines(self):
        assert set(PAPER_MACHINES) == {"6130_2s", "6130_4s", "5218_2s",
                                       "e78870_4s"}

    @pytest.mark.parametrize("machine,n_cpus", [
        (E7_8870_V4_4S, 160), (XEON_6130_2S, 64), (XEON_6130_4S, 128),
        (XEON_5218_2S, 64), (XEON_5220_1S, 36), (RYZEN_4650G_1S, 12)])
    def test_core_counts(self, machine, n_cpus):
        assert machine.n_cpus == n_cpus

    def test_e7_is_4_socket_broadwell(self):
        assert E7_8870_V4_4S.topology.n_sockets == 4
        assert E7_8870_V4_4S.microarchitecture == "Broadwell"
        assert E7_8870_V4_4S.pm.name == "Enhanced Intel SpeedStep"

    def test_skylake_machines_use_speed_shift(self):
        assert XEON_6130_2S.pm.name == "Intel Speed Shift"
        assert XEON_5218_2S.pm.name == "Intel Speed Shift"

    def test_frequency_ranges(self):
        assert (XEON_6130_2S.min_mhz, XEON_6130_2S.nominal_mhz,
                XEON_6130_2S.max_turbo_mhz) == (1000, 2100, 3700)
        assert (XEON_5218_2S.min_mhz, XEON_5218_2S.nominal_mhz,
                XEON_5218_2S.max_turbo_mhz) == (1000, 2300, 3900)
        assert (E7_8870_V4_4S.min_mhz, E7_8870_V4_4S.nominal_mhz,
                E7_8870_V4_4S.max_turbo_mhz) == (1200, 2100, 3000)

    def test_get_machine(self):
        assert get_machine("5218_2s") is XEON_5218_2S
        with pytest.raises(KeyError):
            get_machine("no-such-box")

    def test_describe_mentions_counts(self):
        assert "2x16x2" in XEON_6130_2S.describe()

    def test_all_machines_superset(self):
        assert set(PAPER_MACHINES) < set(ALL_MACHINES)
