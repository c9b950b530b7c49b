"""Tests for repro.sim.clock."""

from repro.sim.clock import TICK_US, US_PER_MS, US_PER_SEC


class TestConversions:
    def test_tick_is_4ms(self):
        # The paper's machines run at 250 Hz: one tick = 4 ms.
        assert TICK_US == 4 * US_PER_MS

    def test_units_consistent(self):
        assert US_PER_SEC == 1000 * US_PER_MS
