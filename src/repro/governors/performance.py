"""The performance governor (paper §2.3).

Requests that the hardware use at least the *nominal* frequency; the
hardware remains free to pick any turbo frequency above it.  High
performance, but no energy savings from running light tasks slowly.
"""

from __future__ import annotations

from .base import Governor


class PerformanceGovernor(Governor):
    """Floor at the nominal frequency, request the full turbo range."""

    def on_bind(self) -> None:
        machine = self.kernel.machine
        self._floor_mhz = machine.nominal_mhz
        self._request_mhz = machine.max_turbo_mhz

    def floor_mhz(self, cpu: int) -> int:
        return self._floor_mhz

    def request_mhz(self, cpu: int) -> int:
        return self._request_mhz

    @property
    def name(self) -> str:
        return "performance"
