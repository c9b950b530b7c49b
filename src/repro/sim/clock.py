"""Simulated time units.

All simulation time is kept as integer microseconds (``Engine.now``) so
that event ordering is exact and runs are bit-for-bit reproducible.  The
scheduler tick matches the paper's hardware: 250 Hz, i.e. one tick every
4 ms (the paper expresses the Nest parameters ``P_remove`` and ``S_max``
in ticks of 4 ms).
"""

from __future__ import annotations

US_PER_MS = 1_000
US_PER_SEC = 1_000_000

#: Scheduler tick period (Linux CONFIG_HZ=250, as on the paper's testbed).
TICK_US = 4_000
