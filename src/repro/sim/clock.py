"""Simulated time.

All simulation time is kept as integer microseconds so that event ordering is
exact and runs are bit-for-bit reproducible.  The scheduler tick matches the
paper's hardware: 250 Hz, i.e. one tick every 4 ms (the paper expresses the
Nest parameters ``P_remove`` and ``S_max`` in ticks of 4 ms).
"""

from __future__ import annotations

US_PER_MS = 1_000
US_PER_SEC = 1_000_000

#: Scheduler tick period (Linux CONFIG_HZ=250, as on the paper's testbed).
TICK_US = 4_000


def us_from_ms(ms: float) -> int:
    """Convert milliseconds to integer microseconds."""
    return int(round(ms * US_PER_MS))


def us_from_sec(sec: float) -> int:
    """Convert seconds to integer microseconds."""
    return int(round(sec * US_PER_SEC))


def sec_from_us(us: int) -> float:
    """Convert integer microseconds to float seconds."""
    return us / US_PER_SEC


def ticks_to_us(ticks: float) -> int:
    """Convert a duration expressed in scheduler ticks to microseconds."""
    return int(round(ticks * TICK_US))


class Clock:
    """Monotonic simulated clock.

    Only the simulation engine advances the clock; every other component
    reads it.  Time never goes backwards.
    """

    #: ``now`` is a plain slot attribute rather than a property: it is read
    #: on nearly every event and the descriptor call dominated profiles.
    #: Only :meth:`advance_to` and the engine's run loop (which inlines
    #: it) may write it.
    __slots__ = ("now",)

    def __init__(self, start: int = 0) -> None:
        self.now = start

    @property
    def now_sec(self) -> float:
        """Current simulated time in seconds."""
        return self.now / US_PER_SEC

    def advance_to(self, t: int) -> None:
        """Move the clock forward to ``t`` (monotonicity is enforced)."""
        if t < self.now:
            raise ValueError(f"clock moving backwards: {t} < {self.now}")
        self.now = t

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Clock({self.now}us)"
