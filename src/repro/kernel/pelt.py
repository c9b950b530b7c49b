"""PELT-style decaying load/utilisation averages.

Linux's Per-Entity Load Tracking sums geometric series with a 32 ms
half-life.  We use the continuous-time closed form of the same recurrence:
over an interval of length ``d`` in which the entity was running the whole
time, the average converges toward the maximum as::

    avg' = avg * y^d + MAX * (1 - y^d),        y^(32ms) = 1/2

and decays as ``avg' = avg * y^d`` while not running.  This keeps the two
properties the paper's analysis relies on: a core that has been busy recently
has high load/utilisation that decays slowly (so CFS disfavours it at fork
time and schedutil requests a high frequency), and a freshly-started task has
*low* utilisation (so schedutil starts it slow on a cold core).
"""

from __future__ import annotations

import math

#: Magnitude used by Linux for a fully-utilised entity.
PELT_MAX = 1024

#: Half-life of the decaying average, in microseconds (Linux: 32 ms).
HALFLIFE_US = 32_000

#: ``ln y``, so that ``y^d == exp(LN_Y * d)``: ``-(ln 2 / HALFLIFE_US)``
#: exactly, since negation rounds nothing.  The hot paths (here, the
#: runqueue's ``load_avg`` and schedutil's request) compute
#: ``exp(LN_Y * delta)`` inline for a positive delta, which is
#: :func:`decay_factor` bit for bit.
LN_Y = -math.log(2.0) / HALFLIFE_US
_exp = math.exp


def decay_factor(delta_us: int) -> float:
    """The factor y^delta by which an average decays over ``delta_us``."""
    if delta_us <= 0:
        return 1.0
    return _exp(LN_Y * delta_us)


class PeltAvg:
    """A single decaying average in [0, PELT_MAX].

    Updated lazily: callers invoke :meth:`update` with the current time and
    whether the entity was running *since the last update*.
    """

    __slots__ = ("value", "last_update_us")

    def __init__(self, now: int = 0, value: float = 0.0) -> None:
        self.value = value
        self.last_update_us = now

    def update(self, now: int, running: bool) -> float:
        """Advance the average to ``now``; returns the new value.

        Decay is lazy: a zero average stays zero without computing a
        decay factor (the common case for long-idle cores).
        """
        delta = now - self.last_update_us
        if delta > 0:
            if running:
                y = _exp(LN_Y * delta)
                self.value = self.value * y + PELT_MAX * (1.0 - y)
            elif self.value != 0.0:
                self.value = self.value * _exp(LN_Y * delta)
            self.last_update_us = now
        return self.value

    def peek(self, now: int, running: bool = False) -> float:
        """Value the average would have at ``now`` without mutating."""
        delta = now - self.last_update_us
        if delta <= 0:
            return self.value
        if running:
            y = _exp(LN_Y * delta)
            return self.value * y + PELT_MAX * (1.0 - y)
        if self.value == 0.0:
            return 0.0
        return self.value * _exp(LN_Y * delta)

    def add(self, amount: float) -> None:
        """Add a contribution (e.g. blocked load of a departing task)."""
        self.value = min(PELT_MAX, self.value + amount)

    def remove(self, amount: float) -> None:
        """Remove a contribution, clamping at zero."""
        self.value = max(0.0, self.value - amount)
