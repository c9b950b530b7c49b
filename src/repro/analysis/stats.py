"""Statistics helpers used by the benchmark harness (paper §5.1)."""

from __future__ import annotations

from typing import Sequence


def classify_speedup(speedup: float) -> str:
    """Table 4's banding of test outcomes."""
    if speedup < -0.20:
        return "slower by > 20%"
    if speedup < -0.05:
        return "slower by (5,20]%"
    if speedup <= 0.05:
        return "same"
    if speedup <= 0.20:
        return "faster by (5,20]%"
    return "faster by > 20%"


#: Table 4 band labels, in the paper's column order.
SPEEDUP_BANDS = (
    "slower by > 20%",
    "slower by (5,20]%",
    "same",
    "faster by (5,20]%",
    "faster by > 20%",
)


def band_counts(speedups: Sequence[float]) -> dict:
    """Count tests per Table 4 band."""
    out = {band: 0 for band in SPEEDUP_BANDS}
    for s in speedups:
        out[classify_speedup(s)] += 1
    return out
