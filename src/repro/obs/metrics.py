"""Named counters and fixed-bucket histograms.

The registry is the one counter store: the kernel and every policy keep
typed instruments here instead of ad-hoc stats dicts, and they serialize
into :class:`~repro.metrics.summary.RunResult` and the on-disk result
cache.

Everything here is *always on* — instruments are incremented by the
simulator whether or not anyone is watching — so the implementations are
deliberately minimal: a counter increment is two attribute loads and an
integer add (``c.value += 1``), and a histogram observation is one
``bisect`` call into a pre-sorted edge tuple.  All state is integers, so a
registry round-trips exactly through JSON (the result cache relies on
this for bit-identical cached results).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0


class Histogram:
    """Fixed-bucket histogram over integer observations.

    ``edges`` are inclusive upper bounds; an observation lands in the first
    bucket whose edge is >= the value, and values above the last edge land
    in the implicit overflow bucket, so ``counts`` has ``len(edges) + 1``
    entries.  The running ``sum`` and ``count`` allow mean computation
    without re-walking buckets.
    """

    __slots__ = ("name", "edges", "counts", "count", "sum")

    def __init__(self, name: str, edges: Sequence[int]) -> None:
        if not edges:
            raise ValueError(f"histogram {name!r} needs at least one edge")
        ordered = tuple(edges)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError(
                f"histogram {name!r} edges must be strictly increasing")
        self.name = name
        self.edges: Tuple[int, ...] = ordered
        self.counts: List[int] = [0] * (len(ordered) + 1)
        self.count = 0
        self.sum = 0

    def observe(self, v: int) -> None:
        self.counts[bisect_left(self.edges, v)] += 1
        self.count += 1
        self.sum += v


class MetricsRegistry:
    """A flat namespace of instruments, created on first use."""

    __slots__ = ("_counters", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument factories (idempotent per name) ----------------------

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def histogram(self, name: str,
                  edges: Optional[Sequence[int]] = None) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            if edges is None:
                raise KeyError(f"histogram {name!r} not yet registered")
            h = self._histograms[name] = Histogram(name, edges)
        return h

    # -- views -----------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        return {name: c.value for name, c in self._counters.items()}

    def as_dict(self, prefix: str = "") -> Dict[str, Any]:
        """Serialize every instrument to JSON-ready primitives."""
        out: Dict[str, Any] = {}
        for name, c in self._counters.items():
            out[prefix + name] = {"type": "counter", "value": c.value}
        for name, h in self._histograms.items():
            out[prefix + name] = {
                "type": "histogram",
                "edges": list(h.edges),
                "counts": list(h.counts),
                "count": h.count,
                "sum": h.sum,
            }
        return out
