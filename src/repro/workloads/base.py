"""Workload toolkit.

A workload is an object that knows how to start its root task(s) on a
kernel.  All randomness must come from the named streams of the kernel
engine's RNG registry, so a workload generates exactly the same task
structure and durations for every scheduler under the same seed — only the
*placement* differs between runs.

Durations are expressed in *cycles* (1000 cycles = 1 µs at 1 GHz), so the
wall-clock time of a task depends on the frequencies it gets: that is the
quantity the paper measures.
"""

from __future__ import annotations

import random

from ..kernel.scheduler_core import Kernel
from ..kernel.task import Task

#: Cycles per microsecond at 1 GHz: the unit conversion for behaviours.
CYCLES_PER_US_GHZ = 1_000


def ms_of_work(ms: float) -> float:
    """Cycles that take ``ms`` milliseconds on a 1 GHz core."""
    return ms * 1_000 * CYCLES_PER_US_GHZ


def us_of_work(us: float) -> float:
    """Cycles that take ``us`` microseconds on a 1 GHz core."""
    return us * CYCLES_PER_US_GHZ


class Workload:
    """Base class: subclasses implement :meth:`start`."""

    #: Human-readable name, used in results and the experiment registry.
    name: str = "workload"

    def start(self, kernel: Kernel) -> Task:
        """Spawn the root task(s); returns the main root task."""
        raise NotImplementedError

    def rng(self, kernel: Kernel, stream: str = "main") -> random.Random:
        """Deterministic per-workload random stream."""
        return kernel.engine.rng.stream(f"workload:{self.name}:{stream}")

    def describe(self) -> str:
        return self.name


def jittered(rng: random.Random, mean: float, rel_sigma: float = 0.15,
             floor: float = 0.0) -> float:
    """Gaussian jitter around ``mean`` with relative sigma, floored."""
    return max(floor, rng.gauss(mean, mean * rel_sigma))
