"""Run summaries: the measurement record of one simulation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..sim.clock import US_PER_SEC
from .freqdist import FreqDistribution
from .underload import UnderloadResult


@dataclass
class RunResult:
    """Everything the benchmark harness reports about one run."""

    scheduler: str
    governor: str
    machine: str
    workload: str
    seed: int
    makespan_us: int
    energy_joules: float
    underload: Optional[UnderloadResult] = None
    freq_dist: Optional[FreqDistribution] = None
    n_tasks: int = 0
    n_migrations: int = 0
    total_wakeups: int = 0
    wakeup_latency_us: int = 0
    extra: Dict[str, float] = field(default_factory=dict)
    #: Serialized observability registry (obs/metrics.py): counters and
    #: histograms from the kernel (``kernel.*``) and the selection policy
    #: (``nest.*``, ``smove.*``, ...).  Deterministic and cached
    #: with the result.
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Host-side telemetry: wall-clock seconds the simulation took and how
    #: many engine events it processed.  Nondeterministic (timing), so it is
    #: excluded from determinism comparisons; a cache hit reports the wall
    #: time of the run that produced the entry.
    sim_wall_s: float = 0.0
    events_processed: int = 0
    #: Memory telemetry of the executing process, host-side like
    #: ``sim_wall_s``: peak RSS in KiB (process-lifetime high-water mark —
    #: in a pool worker that ran several specs it is "peak so far") and
    #: GC collection/collected-object deltas across the run.  All three
    #: serialize under the cache entry's ``"host"`` block, which every
    #: determinism comparison drops alongside ``sim_wall_s``.
    rss_peak_kb: int = 0
    gc_collections: int = 0
    gc_collected: int = 0

    @property
    def events_per_sec(self) -> float:
        """Engine throughput of the run (0 when wall time was not recorded)."""
        if self.sim_wall_s <= 0:
            return 0.0
        return self.events_processed / self.sim_wall_s

    @property
    def makespan_sec(self) -> float:
        return self.makespan_us / US_PER_SEC

    @property
    def label(self) -> str:
        return f"{self.scheduler}-{self.governor}"

    def brief(self) -> str:
        parts = [f"{self.workload} on {self.machine} [{self.label}]",
                 f"time={self.makespan_sec:.3f}s",
                 f"energy={self.energy_joules:.1f}J"]
        if self.underload is not None:
            parts.append(f"underload/s={self.underload.underload_per_second:.2f}")
        if self.freq_dist is not None:
            parts.append(f"top-freq={self.freq_dist.top_bins_fraction():.0%}")
        return "  ".join(parts)


def speedup(baseline_makespans: List[int], candidate_makespans: List[int]) -> float:
    """The paper's speedup: mean(baseline time) / mean(candidate time) - 1.

    Positive values are improvements (they plot above 0 in Figures 5-13).
    """
    if not baseline_makespans or not candidate_makespans:
        raise ValueError("empty sample")
    base = sum(baseline_makespans) / len(baseline_makespans)
    cand = sum(candidate_makespans) / len(candidate_makespans)
    if cand <= 0:
        raise ValueError("non-positive candidate time")
    return base / cand - 1.0


def energy_savings(baseline_j: List[float], candidate_j: List[float]) -> float:
    """Fractional CPU-energy reduction relative to the baseline."""
    if not baseline_j or not candidate_j:
        raise ValueError("empty sample")
    base = sum(baseline_j) / len(baseline_j)
    cand = sum(candidate_j) / len(candidate_j)
    if base <= 0:
        raise ValueError("non-positive baseline energy")
    return 1.0 - cand / base


def improvement_stddev(baseline_mean: float, candidate_values: List[float]) -> float:
    """The paper's error bars: stddev of per-run improvement vs the
    baseline *average* (§5.1)."""
    if not candidate_values:
        return 0.0
    imps = [baseline_mean / v - 1.0 for v in candidate_values]
    mean = sum(imps) / len(imps)
    var = sum((x - mean) ** 2 for x in imps) / len(imps)
    return var ** 0.5
