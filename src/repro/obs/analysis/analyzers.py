"""The seven standard analyzers: the paper's claims, computed from events.

Each one is a small single-pass state machine over the structured event
log (see :mod:`repro.obs.events` for the vocabulary and emission-order
guarantees the analyzers rely on):

* ``latency_tiers`` — wakeup→dispatch latency percentiles split by the
  §3 placement tier that chose the core (``sched.dispatch`` carries the
  latency; the task's most recent ``place.*`` event names the tier).
* ``warm_cores`` — the paper's central claim: what fraction of
  dispatches landed on a core that was active within the warm window
  (:data:`WARM_WINDOW_US`).
* ``nest_dynamics`` — primary-nest size timeline, churn rate and the
  §3.1 compaction/expansion cadence from the ``nest.*`` transitions.
* ``freq_ramps`` — §2.3: up-steps per core, time until each core (and
  the run) first reached its peak frequency, and wall-time residency
  per DVFS state (busy-time residency lives in ``metrics/freqdist``).
* ``occupancy`` — per-core gantt summary (busy/spin/idle) from tracer
  segments when recorded, degrading to dispatch counts otherwise.
* ``spin_economics`` — §3.2: time burned spinning vs wakeups the spin
  absorbed (the kernel stops the spin and dispatches at the same
  timestamp, which is how absorption is detected).
* ``deadlines`` — fault-tolerant RT (DESIGN.md §10): deadline outcomes,
  RT kills, backup activations and promotion→completion recovery
  latency, from the ``rt.*`` event family.

Everything rounds through :func:`_ratio` so reports serialize to stable
decimals; all iteration over accumulated dicts is sorted.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from ...metrics.quantiles import percentile
from ..events import (FREQ_STEP, NEST_TRANSITION_KINDS, PLACEMENT_KINDS,
                      PLACEMENT_TIERS, RT_BACKUP_ACTIVATE, RT_DEADLINE_MET,
                      RT_DEADLINE_MISS, RT_KILL, RT_KINDS, SCHED_DISPATCH,
                      SCHED_PREEMPT, SPIN_START, SPIN_STOP,
                      UNATTRIBUTED_TIER, SchedEvent, placement_tier)
from .base import Analyzer, AnalysisContext

#: Percentiles every latency summary reports.
LATENCY_PERCENTILES = (50, 90, 99)

#: The warm window: a core counts as warm for a dispatch when it was
#: last active at most this many simulated microseconds earlier (about
#: one scheduling tick on the modeled machines).
WARM_WINDOW_US = 1000


def _ratio(num: float, den: float, digits: int = 6) -> float:
    """A rounded fraction (0.0 when the denominator is empty)."""
    return round(num / den, digits) if den else 0.0


def _latency_summary(samples: List[int]) -> Dict[str, Any]:
    out: Dict[str, Any] = {"n": len(samples)}
    if samples:
        out["mean_us"] = round(sum(samples) / len(samples), 3)
        out["max_us"] = max(samples)
        for p in LATENCY_PERCENTILES:
            out[f"p{p}_us"] = percentile(samples, p)
    return out


class LatencyTierAnalyzer(Analyzer):
    """Wakeup→dispatch latency, attributed to the placing search tier."""

    name = "latency_tiers"
    kinds = frozenset(PLACEMENT_KINDS) | {SCHED_DISPATCH}
    #: Tasks listed by total dispatch latency.
    TOP_TASKS = 5

    def __init__(self) -> None:
        self._tier_of_task: Dict[int, str] = {}
        self._by_tier: Dict[str, List[int]] = {}
        self._overall: List[int] = []
        # task -> [dispatches, total latency, max latency]
        self._per_task: Dict[int, List[int]] = {}

    def feed(self, ev: SchedEvent) -> None:
        if ev.kind in PLACEMENT_KINDS:
            self._tier_of_task[ev.task] = placement_tier(ev.kind)
        else:   # sched.dispatch
            tier = self._tier_of_task.get(ev.task, UNATTRIBUTED_TIER)
            self._by_tier.setdefault(tier, []).append(ev.value)
            self._overall.append(ev.value)
            acc = self._per_task.setdefault(ev.task, [0, 0, 0])
            acc[0] += 1
            acc[1] += ev.value
            acc[2] = max(acc[2], ev.value)

    def finish(self, ctx: AnalysisContext) -> Dict[str, Any]:
        tiers = {}
        for tier in PLACEMENT_TIERS + (UNATTRIBUTED_TIER,):
            samples = self._by_tier.get(tier)
            if samples:
                tiers[tier] = _latency_summary(samples)
        ranked = sorted(self._per_task.items(),
                        key=lambda kv: (-kv[1][1], kv[0]))
        top = [{"task": task, "dispatches": n, "total_us": total,
                "max_us": peak}
               for task, (n, total, peak) in ranked[:self.TOP_TASKS]]
        return {"overall": _latency_summary(self._overall),
                "tiers": tiers, "top_tasks": top}


class WarmCoreAnalyzer(Analyzer):
    """Fraction of dispatches landing on a recently-active (warm) core."""

    name = "warm_cores"

    #: Event kinds that prove the core was just active (spinning counts:
    #: §3.2 keeps the core awake at high frequency on purpose).
    _ACTIVITY = frozenset({SCHED_DISPATCH, SCHED_PREEMPT,
                           SPIN_START, SPIN_STOP})
    kinds = frozenset(PLACEMENT_KINDS) | _ACTIVITY

    def __init__(self) -> None:
        self._last_active: Dict[int, int] = {}
        self._tier_of_task: Dict[int, str] = {}
        self._pending: List[tuple] = []   # (tier, age_us or None)

    def feed(self, ev: SchedEvent) -> None:
        if ev.kind in PLACEMENT_KINDS:
            self._tier_of_task[ev.task] = placement_tier(ev.kind)
            return
        if ev.kind == SCHED_DISPATCH:
            tier = self._tier_of_task.get(ev.task, UNATTRIBUTED_TIER)
            seen = self._last_active.get(ev.cpu)
            self._pending.append(
                (tier, None if seen is None else ev.t - seen))
        if ev.cpu >= 0:
            self._last_active[ev.cpu] = ev.t

    def finish(self, ctx: AnalysisContext) -> Dict[str, Any]:
        window = WARM_WINDOW_US
        total = warm = 0
        per_tier: Dict[str, List[int]] = {}
        for tier, age in self._pending:
            acc = per_tier.setdefault(tier, [0, 0])
            acc[0] += 1
            total += 1
            if age is not None and age <= window:
                acc[1] += 1
                warm += 1
        tiers = {tier: {"dispatches": n, "warm": w,
                        "warm_fraction": _ratio(w, n)}
                 for tier, (n, w) in sorted(per_tier.items())}
        return {"window_us": window, "dispatches": total, "warm": warm,
                "warm_fraction": _ratio(warm, total), "tiers": tiers}


class NestDynamicsAnalyzer(Analyzer):
    """Primary-nest size over time, churn and transition cadence."""

    name = "nest_dynamics"
    kinds = NEST_TRANSITION_KINDS
    #: Size samples the timeline is thinned to (the final one is kept).
    TIMELINE_POINTS = 64

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}
        self._sizes: List[tuple] = []      # (t, primary size after)
        self._last_by_kind: Dict[str, int] = {}
        self._gaps: Dict[str, List[int]] = {}

    def feed(self, ev: SchedEvent) -> None:
        self._counts[ev.kind] = self._counts.get(ev.kind, 0) + 1
        self._sizes.append((ev.t, ev.value))
        prev = self._last_by_kind.get(ev.kind)
        if prev is not None:
            self._gaps.setdefault(ev.kind, []).append(ev.t - prev)
        self._last_by_kind[ev.kind] = ev.t

    def finish(self, ctx: AnalysisContext) -> Dict[str, Any]:
        n = len(self._sizes)
        out: Dict[str, Any] = {
            "transitions": n,
            "by_kind": dict(sorted(self._counts.items())),
            "churn_per_s": _ratio(n * 1_000_000, ctx.makespan_us, 3),
        }
        if self._sizes:
            values = [s for _, s in self._sizes]
            # Time-weighted mean of the size step function (size 0 until
            # the first transition — the nest starts empty).
            weighted = 0
            prev_t, prev_size = 0, 0
            for t, size in self._sizes:
                weighted += prev_size * (t - prev_t)
                prev_t, prev_size = t, size
            if ctx.makespan_us > prev_t:
                weighted += prev_size * (ctx.makespan_us - prev_t)
            out["primary_size"] = {
                "min": min(values), "max": max(values),
                "final": values[-1],
                "time_weighted_mean": _ratio(weighted,
                                             max(ctx.makespan_us, prev_t), 3),
            }
            pts = self._sizes
            if len(pts) > self.TIMELINE_POINTS:
                step = len(pts) / self.TIMELINE_POINTS
                pts = [pts[int(i * step)]
                       for i in range(self.TIMELINE_POINTS)]
                pts.append(self._sizes[-1])
            out["timeline"] = [[t, size] for t, size in pts]
        cadence = {}
        for kind, gaps in sorted(self._gaps.items()):
            cadence[kind] = {"n_gaps": len(gaps),
                             "mean_gap_us": round(sum(gaps) / len(gaps), 1)}
        out["cadence"] = cadence
        return out


class FreqRampAnalyzer(Analyzer):
    """DVFS ramps: up-steps, time to peak, wall-time state residency."""

    name = "freq_ramps"
    kinds = frozenset({FREQ_STEP})

    def __init__(self) -> None:
        self._freq: Dict[int, int] = {}       # core -> current MHz
        self._since: Dict[int, int] = {}      # core -> t of last step
        self._residency: Dict[int, int] = {}  # MHz -> accumulated µs
        self._up_steps = 0
        self._down_steps = 0
        self._steps = 0
        self._core_peak: Dict[int, tuple] = {}   # core -> (peak MHz, first t)

    def feed(self, ev: SchedEvent) -> None:
        core, mhz = ev.cpu, ev.value
        self._steps += 1
        prev = self._freq.get(core)
        if prev is not None:
            self._residency[prev] = (self._residency.get(prev, 0)
                                     + ev.t - self._since[core])
            if mhz > prev:
                self._up_steps += 1
            elif mhz < prev:
                self._down_steps += 1
        self._freq[core] = mhz
        self._since[core] = ev.t
        peak = self._core_peak.get(core)
        if peak is None or mhz > peak[0]:
            self._core_peak[core] = (mhz, ev.t)

    def finish(self, ctx: AnalysisContext) -> Dict[str, Any]:
        # Close every core's final residency interval at makespan.
        residency = dict(self._residency)
        for core, mhz in self._freq.items():
            tail = max(ctx.makespan_us - self._since[core], 0)
            residency[mhz] = residency.get(mhz, 0) + tail
        total_us = sum(residency.values())
        states = [{"mhz": mhz, "us": us, "fraction": _ratio(us, total_us)}
                  for mhz, us in sorted(residency.items())]
        out: Dict[str, Any] = {
            "steps": self._steps, "up_steps": self._up_steps,
            "down_steps": self._down_steps,
            "cores_stepped": len(self._freq),
            "residency_basis": "wall",   # freqdist weights by busy time
            "residency": states,
        }
        if self._core_peak:
            peak_mhz = max(mhz for mhz, _ in self._core_peak.values())
            out["peak_mhz"] = peak_mhz
            out["time_to_peak_us"] = min(
                t for mhz, t in self._core_peak.values() if mhz == peak_mhz)
            own_peaks = [t for _, t in self._core_peak.values()]
            out["core_time_to_own_peak_us"] = {
                "mean": round(sum(own_peaks) / len(own_peaks), 1),
                "max": max(own_peaks),
            }
        return out


class OccupancyAnalyzer(Analyzer):
    """Per-core gantt summary: busy/spin time and task spread."""

    name = "occupancy"
    kinds = frozenset({SCHED_DISPATCH})
    #: Busiest cores listed.
    TOP_CORES = 8

    def __init__(self) -> None:
        self._dispatches: Dict[int, int] = {}
        self._tasks: Dict[int, Set[int]] = {}

    def feed(self, ev: SchedEvent) -> None:
        self._dispatches[ev.cpu] = self._dispatches.get(ev.cpu, 0) + 1
        self._tasks.setdefault(ev.cpu, set()).add(ev.task)

    def finish(self, ctx: AnalysisContext) -> Dict[str, Any]:
        if ctx.segments:
            return self._from_segments(ctx)
        ranked = sorted(self._dispatches.items(),
                        key=lambda kv: (-kv[1], kv[0]))
        cores = [{"cpu": cpu, "dispatches": n,
                  "distinct_tasks": len(self._tasks[cpu])}
                 for cpu, n in ranked[:self.TOP_CORES]]
        return {"source": "events", "cores_used": len(self._dispatches),
                "n_cpus": ctx.n_cpus, "top_cores": cores}

    def _from_segments(self, ctx: AnalysisContext) -> Dict[str, Any]:
        busy: Dict[int, int] = {}
        spin: Dict[int, int] = {}
        for seg in ctx.segments:
            if seg.spinning:
                spin[seg.core] = spin.get(seg.core, 0) + seg.duration
            elif seg.task_id >= 0:
                busy[seg.core] = busy.get(seg.core, 0) + seg.duration
        used = sorted(set(busy) | set(spin))
        span = ctx.makespan_us or 1
        ranked = sorted(used, key=lambda c: (-(busy.get(c, 0)
                                               + spin.get(c, 0)), c))
        cores = [{"cpu": c, "busy_us": busy.get(c, 0),
                  "spin_us": spin.get(c, 0),
                  "utilization": _ratio(busy.get(c, 0), span),
                  "dispatches": self._dispatches.get(c, 0)}
                 for c in ranked[:self.TOP_CORES]]
        total_busy = sum(busy.values())
        total_spin = sum(spin.values())
        return {"source": "segments", "cores_used": len(used),
                "n_cpus": ctx.n_cpus,
                "busy_us": total_busy, "spin_us": total_spin,
                "idle_us": max(span * (ctx.n_cpus or len(used))
                               - total_busy - total_spin, 0),
                "mean_utilization": _ratio(total_busy,
                                           span * (ctx.n_cpus or 1)),
                "top_cores": cores}


class DeadlineAnalyzer(Analyzer):
    """Fault-tolerant RT outcomes from the ``rt.*`` event family.

    ``rt.deadline_met``/``miss`` carry the *primary's* tid;
    ``rt.backup_activate`` carries the backup's tid with the dead
    primary's tid in ``value``, which is how a promotion is matched to
    the job outcome it eventually produces (the recovery latency).
    Misses additionally yield tardiness: the accounting time minus the
    absolute deadline the event carries in ``value``.
    """

    name = "deadlines"
    kinds = RT_KINDS

    def __init__(self) -> None:
        self._met = 0
        self._missed = 0
        self._kills = 0
        self._activations = 0
        self._places_disjoint = 0
        self._places_fallback = 0
        self._activated_at: Dict[int, int] = {}   # primary tid -> t
        self._recovery: List[int] = []
        self._tardiness: List[int] = []

    def feed(self, ev: SchedEvent) -> None:
        if ev.kind == RT_DEADLINE_MET:
            self._met += 1
            self._close_recovery(ev)
        elif ev.kind == RT_DEADLINE_MISS:
            self._missed += 1
            self._close_recovery(ev)
            if ev.t > ev.value:
                self._tardiness.append(ev.t - ev.value)
        elif ev.kind == RT_KILL:
            self._kills += 1
        elif ev.kind == RT_BACKUP_ACTIVATE:
            self._activations += 1
            self._activated_at[ev.value] = ev.t
        else:   # rt.backup_place
            if ev.value >= 0:
                self._places_disjoint += 1
            else:
                self._places_fallback += 1

    def _close_recovery(self, ev: SchedEvent) -> None:
        started = self._activated_at.pop(ev.task, None)
        if started is not None:
            self._recovery.append(ev.t - started)

    def finish(self, ctx: AnalysisContext) -> Dict[str, Any]:
        jobs = self._met + self._missed
        return {
            "jobs": jobs,
            "met": self._met,
            "missed": self._missed,
            "miss_fraction": _ratio(self._missed, jobs),
            "kills": self._kills,
            "activations": self._activations,
            "backup_placements": {"disjoint": self._places_disjoint,
                                  "fallback": self._places_fallback},
            "recovery": _latency_summary(self._recovery),
            "tardiness": _latency_summary(self._tardiness),
        }


class SpinEconomicsAnalyzer(Analyzer):
    """§3.2 spin economics: time burned spinning vs wakeups absorbed."""

    name = "spin_economics"
    kinds = frozenset({SPIN_START, SPIN_STOP, SCHED_DISPATCH})

    def __init__(self) -> None:
        self._open: Dict[int, int] = {}       # cpu -> spin start t
        self._stopped_at: Dict[int, int] = {}  # cpu -> t of last spin.stop
        self._spins = 0
        self._spin_us = 0
        self._absorbed = 0
        self._dispatches = 0

    def feed(self, ev: SchedEvent) -> None:
        if ev.kind == SPIN_START:
            self._open[ev.cpu] = ev.t
        elif ev.kind == SPIN_STOP:
            start = self._open.pop(ev.cpu, None)
            if start is not None:
                self._spins += 1
                self._spin_us += ev.t - start
                self._stopped_at[ev.cpu] = ev.t
        else:   # sched.dispatch
            self._dispatches += 1
            # A wakeup absorbed by the spin: the kernel stops the spin
            # and dispatches at the same timestamp (spin.stop precedes
            # sched.dispatch in the log).
            if (ev.cpu in self._open
                    or self._stopped_at.get(ev.cpu) == ev.t):
                self._absorbed += 1

    def finish(self, ctx: AnalysisContext) -> Dict[str, Any]:
        return {
            "spins": self._spins,
            "unfinished_spins": len(self._open),
            "spin_us": self._spin_us,
            "mean_spin_us": _ratio(self._spin_us, self._spins, 1),
            "dispatches": self._dispatches,
            "absorbed_wakeups": self._absorbed,
            "absorbed_fraction_of_spins": _ratio(self._absorbed,
                                                 self._spins),
            "absorbed_fraction_of_dispatches": _ratio(self._absorbed,
                                                      self._dispatches),
            "spin_us_per_absorbed": _ratio(self._spin_us, self._absorbed, 1),
        }
