"""Report assembly: run → analyzer reports → canonical JSON and digests.

:func:`analyze_run` replays a run's event log through the standard
analyzers and wraps their reports in a run-describing envelope.  The
envelope deliberately excludes anything non-deterministic (wall time,
host): the serialized report is byte-identical across repeat runs,
which is what lets the reference reports live as golden files.

:func:`derived_metrics` is the sweep-side sibling: a pure function of a
run's *serialized metrics registry* (no event log needed) computing the
paper-level scalars — wakeup-latency percentiles, placement-tier shares,
the warm share — that ride into history rows beside the raw counters,
where the dashboard's Analysis panel reads them.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Sequence

from ...metrics.quantiles import histogram_quantile
from ..events import SchedEvent
from .base import ANALYSIS_VERSION, AnalysisContext, Analyzer, run_analyzers

#: History/diff prefix of every derived scalar.
DERIVED_PREFIX = "derived."

#: Wakeup-latency percentiles exported as derived metrics.
_WAKEUP_PERCENTILES = (50, 90, 99)

#: Counter families that count placements by search tier: Nest's and
#: scx_nest's (which has no attachment tier).
_TIER_FAMILIES = ("nest.", "scxnest.")

#: The tier counters that partition a run's placements (each policy's
#: ``check_invariants`` sums them to ``placements``) -> derived share
#: names.  All but the CFS fallback land on a warm core.
_TIER_COUNTERS = (
    ("attachment_hits", "share_attach"),
    ("primary_hits", "share_primary"),
    ("reserve_hits", "share_reserve"),
    ("cfs_fallbacks", "share_cfs"),
)


def analyze_run(result: Any, events: Sequence[SchedEvent], *,
                n_cpus: int = 0,
                segments: Optional[Sequence[Any]] = None,
                analyzers: Optional[Sequence[Analyzer]] = None,
                ) -> Dict[str, Any]:
    """The full analysis report of one run.

    ``result`` is a :class:`~repro.metrics.summary.RunResult` (or
    ``None`` when analyzing a bare JSONL event dump — the envelope then
    carries placeholders).  ``segments`` are tracer segments when the
    run recorded them.
    """
    ctx = AnalysisContext(
        makespan_us=getattr(result, "makespan_us", 0) if result else (
            max((ev.t for ev in events), default=0)),
        n_cpus=n_cpus,
        metrics=dict(getattr(result, "metrics", None) or {}),
        segments=segments)
    run_info: Dict[str, Any] = {"n_events": len(events)}
    if result is not None:
        run_info.update({
            "workload": result.workload, "machine": result.machine,
            "scheduler": result.scheduler, "governor": result.governor,
            "seed": result.seed, "makespan_us": result.makespan_us,
            "energy_j": round(result.energy_joules, 6),
        })
    return {
        "analysis_version": ANALYSIS_VERSION,
        "run": run_info,
        "analyzers": run_analyzers(events, ctx, analyzers),
    }


def report_json(report: Dict[str, Any]) -> str:
    """Canonical serialization (what golden files pin byte-for-byte)."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def report_text(report: Dict[str, Any]) -> str:
    """Human-readable digest of a report (the non-``--json`` output)."""
    lines: List[str] = []
    run = report.get("run", {})
    if "workload" in run:
        lines.append(f"{run['workload']} on {run.get('machine', '?')} "
                     f"[{run.get('scheduler', '?')}-"
                     f"{run.get('governor', '?')}] seed={run.get('seed')}")
        lines.append(f"  makespan={run.get('makespan_us', 0):,}µs  "
                     f"energy={run.get('energy_j', 0.0):.1f}J  "
                     f"{run.get('n_events', 0):,} events analyzed")
    a = report.get("analyzers", {})
    lat = a.get("latency_tiers", {})
    overall = lat.get("overall", {})
    if overall.get("n"):
        lines.append(f"latency: {overall['n']} dispatches  "
                     f"p50={overall.get('p50_us')}µs  "
                     f"p99={overall.get('p99_us')}µs  "
                     f"max={overall.get('max_us')}µs")
        for tier, s in sorted(lat.get("tiers", {}).items()):
            lines.append(f"  {tier:12s} n={s['n']:<6} "
                         f"p50={s.get('p50_us')}µs  p99={s.get('p99_us')}µs")
    warm = a.get("warm_cores", {})
    if warm.get("dispatches"):
        lines.append(f"warm cores: {warm['warm']}/{warm['dispatches']} "
                     f"dispatches warm ({warm['warm_fraction']:.1%}, "
                     f"window {warm['window_us']}µs)")
    nest = a.get("nest_dynamics", {})
    if nest.get("transitions"):
        size = nest.get("primary_size", {})
        lines.append(f"nest: {nest['transitions']} transitions "
                     f"({nest['churn_per_s']:.1f}/s), primary size "
                     f"min={size.get('min')} max={size.get('max')} "
                     f"final={size.get('final')} "
                     f"mean={size.get('time_weighted_mean')}")
        lines.append("  by kind: " + "  ".join(
            f"{kind.split('.', 1)[1]}={n}"
            for kind, n in nest.get("by_kind", {}).items()))
    freq = a.get("freq_ramps", {})
    if freq.get("steps"):
        ttp = freq.get("time_to_peak_us")
        lines.append(f"freq: {freq['up_steps']} up-steps over "
                     f"{freq['cores_stepped']} cores"
                     + (f", peak {freq.get('peak_mhz')}MHz reached at "
                        f"{ttp:,}µs" if ttp is not None else ""))
    occ = a.get("occupancy", {})
    if occ:
        lines.append(f"occupancy[{occ.get('source')}]: "
                     f"{occ.get('cores_used')} of {occ.get('n_cpus')} "
                     f"cores used"
                     + (f", mean utilization "
                        f"{occ['mean_utilization']:.1%}"
                        if "mean_utilization" in occ else ""))
        for core in occ.get("top_cores", []):
            if "busy_us" in core:
                lines.append(f"  cpu {core['cpu']:3d}  "
                             f"busy {core['busy_us']:>10,}µs  "
                             f"spin {core['spin_us']:>8,}µs")
            else:
                lines.append(f"  cpu {core['cpu']:3d}  "
                             f"{core['dispatches']:,} dispatches of "
                             f"{core['distinct_tasks']} task(s)")
    spin = a.get("spin_economics", {})
    if spin.get("spins"):
        lines.append(f"spin: {spin['spins']} spins, {spin['spin_us']:,}µs "
                     f"burned, {spin['absorbed_wakeups']} wakeups absorbed "
                     f"({spin['absorbed_fraction_of_spins']:.1%} of spins, "
                     f"{spin['spin_us_per_absorbed']:.0f}µs each)")
    dl = a.get("deadlines", {})
    if dl.get("jobs"):
        line = (f"deadlines: {dl['met']}/{dl['jobs']} met "
                f"({dl['miss_fraction']:.1%} missed), "
                f"{dl['kills']} RT kills, "
                f"{dl['activations']} backup activations")
        recov = dl.get("recovery", {})
        if recov.get("n"):
            line += (f", recovery p50={recov.get('p50_us')}µs "
                     f"max={recov.get('max_us')}µs")
        lines.append(line)
    return "\n".join(lines)


def analysis_digest(report: Dict[str, Any]) -> Dict[str, Any]:
    """A compact, self-describing digest of a report.

    Embedded in fuzz repro files so a ``tests/repros/`` entry records
    what the failing run *looked like* without carrying the full report;
    ``sha256`` fingerprints the canonical JSON.
    """
    sha = hashlib.sha256(
        json.dumps(report, sort_keys=True,
                   separators=(",", ":")).encode()).hexdigest()
    a = report.get("analyzers", {})
    summary: Dict[str, Any] = {}
    overall = a.get("latency_tiers", {}).get("overall", {})
    for key in ("n", "p50_us", "p99_us"):
        if key in overall:
            summary[f"latency_{key}"] = overall[key]
    warm = a.get("warm_cores", {})
    if warm:
        summary["warm_fraction"] = warm.get("warm_fraction")
    spin = a.get("spin_economics", {})
    if spin:
        summary["absorbed_wakeups"] = spin.get("absorbed_wakeups")
    nest = a.get("nest_dynamics", {})
    if nest:
        summary["nest_transitions"] = nest.get("transitions")
    dl = a.get("deadlines", {})
    if dl.get("jobs"):
        summary["deadline_jobs"] = dl.get("jobs")
        summary["deadline_missed"] = dl.get("missed")
    return {"analysis_version": report.get("analysis_version"),
            "sha256": sha, "summary": summary}


def derived_metrics(metrics: Dict[str, Any]) -> Dict[str, float]:
    """Paper-level scalars derived from a serialized metrics registry.

    Pure and post-hoc: computed by the sweep parent from the already
    serialized registry, never in the simulation.  Keys carry the
    ``derived.`` prefix, so they sit beside the raw counters in a
    history row's metrics and the dashboard's Analysis panel can pick
    them out (history rows from before them lack the keys).
    """
    out: Dict[str, float] = {}
    hist = metrics.get("kernel.wakeup_latency_us")
    if isinstance(hist, dict) and hist.get("type") == "histogram":
        for p in _WAKEUP_PERCENTILES:
            q = histogram_quantile(hist["edges"], hist["counts"], p)
            if q is not None:
                out[f"{DERIVED_PREFIX}wakeup_p{p}_us"] = q
    def counter(name: str) -> Optional[int]:
        entry = metrics.get(name)
        if isinstance(entry, dict) and entry.get("type") == "counter":
            return entry["value"]
        return None
    family = next((f for f in _TIER_FAMILIES if counter(f + "placements")),
                  None)
    if family is not None:
        placements = counter(family + "placements")
        warm_hits = 0
        for name, derived in _TIER_COUNTERS:
            v = counter(family + name)
            if v is None:
                continue
            out[DERIVED_PREFIX + derived] = round(v / placements, 6)
            if derived != "share_cfs":
                warm_hits += v
        out[DERIVED_PREFIX + "warm_share"] = round(warm_hits / placements, 6)
        # An impatient placement is also a reserve hit or a CFS pick.
        impatient = counter(family + "impatient_placements")
        if impatient is not None:
            out[DERIVED_PREFIX + "share_impatient"] = round(
                impatient / placements, 6)
    met = counter("kernel.rt_deadline_met")
    missed = counter("kernel.rt_deadline_miss")
    jobs = (met or 0) + (missed or 0)
    if jobs:
        out[DERIVED_PREFIX + "deadline_jobs"] = jobs
        out[DERIVED_PREFIX + "deadline_misses"] = missed or 0
        out[DERIVED_PREFIX + "deadline_miss_fraction"] = round(
            (missed or 0) / jobs, 6)
        out[DERIVED_PREFIX + "deadline_activations"] = counter(
            "kernel.rt_backup_activations") or 0
        out[DERIVED_PREFIX + "deadline_kills"] = counter(
            "kernel.rt_kills") or 0
        recov = metrics.get("kernel.rt_recovery_latency_us")
        if isinstance(recov, dict) and recov.get("type") == "histogram" \
                and recov.get("count"):
            for p in (50, 99):
                q = histogram_quantile(recov["edges"], recov["counts"], p)
                if q is not None:
                    out[f"{DERIVED_PREFIX}deadline_recovery_p{p}_us"] = q
    return out
