"""Serialisation of results to JSON/CSV for external analysis.

The artifact's scripts emit ``.dat``/``.json`` files consumed by its
plotting pipeline; this module provides the equivalent: dump
:class:`RunResult` objects or a :class:`Comparison` to plain dictionaries,
JSON strings or CSV rows.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Dict, Iterable, List

from ..experiments.runner import Comparison
from ..metrics.summary import RunResult


def result_to_dict(res: RunResult) -> Dict[str, Any]:
    """Flatten a RunResult into JSON-serialisable primitives."""
    out: Dict[str, Any] = {
        "scheduler": res.scheduler,
        "governor": res.governor,
        "machine": res.machine,
        "workload": res.workload,
        "seed": res.seed,
        "makespan_us": res.makespan_us,
        "makespan_sec": res.makespan_sec,
        "energy_joules": res.energy_joules,
        "n_tasks": res.n_tasks,
        "n_migrations": res.n_migrations,
        "total_wakeups": res.total_wakeups,
        "wakeup_latency_us": res.wakeup_latency_us,
        "extra": dict(res.extra),
        "metrics": dict(res.metrics),
    }
    if res.underload is not None:
        out["underload_per_second"] = res.underload.underload_per_second
        out["overload_per_second"] = res.underload.overload_per_second
        out["total_underload"] = res.underload.total_underload
    if res.freq_dist is not None:
        out["freq_distribution"] = res.freq_dist.as_dict()
        out["mean_busy_ghz"] = res.freq_dist.mean_ghz()
    return out


def results_to_json(results: Iterable[RunResult], indent: int = 2) -> str:
    """Serialise a collection of results to a JSON array."""
    return json.dumps([result_to_dict(r) for r in results], indent=indent)


#: Column order of the CSV export (scalar fields only).
CSV_FIELDS = (
    "workload", "machine", "scheduler", "governor", "seed",
    "makespan_us", "energy_joules", "underload_per_second",
    "n_tasks", "n_migrations", "total_wakeups",
)


def results_to_csv(results: Iterable[RunResult]) -> str:
    """Serialise results to CSV (one row per run)."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS,
                            extrasaction="ignore")
    writer.writeheader()
    for res in results:
        writer.writerow(result_to_dict(res))
    return buf.getvalue()


def comparison_to_dict(cmp: Comparison) -> Dict[str, Any]:
    """Flatten a Comparison (the per-figure aggregate) for JSON output."""
    combos: List[Dict[str, Any]] = []
    for (sched, gov), stats in cmp.combos.items():
        combos.append({
            "scheduler": sched,
            "governor": gov,
            "mean_makespan_us": stats.mean_makespan_us,
            "mean_energy_joules": stats.mean_energy_j,
            "mean_underload_per_second": stats.mean_underload_per_s,
            "speedup_vs_baseline": cmp.speedup_of(sched, gov),
            "energy_savings_vs_baseline": cmp.energy_savings_of(sched, gov),
            "error_bar": cmp.error_bar_of(sched, gov),
            "n_runs": len(stats.makespans_us),
        })
    return {"workload": cmp.workload, "machine": cmp.machine,
            "baseline": "cfs-schedutil", "combos": combos}


def comparison_to_json(cmp: Comparison, indent: int = 2) -> str:
    return json.dumps(comparison_to_dict(cmp), indent=indent)
