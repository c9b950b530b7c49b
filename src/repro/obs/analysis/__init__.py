"""Trace analysis: derived paper metrics from a run's event log.

A streaming analyzer framework (DESIGN.md §9): a run's structured event
log — live from ``collect_events``, or re-read from a JSONL dump — is
replayed once through composable single-pass analyzers, each producing
a deterministic, JSON-serializable report fragment.  Strictly post-hoc:
nothing here runs during simulation.

* :mod:`~repro.obs.analysis.base` — the :class:`Analyzer` protocol,
  :class:`AnalysisContext` and :func:`run_analyzers`, the single
  pass that routes each event to the analyzers of its kind.
* :mod:`~repro.obs.analysis.analyzers` — the seven standard analyzers
  (latency tiers, warm cores, nest dynamics, freq ramps, occupancy,
  spin economics, deadlines).
* :mod:`~repro.obs.analysis.report` — report assembly, canonical JSON,
  repro digests, and the ``derived.*`` scalars history rows carry.
* :mod:`~repro.obs.analysis.diff` — cross-run attribution ("run A is
  slower than run B because…").
* :mod:`~repro.obs.analysis.query` — event filtering for
  ``repro obs query``.
"""

from .base import (ANALYSIS_VERSION, AnalysisContext, Analyzer,
                   default_analyzers, run_analyzers)
from .diff import (MetricMove, diff_reports, flatten_numeric, rank_moves,
                   render_attribution)
from .query import EventFilter, filter_events, render_events_table
from .report import (analysis_digest, analyze_run, derived_metrics,
                     report_json, report_text)

__all__ = [
    "ANALYSIS_VERSION", "AnalysisContext", "Analyzer",
    "default_analyzers", "run_analyzers",
    "MetricMove", "diff_reports", "flatten_numeric", "rank_moves",
    "render_attribution",
    "EventFilter", "filter_events", "render_events_table",
    "analysis_digest", "analyze_run", "derived_metrics", "report_json",
    "report_text",
]
