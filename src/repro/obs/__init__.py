"""Unified observability layer.

Designed to cost nothing when nobody is looking.  Per-run pieces:

* :mod:`repro.obs.events` — the typed, timestamped record vocabulary: one
  :class:`~repro.obs.events.SchedEvent` per scheduler decision (placement,
  nest transition, wakeup, preemption, DVFS step, spin start/stop).
* :mod:`repro.obs.log` — the :class:`~repro.obs.log.EventLog` hub the
  simulator emits into.  Hot paths guard every emission with
  ``if obs.enabled:``, so a run with no sinks attached allocates no event
  objects and pays one attribute read per potential emission.
* :mod:`repro.obs.metrics` — the :class:`~repro.obs.metrics.MetricsRegistry`
  of named counters and fixed-bucket histograms.  Always on (the
  kernel's and every policy's counters live here) and serialized into
  :class:`~repro.metrics.summary.RunResult` and the result cache.
* :mod:`repro.obs.export` — exporters: Perfetto/Chrome ``trace_event``
  JSON (open it at https://ui.perfetto.dev) and a JSONL event dump.
* :mod:`repro.obs.analysis` — the analyzers that replay a run's event
  log; their report is the one text digest of a run
  (``repro obs analyze``).

Sweep-level pieces (see DESIGN.md §8):

* :mod:`repro.obs.progress` — the live/plain progress views
  (``--progress``) the sweep executor tells of each run as it finishes.
* :mod:`repro.obs.history` — sqlite-backed run-history store behind the
  ``repro history`` CLI: every sweep is recorded, with each simulated
  run's worker pid and wall-clock times; ``history show`` prints one,
  ``export-trajectory`` generates ``BENCH_trajectory.json`` entries.
* :mod:`repro.obs.dashboard` — ``repro obs dashboard``: a self-contained
  static HTML rendering of a sweep plus its history, worker timeline
  included (stdlib only, inline CSS/SVG, no scripts).
"""

from .events import EVENT_KINDS, SchedEvent
from .log import EventLog
from .metrics import Counter, Histogram, MetricsRegistry

__all__ = [
    "EVENT_KINDS",
    "SchedEvent",
    "EventLog",
    "Counter",
    "Histogram",
    "MetricsRegistry",
]
