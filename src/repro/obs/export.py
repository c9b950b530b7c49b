"""Exporters: Perfetto/Chrome trace JSON and JSONL event dumps.

The Chrome ``trace_event`` format (the JSON flavour Perfetto's
https://ui.perfetto.dev loads directly) renders the paper's Figure-2/8/9
story interactively: one track per hardware thread showing task and spin
segments, counter tracks for per-core frequency and primary-nest size, and
instant events marking every nest transition.  Timestamps are already in
microseconds — the trace_event native unit — so simulated times pass
through unscaled.

``validate_chrome_trace`` is the schema check CI runs against the exported
artifact; it is hand-rolled (no jsonschema dependency in the container).
"""

from __future__ import annotations

import json
from typing import (Any, Dict, Iterable, List, Optional, Sequence, TextIO,
                    Tuple)

from ..sim.trace import Segment
from .events import (EVENT_KINDS, FAULT_KINDS, FREQ_STEP,
                     NEST_TRANSITION_KINDS, SchedEvent, event_from_dict,
                     event_to_dict)

#: pid of each synthetic "process" (Perfetto process-track grouping).
PID_CORES = 0
PID_FREQ = 1
PID_NEST = 2


def chrome_trace(
    segments: Sequence[Segment],
    events: Sequence[SchedEvent] = (),
    n_cpus: Optional[int] = None,
    label: str = "nest-repro",
) -> Dict[str, Any]:
    """Build a Chrome trace_event document from a run's raw telemetry.

    ``segments`` come from a :class:`~repro.sim.trace.Tracer` with
    ``record_segments=True``; ``events`` from an attached
    :class:`~repro.obs.log.EventLog` memory sink.  The output is fully
    deterministic for a deterministic run (stable ordering, sorted keys on
    serialisation) — the golden-file test pins it.
    """
    if n_cpus is None:
        n_cpus = 1 + max(
            [s.core for s in segments] + [e.cpu for e in events if e.cpu >= 0],
            default=0)
    out: List[Dict[str, Any]] = []

    out.append({"ph": "M", "pid": PID_CORES, "tid": 0,
                "name": "process_name", "args": {"name": f"{label}: cores"}})
    for cpu in range(n_cpus):
        out.append({"ph": "M", "pid": PID_CORES, "tid": cpu,
                    "name": "thread_name", "args": {"name": f"cpu {cpu}"}})
        out.append({"ph": "M", "pid": PID_CORES, "tid": cpu,
                    "name": "thread_sort_index", "args": {"sort_index": cpu}})
    out.append({"ph": "M", "pid": PID_FREQ, "tid": 0, "name": "process_name",
                "args": {"name": f"{label}: frequency (MHz)"}})
    out.append({"ph": "M", "pid": PID_NEST, "tid": 0, "name": "process_name",
                "args": {"name": f"{label}: nest"}})

    for seg in sorted(segments, key=lambda s: (s.core, s.start, s.end)):
        name = "spin" if seg.spinning else f"task {seg.task_id}"
        out.append({
            "ph": "X", "pid": PID_CORES, "tid": seg.core,
            "ts": seg.start, "dur": seg.end - seg.start, "name": name,
            "args": {"freq_mhz": seg.freq_mhz, "task": seg.task_id,
                     "spinning": seg.spinning},
        })

    for ev in events:
        if ev.kind == FREQ_STEP:
            out.append({
                "ph": "C", "pid": PID_FREQ, "tid": 0, "ts": ev.t,
                "name": f"core {ev.cpu} MHz", "args": {"mhz": ev.value},
            })
        elif ev.kind in NEST_TRANSITION_KINDS:
            out.append({
                "ph": "i", "pid": PID_CORES,
                "tid": ev.cpu if ev.cpu >= 0 else 0,
                "ts": ev.t, "s": "t", "name": ev.kind,
                "args": {"task": ev.task, "primary_size": ev.value},
            })
            out.append({
                "ph": "C", "pid": PID_NEST, "tid": 0, "ts": ev.t,
                "name": "primary nest size", "args": {"cores": ev.value},
            })
        elif ev.kind in FAULT_KINDS:
            out.append({
                "ph": "i", "pid": PID_CORES,
                "tid": ev.cpu if ev.cpu >= 0 else 0,
                "ts": ev.t, "s": "t", "name": ev.kind,
                "args": {"task": ev.task, "value": ev.value},
            })

    return {"traceEvents": out, "displayTimeUnit": "ms",
            "otherData": {"producer": label}}


def write_chrome_trace(path: str, segments: Sequence[Segment],
                       events: Sequence[SchedEvent] = (),
                       n_cpus: Optional[int] = None,
                       label: str = "nest-repro") -> None:
    doc = chrome_trace(segments, events, n_cpus=n_cpus, label=label)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))


def validate_chrome_trace(doc: Any) -> List[str]:
    """Schema check of a trace document; returns problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return ["document is not an object with a 'traceEvents' array"]
    evs = doc["traceEvents"]
    if not isinstance(evs, list):
        return ["'traceEvents' is not an array"]
    for i, ev in enumerate(evs):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "C", "i", "M"):
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        for key in ("pid", "tid", "name"):
            if key not in ev:
                problems.append(f"{where}: missing {key!r}")
        if ph in ("X", "C", "i") and not isinstance(ev.get("ts"), int):
            problems.append(f"{where}: ts must be an integer timestamp")
        if ph == "X":
            if not isinstance(ev.get("dur"), int) or ev.get("dur", -1) < 0:
                problems.append(f"{where}: X event needs a non-negative dur")
        if ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict) or not args or not all(
                    isinstance(v, (int, float)) for v in args.values()):
                problems.append(f"{where}: C event args must be numeric")
        if ph == "i":
            if ev.get("s") not in ("t", "p", "g"):
                problems.append(f"{where}: instant scope must be t/p/g")
            if ev.get("name") not in EVENT_KINDS:
                problems.append(f"{where}: unknown instant {ev.get('name')!r}")
    return problems


# ---------------------------------------------------------------------------
# JSONL event dump
# ---------------------------------------------------------------------------

#: The key of the record a dump starts with: ``{"header": {"machine":
#: key, "n_cpus": N}}`` names the machine the events ran on.  It is not an
#: event, and the reader does not return it as one.
HEADER_KEY = "header"


def events_to_jsonl(events: Iterable[SchedEvent], fh: TextIO,
                    header: Dict[str, Any]) -> int:
    """Write the ``header`` record (for example the machine key and its
    cpu count), then one JSON object per event; returns the number of
    events written."""
    fh.write(json.dumps({HEADER_KEY: header},
                        sort_keys=True, separators=(",", ":")))
    fh.write("\n")
    n = 0
    for ev in events:
        fh.write(json.dumps(event_to_dict(ev),
                            sort_keys=True, separators=(",", ":")))
        fh.write("\n")
        n += 1
    return n


def events_from_jsonl(
        fh: TextIO) -> Tuple[Optional[Dict[str, Any]], List[SchedEvent]]:
    """Read a JSONL event dump: its header (``None`` for a dump written
    without one) and its :class:`SchedEvent` records.

    An event dump is written whole by :func:`events_to_jsonl`, so a
    malformed line means the file is not an event dump — raise with the
    line number rather than silently analyzing half a log.  Only the
    first record may be the header.
    """
    header: Optional[Dict[str, Any]] = None
    out: List[SchedEvent] = []
    first = True
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            if first and HEADER_KEY in rec:
                header = dict(rec[HEADER_KEY])
            else:
                out.append(event_from_dict(rec))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"line {lineno}: not an event record ({exc})") from None
        first = False
    return header, out
