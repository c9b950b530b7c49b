"""Persistent run history: every finished sweep, one row each.

A sweep's history row is its one record: it answers "what did this sweep
do".  A :class:`HistoryStore` is a single sqlite file (usually
``<cache>/history.sqlite``) that
:class:`~repro.experiments.parallel.SweepExecutor` appends to when a
sweep ends: one row per sweep (stats, git sha, wall time, hardening
counters) and one row per run (spec key, outcome, wall time, makespan,
energy, peak RSS, scalar metrics, and for a run simulated in that sweep
the worker pid and wall-clock start and end the dashboard's timeline
draws).  Two columns have no writer and new rows leave them NULL: the
runs table's ``engine``, which predates the single simulation engine,
and the sweeps table's ``label``.  ``repro history list`` and ``show``
print the rows, and ``repro obs dashboard`` renders them.

:func:`trajectory_entries` turns ``perfbench/run.py --trace 0`` stdouts
into ``BENCH_trajectory.json`` entries (one per PR and workload), so the
perf trajectory is *generated* from measurements instead of
hand-written.

Schema versioning: the sqlite ``user_version`` pragma tracks the schema
generation; :data:`MIGRATIONS` is an ordered list whose *i*-th entry
upgrades version *i* to *i+1*.  Opening a store applies any pending
migrations inside one transaction, so old history files keep working
across PRs (a new column arrives as a migration, never as a breaking
re-create).
"""

from __future__ import annotations

import json
import os
import platform
import re
import sqlite3
import subprocess
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["HistoryStore", "parse_perfbench", "trajectory_entries",
           "append_trajectory", "git_sha", "host"]

#: Same-host seed-tree medians written by ``perfbench/seed_reference.py``
#: (relative to the checkout root, like ``BENCH_trajectory.json``).
SEED_REFERENCE = Path("perfbench") / "seed_reference.json"


def git_sha() -> str:
    """Short sha of the working tree's HEAD ('unknown' outside a repo)."""
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, check=True,
                              timeout=10).stdout.strip()
    except Exception:
        return "unknown"


# ---------------------------------------------------------------------------
# Schema + migrations
# ---------------------------------------------------------------------------

def _migrate_to_v1(con: sqlite3.Connection) -> None:
    """v0 (empty file) -> v1: the initial sweeps/runs schema."""
    con.execute("""
        CREATE TABLE sweeps (
            id          INTEGER PRIMARY KEY AUTOINCREMENT,
            uid         TEXT UNIQUE NOT NULL,
            ts          REAL NOT NULL,
            label       TEXT,
            git_sha     TEXT,
            interrupted INTEGER NOT NULL DEFAULT 0,
            n_specs     INTEGER NOT NULL DEFAULT 0,
            simulated   INTEGER NOT NULL DEFAULT 0,
            cache_hits  INTEGER NOT NULL DEFAULT 0,
            retried     INTEGER NOT NULL DEFAULT 0,
            timeouts    INTEGER NOT NULL DEFAULT 0,
            skipped     INTEGER NOT NULL DEFAULT 0,
            degraded    INTEGER NOT NULL DEFAULT 0,
            workers     INTEGER NOT NULL DEFAULT 0,
            wall_s      REAL NOT NULL DEFAULT 0,
            events      INTEGER NOT NULL DEFAULT 0,
            stats_json  TEXT NOT NULL DEFAULT '{}'
        )""")
    con.execute("""
        CREATE TABLE runs (
            id          INTEGER PRIMARY KEY AUTOINCREMENT,
            sweep_id    INTEGER NOT NULL REFERENCES sweeps(id)
                        ON DELETE CASCADE,
            label       TEXT NOT NULL,
            spec_key    TEXT,
            engine      TEXT,
            seed        INTEGER,
            outcome     TEXT NOT NULL,
            cached      INTEGER NOT NULL DEFAULT 0,
            completed   INTEGER NOT NULL DEFAULT 0,
            attempts    INTEGER NOT NULL DEFAULT 0,
            sim_wall_s  REAL,
            events      INTEGER,
            makespan_us INTEGER,
            energy_j    REAL,
            rss_peak_kb INTEGER,
            metrics_json TEXT,
            error       TEXT
        )""")
    con.execute("CREATE INDEX idx_runs_sweep ON runs(sweep_id)")
    con.execute("CREATE INDEX idx_runs_spec ON runs(spec_key)")


def _migrate_to_v2(con: sqlite3.Connection) -> None:
    """v1 -> v2: who ran each run and when (rows from v1 read NULL)."""
    for column in ("pid INTEGER", "started REAL", "ended REAL"):
        con.execute(f"ALTER TABLE runs ADD COLUMN {column}")


#: Ordered migrations; entry *i* upgrades ``user_version`` i -> i+1.
#: Append, never edit: old history files replay the whole chain.
MIGRATIONS = [_migrate_to_v1, _migrate_to_v2]

SCHEMA_VERSION = len(MIGRATIONS)


class HistoryStore:
    """Sqlite-backed archive of completed sweeps and their runs."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._con = sqlite3.connect(str(self.path))
        self._con.row_factory = sqlite3.Row
        self._migrate()

    def close(self) -> None:
        self._con.close()

    def __enter__(self) -> "HistoryStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _migrate(self) -> None:
        version = self._con.execute("PRAGMA user_version").fetchone()[0]
        if version > SCHEMA_VERSION:
            raise RuntimeError(
                f"history file {self.path} is schema v{version}, newer than "
                f"this code's v{SCHEMA_VERSION} — refusing to touch it")
        while version < SCHEMA_VERSION:
            with self._con:
                MIGRATIONS[version](self._con)
                version += 1
                self._con.execute(f"PRAGMA user_version = {version}")

    @property
    def schema_version(self) -> int:
        return self._con.execute("PRAGMA user_version").fetchone()[0]

    # -- writing ---------------------------------------------------------

    def record_sweep(self, uid: str, stats: Dict[str, Any],
                     runs: Sequence[Dict[str, Any]],
                     interrupted: bool = False,
                     sha: Optional[str] = None,
                     ts: Optional[float] = None) -> int:
        """Archive one finished sweep; returns its integer history id."""
        with self._con:
            cur = self._con.execute(
                """INSERT INTO sweeps (uid, ts, git_sha, interrupted,
                       n_specs, simulated, cache_hits, retried, timeouts,
                       skipped, degraded, workers, wall_s, events, stats_json)
                   VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)""",
                (uid, ts if ts is not None else time.time(),
                 sha if sha is not None else git_sha(),
                 int(bool(interrupted)),
                 int(stats.get("n_specs", 0)),
                 int(stats.get("simulated", 0)),
                 int(stats.get("cache_hits", 0)),
                 int(stats.get("retried", 0)),
                 int(stats.get("timeouts", 0)),
                 int(stats.get("skipped", 0)),
                 int(bool(stats.get("degraded", False))),
                 int(stats.get("workers", 0)),
                 float(stats.get("wall_s", 0.0)),
                 int(stats.get("events", 0)),
                 json.dumps(stats, sort_keys=True)))
            sweep_id = cur.lastrowid
            self._con.executemany(
                """INSERT INTO runs (sweep_id, label, spec_key, seed,
                       outcome, cached, completed, attempts, sim_wall_s,
                       events, makespan_us, energy_j, rss_peak_kb,
                       metrics_json, error, pid, started, ended)
                   VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)""",
                [(sweep_id, r.get("label", "?"), r.get("spec_key"),
                  r.get("seed"), r.get("outcome", "?"),
                  int(bool(r.get("cached", False))),
                  int(bool(r.get("completed", False))),
                  int(r.get("attempts", 0)), r.get("sim_wall_s"),
                  r.get("events_processed"), r.get("makespan_us"),
                  r.get("energy_j"), r.get("rss_peak_kb"),
                  json.dumps(r["metrics"], sort_keys=True)
                  if r.get("metrics") else None,
                  r.get("error"), r.get("pid"), r.get("started"),
                  r.get("ended")) for r in runs])
        return int(sweep_id)

    # -- reading ---------------------------------------------------------

    def sweeps(self, limit: int = 20) -> List[Dict[str, Any]]:
        """The most recent sweeps, newest first."""
        rows = self._con.execute(
            "SELECT * FROM sweeps ORDER BY id DESC LIMIT ?",
            (int(limit),)).fetchall()
        return [dict(r) for r in rows]

    def runs_of(self, sweep_id: int) -> List[Dict[str, Any]]:
        rows = self._con.execute(
            "SELECT * FROM runs WHERE sweep_id = ? ORDER BY id",
            (int(sweep_id),)).fetchall()
        out = []
        for row in rows:
            d = dict(row)
            metrics_json = d.pop("metrics_json")
            d["metrics"] = json.loads(metrics_json) if metrics_json else {}
            out.append(d)
        return out

    def resolve(self, ref: str) -> Dict[str, Any]:
        """A sweep row from a reference: ``last``, ``last-N``, an integer
        history id, or a (prefix of a) sweep uid."""
        ref = str(ref).strip()
        row = None
        if ref == "last" or ref.startswith("last-"):
            back = "0" if ref == "last" else ref[len("last-"):]
            if not back.isdecimal():   # last-x, last--1: no such sweep
                raise KeyError(f"no sweep matches {ref!r}")
            rows = self._con.execute(
                "SELECT * FROM sweeps ORDER BY id DESC LIMIT 1 OFFSET ?",
                (int(back),)).fetchall()
            row = rows[0] if rows else None
        elif ref.isdigit():
            row = self._con.execute("SELECT * FROM sweeps WHERE id = ?",
                                    (int(ref),)).fetchone()
        if row is None:
            row = self._con.execute(
                "SELECT * FROM sweeps WHERE uid LIKE ? ORDER BY id DESC",
                (ref + "%",)).fetchone()
        if row is None:
            raise KeyError(f"no sweep matches {ref!r}")
        return dict(row)


# ---------------------------------------------------------------------------
# BENCH_trajectory.json generation
# ---------------------------------------------------------------------------

def host() -> str:
    """CPU model, cpu count and Python version: the host string
    ``perfbench/seed_reference.py`` records beside its seed medians."""
    model = "unknown cpu"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (f"{model}, {os.cpu_count()} cpus, "
            f"Python {platform.python_version()}")


_HEADER = re.compile(r"^workload (?P<workload>\S+)  seed (?P<seed>\d+)  "
                     r"trace (?P<trace>\d):", re.MULTILINE)


def parse_perfbench(text: str) -> Tuple[str, int, Dict[str, float]]:
    """``(workload, seed, metrics)`` from one ``perfbench/run.py`` stdout.

    The workload and seed come from the ``workload X  seed S  trace 0:``
    header line, the metric values from the last-line JSON result.
    Raises :class:`ValueError` for text that is not such a report, for a
    ``trace 1`` run (per-layer metrics, timed with hooks attached) and
    for a run whose correctness gate failed.
    """
    header = _HEADER.search(text)
    if header is None:
        raise ValueError("no 'workload X  seed S  trace T:' header line")
    workload, seed = header["workload"], int(header["seed"])
    if header["trace"] != "0":
        raise ValueError(f"{workload} seed {seed}: a trace "
                         f"{header['trace']} run is per-layer; the "
                         f"trajectory takes trace 0 runs")
    try:
        result = json.loads(text.strip().splitlines()[-1])
        metrics = {name: float(m["value"])
                   for name, m in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        raise ValueError(f"{workload} seed {seed}: the last line is not "
                         f"perfbench's JSON result") from None
    if result.get("correct") is not True:
        raise ValueError(f"{workload} seed {seed}: the run failed its "
                         f"correctness gate ({result.get('failed')} of "
                         f"{result.get('attempted')} simulations)")
    return workload, seed, metrics


def trajectory_entries(texts: Sequence[str], pr: int,
                       seed_reference: Path = SEED_REFERENCE
                       ) -> List[Dict[str, Any]]:
    """``BENCH_trajectory.json`` v2 entries from perfbench stdouts.

    One entry per workload among ``texts`` (see :func:`parse_perfbench`):
    the per-metric median across that workload's runs, the git sha and
    :func:`host`.  ``seed_over_current`` divides the seed tree's medians
    in ``seed_reference`` (same host, from ``perfbench/seed_reference.py``)
    by these medians; it is ``None`` for workloads the seed tree cannot
    run.  ``repro history export-trajectory --record .perfbench/*.out
    --pr N --append BENCH_trajectory.json``.
    """
    runs: Dict[str, List[Tuple[int, Dict[str, float]]]] = {}
    for text in texts:
        workload, seed, metrics = parse_perfbench(text)
        runs.setdefault(workload, []).append((seed, metrics))
    seed_tree = json.loads(Path(seed_reference).read_text())["workloads"]
    sha, where = git_sha(), host()
    entries = []
    for workload, measured in sorted(runs.items()):
        medians = {name: float(f"{median(m[name] for _, m in measured):.6g}")
                   for name in measured[0][1]}
        ref = seed_tree.get(workload)
        entries.append({
            "pr": pr, "workload": workload, "git_sha": sha, "host": where,
            "seeds": sorted(seed for seed, _ in measured),
            "metrics": medians,
            "seed_over_current": None if ref is None else {
                name: round(ref["seed"][name] / medians[name], 3)
                for name in ref["seed_over_current"] if name in medians},
        })
    return entries


def append_trajectory(path: Path, entries: List[Dict[str, Any]]) -> int:
    """Merge entries into the trajectory file; returns how many were added.

    Idempotent per (pr, workload, git_sha): re-exporting the same
    measurement replaces the previous entry instead of duplicating it.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    existing = doc.setdefault("entries", [])
    for entry in entries:
        key = (entry["pr"], entry["workload"], entry["git_sha"])
        existing[:] = [e for e in existing
                       if (e.get("pr"), e.get("workload"),
                           e.get("git_sha")) != key]
        existing.append(entry)
    existing.sort(key=lambda e: (e.get("pr", 0), e.get("workload", "")))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return len(entries)
