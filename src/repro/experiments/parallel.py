"""Parallel sweep execution, hardened against worker failure.

Every paper figure is a sweep of independent (workload × machine ×
scheduler × governor × seed) simulations.  :class:`SweepExecutor` fans a
list of picklable :class:`RunSpec`\\ s out over a ``ProcessPoolExecutor``
and returns results in spec order, so a parallel sweep aggregates
bit-identically to the serial loop: each simulation owns its engine and
derives all randomness from its spec's seed.

An optional :class:`~repro.experiments.cache.ResultCache` short-circuits
specs that were already simulated (by any previous process — the cache is
on disk and content-addressed), so only misses reach the pool.

The executor survives an imperfect world:

* every completed run is **checkpointed** to the cache immediately, so an
  interrupted sweep resumes from where it stopped;
* a worker that dies (``BrokenProcessPool``) triggers a bounded number of
  **retry rounds** with backoff; if the pool keeps dying the sweep
  **degrades to serial** execution in the parent process;
* with ``timeout_s`` set, a pool that produces no completion for that
  long is presumed hung: it is killed and the outstanding specs retried;
* ``KeyboardInterrupt`` flushes completed results, writes the sweep
  report with ``interrupted: true`` and prints a partial summary before
  re-raising.

Worker count comes from, in order: the ``jobs`` argument, the
``$REPRO_JOBS`` environment variable, then ``os.cpu_count()``.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from ..core.params import NestParams
from ..faults import FaultConfig
from ..hw.machines import get_machine
from ..kernel.scheduler_core import KernelConfig
from ..metrics.summary import RunResult
from ..obs.telemetry.hub import TelemetryHub, worker_telemetry
from ..workloads.catalog import make_workload
from .cache import ResultCache, spec_key
from .runner import run_experiment


def default_jobs() -> int:
    """Worker count: $REPRO_JOBS when set, else the machine's cpu count."""
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


@dataclass(frozen=True)
class RunSpec:
    """A picklable description of one simulation.

    The one description of a run: sweeps, the result cache, the fuzzer,
    the shrinker and repro files all carry it.  Names rather than objects
    for the workload and machine: the workload is rebuilt from the
    catalogue and the machine from its short key inside the worker, so a
    spec crosses process boundaries with no engine state attached, and
    :meth:`to_dict` / :meth:`from_dict` round-trip it through JSON.
    """

    workload: str                  # catalogue name, e.g. "configure-gcc"
    machine: str                   # machine key, e.g. "5218_2s"
    scheduler: str = "cfs"
    governor: str = "schedutil"
    seed: int = 0
    scale: float = 1.0
    nest_params: Optional[NestParams] = None
    max_us: Optional[int] = None
    kernel_config: Optional[KernelConfig] = None
    record_trace: bool = False
    faults: Optional[FaultConfig] = None

    @property
    def label(self) -> str:
        tags = []
        if self.nest_params is not None:
            tags.append("params")
        if self.faults is not None:
            tags.append("faults")
        if self.max_us is not None:
            tags.append(f"cap{self.max_us}")
        suffix = f" [{','.join(tags)}]" if tags else ""
        return (f"{self.workload}@{self.scale}/{self.machine}/"
                f"{self.scheduler}-{self.governor}/s{self.seed}{suffix}")

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSpec":
        """Inverse of :meth:`to_dict`; keys left out take their defaults
        (repro files written before ``kernel_config`` and
        ``record_trace`` were spec fields lack both).  Raises
        ``ValueError`` on a key no spec or config has."""
        fields = dict(data)
        try:
            for key, kind in (("nest_params", NestParams),
                              ("kernel_config", KernelConfig),
                              ("faults", FaultConfig)):
                if fields.get(key) is not None:
                    fields[key] = kind(**fields[key])
            return cls(**fields)
        except TypeError as exc:
            raise ValueError(f"not a run spec: {exc}") from None


def execute_spec(spec: RunSpec, collect_events: bool = False,
                 policy_probe: Optional[Callable[[Any], None]] = None
                 ) -> RunResult:
    """Run one spec to completion (this is the pool's worker function,
    and the one place a spec becomes a :func:`run_experiment` call).

    ``collect_events`` and ``policy_probe`` pass through to
    :func:`run_experiment` for in-process callers (the CLI, the oracle);
    they are not spec fields, so they never reach the cache key.

    When this process carries a telemetry emitter (pool workers get one
    from :meth:`TelemetryHub.pool_init`; the parent gets one for
    serial/degraded rounds), the run streams ``run_start`` / heartbeat /
    ``run_end`` records back to the hub — purely observational, so the
    result is bit-identical either way.
    """
    _chaos_hook(spec)
    telemetry = worker_telemetry()
    if telemetry is not None:
        telemetry.run_start(spec.label)
    try:
        workload = make_workload(spec.workload, scale=spec.scale)
        result = run_experiment(
            workload,
            get_machine(spec.machine),
            spec.scheduler,
            spec.governor,
            seed=spec.seed,
            nest_params=spec.nest_params,
            record_trace=spec.record_trace,
            max_us=spec.max_us,
            kernel_config=spec.kernel_config,
            collect_events=collect_events,
            faults=spec.faults,
            policy_probe=policy_probe,
            telemetry=telemetry,
        )
    except BaseException as exc:
        if telemetry is not None:
            telemetry.run_error(spec.label, exc)
        raise
    if telemetry is not None:
        telemetry.run_end(result)
    return result


def _chaos_hook(spec: RunSpec) -> None:
    """Test/CI hook that faults the *worker process* itself.

    Active only when both ``$REPRO_CHAOS`` (comma list of modes:
    ``crash-once``, ``hang-once``) and ``$REPRO_CHAOS_DIR`` (a directory
    for one-shot sentinel files) are set, and only inside a pool worker —
    never in the parent, so the serial fallback cannot take itself down.
    Each spec is assigned one mode by its content hash and faulted exactly
    once; the retry then runs clean.  This is how the CI chaos job proves
    the executor's crash/hang recovery end to end.
    """
    modes = [m.strip() for m in os.environ.get("REPRO_CHAOS", "").split(",")
             if m.strip()]
    root = os.environ.get("REPRO_CHAOS_DIR", "")
    if not modes or not root:
        return
    if multiprocessing.parent_process() is None:
        return    # parent process: chaos applies to pool workers only
    key = spec_key(spec)
    mode = modes[int(key[:8], 16) % len(modes)]
    sentinel = os.path.join(root, f"{key}.tripped")
    try:
        fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return    # this spec already took its fault — run normally
    except OSError:
        return
    os.close(fd)
    if mode == "crash-once":
        os._exit(23)
    if mode == "hang-once":
        time.sleep(600)


@dataclass
class SweepStats:
    """Telemetry of one executor sweep (printed by the CLI summary line)."""

    n_specs: int = 0
    simulated: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_used: bool = False
    workers: int = 1
    wall_s: float = 0.0
    events: int = 0
    sim_wall_s: float = 0.0        # summed per-simulation wall time
    retried: int = 0               # specs that needed more than one attempt
    timeouts: int = 0              # pool stalls that killed the pool
    recovered: int = 0             # cache hits checkpointed by an
    #                                interrupted previous sweep
    skipped: int = 0               # specs abandoned after retries
    degraded: bool = False         # pool kept dying; finished serially
    interrupted: bool = False      # KeyboardInterrupt cut the sweep short

    @property
    def events_per_sec(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return self.events / self.wall_s

    def summary(self) -> str:
        parts = [f"sweep: {self.n_specs} runs "
                 f"({self.simulated} simulated, {self.cache_hits} cached) "
                 f"in {self.wall_s:.2f}s"]
        if self.simulated:
            parts.append(f"{self.events:,} events, "
                         f"{self.events_per_sec:,.0f} events/s, "
                         f"{self.workers} worker(s)")
        if self.cache_used:
            parts.append(f"cache: {self.cache_hits} hit(s), "
                         f"{self.cache_misses} miss(es)")
        bits = []
        if self.retried:
            bits.append(f"{self.retried} retried")
        if self.timeouts:
            bits.append(f"{self.timeouts} timeout(s)")
        if self.recovered:
            bits.append(f"{self.recovered} recovered from checkpoint")
        if self.skipped:
            bits.append(f"{self.skipped} skipped")
        if self.degraded:
            bits.append("degraded to serial")
        if bits:
            parts.append("hardening: " + ", ".join(bits))
        if self.interrupted:
            parts.append("INTERRUPTED (completed runs checkpointed)")
        return " — ".join(parts)

    def as_dict(self) -> dict:
        return {
            "n_specs": self.n_specs, "simulated": self.simulated,
            "cache_hits": self.cache_hits, "cache_misses": self.cache_misses,
            "cache_used": self.cache_used, "workers": self.workers,
            "wall_s": self.wall_s, "events": self.events,
            "sim_wall_s": self.sim_wall_s,
            "events_per_sec": self.events_per_sec,
            "retried": self.retried, "timeouts": self.timeouts,
            "recovered": self.recovered, "skipped": self.skipped,
            "degraded": self.degraded, "interrupted": self.interrupted,
        }


def _scalar_metrics(metrics: Dict[str, object]) -> Dict[str, float]:
    """Scalar instruments (counters/gauges) of a serialized registry.

    History rows and the dashboard plot these; histograms stay in the
    cached result only.
    """
    out: Dict[str, float] = {}
    for name, entry in metrics.items():
        if isinstance(entry, dict) and entry.get("type") in ("counter",
                                                             "gauge"):
            out[name] = entry["value"]
    return out


def _history_metrics(metrics: Dict[str, object]) -> Dict[str, float]:
    """What a history row records: raw scalars plus the ``derived.*``
    paper metrics (wakeup percentiles, tier shares).

    Derived metrics are computed parent-side from the already serialized
    registry — strictly post-hoc, nothing moves in the simulation — and
    are gated by ``repro history diff`` exactly like counters (rows
    from before the analysis layer simply lack the keys, which the
    gate's key intersection skips).
    """
    from ..obs.analysis.report import derived_metrics
    out = _scalar_metrics(metrics)
    out.update(derived_metrics(metrics))
    return out


class SweepFailure(RuntimeError):
    """A spec exhausted its retry budget (and ``skip_failures`` is off)."""


class _SweepState:
    """Mutable bookkeeping of one run() invocation."""

    __slots__ = ("attempts", "retried", "timeouts", "skipped", "degraded",
                 "pool_breaks", "completed", "events", "sim_wall",
                 "max_workers")

    def __init__(self) -> None:
        self.attempts: Dict[int, int] = {}   # index -> failed attempts
        self.retried: Set[int] = set()
        self.timeouts = 0
        self.skipped: Dict[int, str] = {}    # index -> error description
        self.degraded = False
        self.pool_breaks = 0
        self.completed: Set[int] = set()
        self.events = 0
        self.sim_wall = 0.0
        self.max_workers = 0


class SweepExecutor:
    """Runs RunSpecs, in parallel, with caching, retries and timeouts.

    Results come back in spec order whatever the completion order, and a
    single-worker executor produces byte-identical results to calling
    :func:`execute_spec` in a loop — determinism is per-spec, not
    per-schedule.

    ``timeout_s`` bounds how long the pool may go without completing any
    run before it is presumed hung and killed.  ``retries`` bounds the
    attempts per spec (and the pool-restart rounds before degrading to
    serial).  ``skip_failures`` turns an exhausted retry budget into a
    skipped entry instead of an exception.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 timeout_s: Optional[float] = None,
                 retries: int = 2,
                 backoff_s: float = 0.05,
                 skip_failures: bool = False,
                 telemetry: Optional[TelemetryHub] = None) -> None:
        self.jobs = jobs if jobs and jobs > 0 else default_jobs()
        self.cache = cache
        self.timeout_s = timeout_s
        self.retries = max(0, retries)
        self.backoff_s = max(0.0, backoff_s)
        self.skip_failures = skip_failures
        self.telemetry = telemetry
        self.last_stats = SweepStats()
        self._done = 0
        self._total = 0

    # ------------------------------------------------------------------

    def run(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Execute every spec; returns results in the order of ``specs``.

        With ``skip_failures`` the returned list can hold ``None`` at the
        positions of abandoned specs; otherwise it is always complete.
        """
        t0 = time.perf_counter()
        specs = list(specs)
        n = len(specs)
        results: List[Optional[RunResult]] = [None] * n
        self._done = 0
        self._total = n
        if self.telemetry is not None:
            self.telemetry.open_sweep(n_specs=n, jobs=self.jobs)

        checkpoint_labels = self._checkpoint_labels()
        recovered = 0
        misses: List[int] = []
        hits = 0
        if self.cache is not None:
            for i, spec in enumerate(specs):
                cached = self.cache.get_spec(spec)
                if cached is not None:
                    results[i] = cached
                    hits += 1
                    if spec.label in checkpoint_labels:
                        recovered += 1
                else:
                    misses.append(i)
        else:
            misses = list(range(n))
        for i, res in enumerate(results):
            if res is None:
                continue
            self._done += 1
            if self.telemetry is not None:
                outcome = ("checkpoint"
                           if specs[i].label in checkpoint_labels
                           else "cached")
                self.telemetry.run_done(specs[i].label, outcome,
                                        self._done, n, result=res)

        state = _SweepState()
        try:
            self._execute(specs, misses, results, state)
        except KeyboardInterrupt:
            self._finalize(specs, results, misses, hits, recovered, state,
                           t0, checkpoint_labels, interrupted=True)
            sys.stderr.write("\nsweep interrupted — "
                             + self.last_stats.summary() + "\n")
            sys.stderr.flush()
            raise
        self._finalize(specs, results, misses, hits, recovered, state, t0,
                       checkpoint_labels, interrupted=False)
        if not state.skipped:
            assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Execution rounds
    # ------------------------------------------------------------------

    def _execute(self, specs: List[RunSpec], misses: List[int],
                 results: List[Optional[RunResult]],
                 state: _SweepState) -> None:
        todo = list(misses)
        round_no = 0
        while todo:
            if round_no > 0 and self.backoff_s > 0:
                time.sleep(min(self.backoff_s * (2 ** min(round_no - 1, 6)),
                               2.0))
            round_no += 1
            workers = min(self.jobs, len(todo))
            if workers <= 1 or state.degraded:
                state.max_workers = max(state.max_workers, 1)
                todo = self._serial_round(specs, todo, results, state)
            else:
                state.max_workers = max(state.max_workers, workers)
                todo = self._pool_round(specs, todo, results, state, workers)

    def _serial_round(self, specs: List[RunSpec], todo: List[int],
                      results: List[Optional[RunResult]],
                      state: _SweepState) -> List[int]:
        retry: List[int] = []
        for i in todo:
            try:
                res = execute_spec(specs[i])
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                state.attempts[i] = state.attempts.get(i, 0) + 1
                retry.extend(self._triage([i], specs, state, repr(exc)))
                continue
            results[i] = res
            self._complete(specs, i, res, state)
        return retry

    def _pool_round(self, specs: List[RunSpec], todo: List[int],
                    results: List[Optional[RunResult]], state: _SweepState,
                    workers: int) -> List[int]:
        initializer, initargs = (None, ())
        if self.telemetry is not None:
            initializer, initargs = self.telemetry.pool_init()
        pool = ProcessPoolExecutor(max_workers=workers,
                                   initializer=initializer,
                                   initargs=initargs)
        try:
            futures = {pool.submit(execute_spec, specs[i]): i for i in todo}
            pending = set(futures)
            retry: List[int] = []
            while pending:
                finished, pending = wait(pending, timeout=self.timeout_s,
                                         return_when=FIRST_COMPLETED)
                if not finished:
                    # No completion within timeout_s: the pool is presumed
                    # hung.  Kill it; outstanding specs are charged one
                    # attempt and retried in a fresh round.
                    state.timeouts += 1
                    hung = [futures[f] for f in pending]
                    for i in hung:
                        state.attempts[i] = state.attempts.get(i, 0) + 1
                    self._kill_pool(pool)
                    retry.extend(self._triage(hung, specs, state,
                                              "timed out"))
                    return retry
                broken = False
                for fut in finished:
                    i = futures[fut]
                    try:
                        res = fut.result()
                    except BrokenProcessPool:
                        broken = True
                        break
                    except Exception as exc:
                        state.attempts[i] = state.attempts.get(i, 0) + 1
                        retry.extend(self._triage([i], specs, state,
                                                  repr(exc)))
                    else:
                        results[i] = res
                        self._complete(specs, i, res, state)
                if broken:
                    # A worker died (crash, OOM-kill, ...) and took the
                    # whole pool with it.  Everything unfinished goes into
                    # the next round; if pools keep dying, degrade to
                    # serial execution in this process.
                    state.pool_breaks += 1
                    if state.pool_breaks > self.retries:
                        state.degraded = True
                    self._kill_pool(pool)
                    unfinished = sorted(
                        i for i in todo
                        if i not in state.completed
                        and i not in state.skipped and i not in retry)
                    state.retried.update(unfinished)
                    return retry + unfinished
            pool.shutdown()
            return retry
        except BaseException:
            self._kill_pool(pool)
            raise

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a (possibly hung) pool down without waiting for it.

        The worker handles must be snapshotted *before* ``shutdown`` —
        it drops the executor's ``_processes`` reference — or a hung
        worker survives, and the pool's non-daemon management thread
        waits on it forever, wedging interpreter exit.
        """
        procs = dict(getattr(pool, "_processes", None) or {})
        pool.shutdown(wait=False, cancel_futures=True)
        for p in procs.values():
            try:
                p.terminate()
            except Exception:
                pass
        for p in procs.values():
            try:
                p.join(timeout=1.0)
            except Exception:
                pass

    def _triage(self, indices: Sequence[int], specs: List[RunSpec],
                state: _SweepState, error: str) -> List[int]:
        """Decide, per failed spec, between retry / skip / raise."""
        retry: List[int] = []
        for i in sorted(indices):
            if state.attempts.get(i, 0) <= self.retries:
                state.retried.add(i)
                retry.append(i)
            elif self.skip_failures:
                state.skipped[i] = error
                if self.telemetry is not None:
                    self.telemetry.run_done(specs[i].label, "skipped",
                                            self._done, self._total,
                                            attempts=state.attempts.get(i, 0))
            else:
                raise SweepFailure(
                    f"{specs[i].label} failed after "
                    f"{state.attempts[i]} attempt(s): {error}")
        return retry

    def _complete(self, specs: List[RunSpec], i: int, res: RunResult,
                  state: _SweepState) -> None:
        """Bookkeeping + immediate checkpoint for one finished run."""
        state.completed.add(i)
        state.events += res.events_processed
        state.sim_wall += res.sim_wall_s
        if self.cache is not None:
            try:
                self.cache.put_spec(specs[i], res)
            except OSError:
                pass   # a read-only cache dir must not kill the sweep
        self._done += 1
        if self.telemetry is not None:
            outcome = "retried" if i in state.retried else "simulated"
            self.telemetry.run_done(
                specs[i].label, outcome, self._done, self._total, result=res,
                attempts=state.attempts.get(i, 0) + 1)

    # ------------------------------------------------------------------
    # Reporting / resume
    # ------------------------------------------------------------------

    def _checkpoint_labels(self) -> frozenset:
        """Labels completed by a previous *interrupted* sweep; their cache
        hits count as recovered-from-checkpoint in this sweep's report."""
        if self.cache is None:
            return frozenset()
        try:
            prev = self.cache.read_report("last-sweep")
        except Exception:
            return frozenset()
        if not prev or not prev.get("interrupted"):
            return frozenset()
        return frozenset(r.get("label") for r in prev.get("runs", ())
                         if r.get("completed"))

    def _finalize(self, specs: List[RunSpec],
                  results: List[Optional[RunResult]], misses: List[int],
                  hits: int, recovered: int, state: _SweepState, t0: float,
                  checkpoint_labels: frozenset, interrupted: bool) -> None:
        self.last_stats = SweepStats(
            n_specs=len(specs),
            simulated=len(state.completed),
            cache_hits=hits,
            cache_misses=len(misses) if self.cache is not None else 0,
            cache_used=self.cache is not None,
            workers=max(state.max_workers, 1) if misses else 0,
            wall_s=time.perf_counter() - t0,
            events=state.events,
            sim_wall_s=state.sim_wall,
            retried=len(state.retried),
            timeouts=state.timeouts,
            recovered=recovered,
            skipped=len(state.skipped),
            degraded=state.degraded,
            interrupted=interrupted,
        )
        runs = self._run_entries(specs, results, misses, state,
                                 checkpoint_labels)
        self._write_report(runs, interrupted)
        if self.telemetry is not None:
            self.telemetry.close_sweep(self.last_stats.as_dict(), runs,
                                       interrupted=interrupted)

    def _run_entries(self, specs: List[RunSpec],
                     results: List[Optional[RunResult]], misses: List[int],
                     state: _SweepState,
                     checkpoint_labels: frozenset) -> List[dict]:
        """Per-run report entries (the sweep report and history rows).

        Each run records an ``outcome``: ``cached`` / ``checkpoint`` (a hit
        written by a previous interrupted sweep) / ``simulated`` /
        ``retried`` (simulated, needed >1 attempt) / ``skipped`` /
        ``pending`` (never ran — the sweep was interrupted first).
        """
        missset = set(misses)
        runs = []
        for i, spec in enumerate(specs):
            res = results[i]
            if i not in missset:
                outcome = ("checkpoint" if spec.label in checkpoint_labels
                           else "cached")
            elif i in state.skipped:
                outcome = "skipped"
            elif res is None:
                outcome = "pending"
            elif i in state.retried:
                outcome = "retried"
            else:
                outcome = "simulated"
            entry = {
                "label": spec.label,
                "outcome": outcome,
                "cached": i not in missset,
                "completed": res is not None,
                "seed": spec.seed,
                "spec_key": spec_key(spec),
                "attempts": state.attempts.get(i, 0)
                + (1 if i in state.completed else 0),
            }
            if res is not None:
                entry["sim_wall_s"] = res.sim_wall_s
                entry["events_processed"] = res.events_processed
                entry["makespan_us"] = res.makespan_us
                entry["energy_j"] = res.energy_joules
                entry["rss_peak_kb"] = res.rss_peak_kb
                entry["metrics"] = _history_metrics(res.metrics)
            if i in state.skipped:
                entry["error"] = state.skipped[i]
            runs.append(entry)
        return runs

    def _write_report(self, runs: List[dict], interrupted: bool) -> None:
        """Persist the sweep's observability report (``repro obs report``)."""
        if self.cache is None:
            return
        try:
            self.cache.write_report("last-sweep", {
                "stats": self.last_stats.as_dict(),
                "interrupted": interrupted,
                "runs": runs,
            })
        except OSError:
            pass   # a read-only cache dir must not kill the sweep
