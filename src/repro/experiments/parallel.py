"""Parallel sweep execution.

Every paper figure is a sweep of independent (workload × machine ×
scheduler × governor × seed) simulations.  :class:`SweepExecutor` fans a
list of picklable :class:`RunSpec`\\ s out over a ``ProcessPoolExecutor``
and returns results in spec order, so a parallel sweep aggregates
bit-identically to the serial loop: each simulation owns its engine and
derives all randomness from its spec's seed.

An optional :class:`~repro.experiments.cache.ResultCache` short-circuits
specs that were already simulated (by any previous process — the cache is
on disk and content-addressed), so only misses reach the pool.

A simulation is a pure function of its spec, so a spec that raises would
raise the same way again: it fails the sweep at once (or is skipped).
Only failures of the process pool itself are retried:

* a worker that dies (``BrokenProcessPool``) takes the pool with it; the
  unfinished specs run in a fresh pool, at most ``retries`` times, after
  which the sweep **degrades to serial** execution in the parent process;
* with ``timeout_s`` set, a pool that produces no completion for that
  long is presumed hung: it is killed and the outstanding specs run
  again, each at most ``retries`` more times.

Every completed run is written to the cache as it finishes, so an
interrupted sweep resumes through plain cache hits.  Whatever ends a
sweep — a failed spec, ``KeyboardInterrupt`` — its progress view is
finished and its history row records it as interrupted;
``KeyboardInterrupt`` also prints a partial summary before re-raising.
Each run's row carries the pid of the process that simulated it and the
run's wall-clock start and end, which the dashboard's worker timeline
draws; they travel beside the :class:`RunResult`, never inside it, so
cached results do not change.

Worker count comes from, in order: the ``jobs`` argument, the
``$REPRO_JOBS`` environment variable, then ``os.cpu_count()``.
"""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Set, Tuple)

from ..core.params import NestParams
from ..faults import FaultConfig
from ..hw.machines import get_machine
from ..kernel.scheduler_core import KernelConfig
from ..metrics.summary import RunResult
from ..workloads.catalog import make_workload
from .cache import ResultCache, spec_key
from .runner import run_experiment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.history import HistoryStore
    from ..obs.progress import ProgressView


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
    """
    return run_experiment(
        make_workload(spec.workload, scale=spec.scale),
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
    )


#: Where and when a run was simulated: (pid, started, ended), the times
#: in wall-clock epoch seconds so runs of different workers line up.
Placement = Tuple[int, float, float]


def _timed_execute(spec: RunSpec) -> Tuple[RunResult, Placement]:
    """The executor's worker function, in a pool and in serial rounds:
    :func:`execute_spec` (looked up at call time, so a patched module
    global is honoured), with the pid and wall-clock span of the run."""
    started = time.time()
    result = execute_spec(spec)
    return result, (os.getpid(), started, time.time())


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
    skipped: int = 0               # failed specs skipped (skip_failures)
    degraded: bool = False         # pool kept dying; finished serially
    interrupted: bool = False      # an exception cut the sweep short

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
        if self.skipped:
            bits.append(f"{self.skipped} skipped")
        if self.degraded:
            bits.append("degraded to serial")
        if bits:
            parts.append("hardening: " + ", ".join(bits))
        if self.interrupted:
            parts.append("INTERRUPTED")
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
            "skipped": self.skipped,
            "degraded": self.degraded, "interrupted": self.interrupted,
        }


def _scalar_metrics(metrics: Dict[str, object]) -> Dict[str, float]:
    """The counters of a serialized registry.

    History rows and the dashboard plot these; histograms stay in the
    cached result only.
    """
    out: Dict[str, float] = {}
    for name, entry in metrics.items():
        if isinstance(entry, dict) and entry.get("type") == "counter":
            out[name] = entry["value"]
    return out


def _history_metrics(metrics: Dict[str, object]) -> Dict[str, float]:
    """What a history row records: raw scalars plus the ``derived.*``
    paper metrics (wakeup percentiles, tier shares).

    Derived metrics are computed parent-side from the already serialized
    registry — strictly post-hoc, nothing moves in the simulation — and
    the dashboard's Analysis panel renders them (rows from before the
    analysis layer simply lack the keys).
    """
    from ..obs.analysis.report import derived_metrics
    out = _scalar_metrics(metrics)
    out.update(derived_metrics(metrics))
    return out


class SweepFailure(RuntimeError):
    """A spec failed (and ``skip_failures`` is off)."""


class _SweepState:
    """Mutable bookkeeping of one run() invocation."""

    __slots__ = ("attempts", "retried", "timeouts", "errors", "skipped",
                 "degraded", "pool_breaks", "completed", "events",
                 "sim_wall", "max_workers")

    def __init__(self) -> None:
        self.attempts: Dict[int, int] = {}   # index -> failed attempts
        self.retried: Set[int] = set()
        self.timeouts = 0
        self.errors: Dict[int, str] = {}     # index -> why it was given up
        self.skipped: Set[int] = set()
        self.degraded = False
        self.pool_breaks = 0
        # index -> who simulated it and when, for each run done here
        self.completed: Dict[int, Placement] = {}
        self.events = 0
        self.sim_wall = 0.0
        self.max_workers = 0


class SweepExecutor:
    """Runs RunSpecs, in parallel, with caching and timeouts.

    Results come back in spec order whatever the completion order, and a
    single-worker executor produces byte-identical results to calling
    :func:`execute_spec` in a loop — determinism is per-spec, not
    per-schedule.

    A spec whose simulation raises would raise again, so it is never
    retried: the sweep fails with :class:`SweepFailure`, or with
    ``skip_failures`` the spec is skipped.  ``retries`` bounds only the
    infrastructure failures: the fresh pools started after a worker
    died (then the sweep degrades to serial), and the extra attempts of
    a spec caught in a pool that ``timeout_s`` killed.  ``timeout_s``
    bounds how long the pool may go without completing any run before it
    is presumed hung.

    Two optional observers see the sweep: ``view``, a
    :class:`~repro.obs.progress.ProgressView` told of each run as it
    leaves the sweep (one that raises is benched), and ``history``, a
    :class:`~repro.obs.history.HistoryStore` that gets the sweep's row
    and its run rows when ``run`` returns or raises (a write that raises
    is ignored).  Neither can change a result.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 timeout_s: Optional[float] = None,
                 retries: int = 2,
                 skip_failures: bool = False,
                 view: Optional["ProgressView"] = None,
                 history: Optional["HistoryStore"] = None) -> None:
        self.jobs = jobs if jobs and jobs > 0 else default_jobs()
        self.cache = cache
        self.timeout_s = timeout_s
        self.retries = max(0, retries)
        self.skip_failures = skip_failures
        self.view = view
        self.history = history
        self.last_stats = SweepStats()

    # ------------------------------------------------------------------

    def run(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Execute every spec; returns results in the order of ``specs``.

        With ``skip_failures`` the returned list can hold ``None`` at the
        positions of skipped specs; otherwise it is always complete.
        """
        t0 = time.perf_counter()
        specs = list(specs)
        n = len(specs)
        results: List[Optional[RunResult]] = [None] * n
        self._show("start", n)

        misses: List[int] = []
        hits = 0
        if self.cache is not None:
            for i, spec in enumerate(specs):
                cached = self.cache.get_spec(spec)
                if cached is not None:
                    results[i] = cached
                    hits += 1
                else:
                    misses.append(i)
        else:
            misses = list(range(n))
        for i, res in enumerate(results):
            if res is not None:
                self._show("run_done", specs[i].label, "cached")

        state = _SweepState()
        try:
            self._execute(specs, misses, results, state)
        except BaseException as exc:
            # Close the sweep on every way out: the view finishes and
            # the history row records what completed.
            self._finalize(specs, results, misses, hits, state, t0,
                           interrupted=True)
            if isinstance(exc, KeyboardInterrupt):
                sys.stderr.write("\nsweep interrupted — "
                                 + self.last_stats.summary() + "\n")
                sys.stderr.flush()
            raise
        self._finalize(specs, results, misses, hits, state, t0,
                       interrupted=False)
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
        while todo:
            workers = min(self.jobs, len(todo))
            if workers <= 1 or state.degraded:
                state.max_workers = max(state.max_workers, 1)
                self._serial_round(specs, todo, results, state)
                return
            state.max_workers = max(state.max_workers, workers)
            todo = self._pool_round(specs, todo, results, state, workers)

    def _serial_round(self, specs: List[RunSpec], todo: List[int],
                      results: List[Optional[RunResult]],
                      state: _SweepState) -> None:
        for i in todo:
            try:
                res, placed = _timed_execute(specs[i])
            except Exception as exc:
                state.attempts[i] = state.attempts.get(i, 0) + 1
                self._give_up(specs, i, state, repr(exc))
                continue
            results[i] = res
            self._complete(specs, i, res, placed, state)

    def _pool_round(self, specs: List[RunSpec], todo: List[int],
                    results: List[Optional[RunResult]], state: _SweepState,
                    workers: int) -> List[int]:
        """One pool over ``todo``; returns the specs to run again."""
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            futures = {pool.submit(_timed_execute, specs[i]): i
                       for i in todo}
            pending = set(futures)
            while pending:
                finished, pending = wait(pending, timeout=self.timeout_s,
                                         return_when=FIRST_COMPLETED)
                if not finished:
                    # No completion within timeout_s: the pool is presumed
                    # hung.  Kill it; each outstanding spec is charged one
                    # attempt and runs again in a fresh round while its
                    # attempts stay within the retry budget.
                    state.timeouts += 1
                    self._kill_pool(pool)
                    retry = []
                    for i in sorted(futures[f] for f in pending):
                        state.attempts[i] = state.attempts.get(i, 0) + 1
                        if state.attempts[i] > self.retries:
                            self._give_up(specs, i, state, "timed out")
                        else:
                            state.retried.add(i)
                            retry.append(i)
                    return retry
                broken = False
                for fut in finished:
                    i = futures[fut]
                    try:
                        res, placed = fut.result()
                    except BrokenProcessPool:
                        broken = True
                        break
                    except Exception as exc:
                        state.attempts[i] = state.attempts.get(i, 0) + 1
                        self._give_up(specs, i, state, repr(exc))
                    else:
                        results[i] = res
                        self._complete(specs, i, res, placed, state)
                if broken:
                    # A worker died (crash, OOM-kill, ...) and took the
                    # whole pool with it.  Everything unfinished goes into
                    # the next round; if pools keep dying, degrade to
                    # serial execution in this process.
                    state.pool_breaks += 1
                    if state.pool_breaks > self.retries:
                        state.degraded = True
                    self._kill_pool(pool)
                    unfinished = [i for i in todo
                                  if i not in state.completed
                                  and i not in state.skipped]
                    state.retried.update(unfinished)
                    return unfinished
            pool.shutdown()
            return []
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

    def _give_up(self, specs: List[RunSpec], i: int, state: _SweepState,
                 error: str) -> None:
        """Spec ``i`` failed for good: skip it or fail the sweep."""
        state.errors[i] = error
        if not self.skip_failures:
            raise SweepFailure(f"{specs[i].label} failed after "
                               f"{state.attempts[i]} attempt(s): {error}")
        state.skipped.add(i)
        self._show("run_done", specs[i].label, "skipped")

    def _complete(self, specs: List[RunSpec], i: int, res: RunResult,
                  placed: Placement, state: _SweepState) -> None:
        """Bookkeeping for one finished run, and its cache entry: written
        now, so an interrupted sweep resumes through plain cache hits."""
        state.completed[i] = placed
        state.events += res.events_processed
        state.sim_wall += res.sim_wall_s
        if self.cache is not None:
            try:
                self.cache.put_spec(specs[i], res)
            except OSError:
                pass   # a read-only cache dir must not kill the sweep
        self._show("run_done", specs[i].label,
                   "retried" if i in state.retried else "simulated",
                   res.sim_wall_s)

    def _show(self, method: str, *args: Any) -> None:
        """Tell the progress view; a view that raises is benched."""
        if self.view is None:
            return
        try:
            getattr(self.view, method)(*args)
        except Exception:
            self.view = None   # a broken renderer must not kill runs

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def _finalize(self, specs: List[RunSpec],
                  results: List[Optional[RunResult]], misses: List[int],
                  hits: int, state: _SweepState, t0: float,
                  interrupted: bool) -> None:
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
            skipped=len(state.skipped),
            degraded=state.degraded,
            interrupted=interrupted,
        )
        stats = self.last_stats.as_dict()
        self._show("finish", stats)
        if self.history is None:
            return
        uid = time.strftime("%Y%m%d-%H%M%S") + f"-{os.urandom(3).hex()}"
        try:
            self.history.record_sweep(
                uid, stats, self._run_entries(specs, results, misses, state),
                interrupted=interrupted)
        except Exception:
            pass   # history is a sink, never a failure mode

    def _run_entries(self, specs: List[RunSpec],
                     results: List[Optional[RunResult]], misses: List[int],
                     state: _SweepState) -> List[dict]:
        """Per-run history entries.

        Each run records an ``outcome``: ``cached`` / ``simulated`` /
        ``retried`` (simulated, needed >1 attempt) / ``skipped`` /
        ``pending`` (no result: the sweep stopped first, or this spec
        raised and stopped it — then its ``error`` says why).  A run
        simulated in this sweep also records the ``pid`` that ran it and
        its wall-clock ``started`` / ``ended`` times.
        """
        missset = set(misses)
        runs = []
        for i, spec in enumerate(specs):
            res = results[i]
            if i not in missset:
                outcome = "cached"
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
            if i in state.completed:
                entry["pid"], entry["started"], entry["ended"] = \
                    state.completed[i]
            if i in state.errors:
                entry["error"] = state.errors[i]
            runs.append(entry)
        return runs
