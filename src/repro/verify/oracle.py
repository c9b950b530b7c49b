"""The invariant oracle: paper-derived properties checked after a run.

Each invariant is a pure function of the :class:`RunArtifacts` of one
simulation — the serialized :class:`RunResult`, the structured event log
and the final nest snapshot — yielding the :class:`Violation`\\ s it
found.  The oracle never re-runs the simulator; it *replays* what the
observability layer recorded, in one routed
:func:`~repro.obs.analysis.base.run_analyzers` pass.  One analyzer is
fed every event: it counts events per kind and checks each timestamp
and field.  A check that replays events in order is an
:class:`~repro.obs.analysis.base.Analyzer` fed only the kinds it
declares; every other check is a plain function of the artifacts and
the per-kind counts.  So anything the oracle can catch, it can catch on
every fuzzed scenario for the cost of one list walk.

The paper mapping:

* §3.1 — nest membership is replayed exactly from the ``nest.*``
  transition events, which Nest and scx_nest both log (every
  primary-set mutation emits one), disjointness and the ``R_max``
  reserve bound are checked on the final snapshot, and each placement
  tier's counter must equal its events (the tiers' sum is the policies'
  own self-check, which fails the run before the oracle sees it);
* §3.2 — warm-core spins start/stop strictly alternately per cpu;
* §3.3 — attachment hits must target the core the replayed two-wakeup
  history says the task is attached to, and disabled features must leave
  no event footprint;
* §3.4 — every runnable task is placed exactly once: two placement
  commits of the same task must have a dispatch between them;
* §2.3 — hardware frequency steps stay within the machine's envelope;
* faults — the deterministic fault plan is re-derived from the seed and
  reconciled with the fault counters and events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Dict, FrozenSet, Iterable, List,
                    Optional, Tuple)

from ..core.params import DEFAULT_PARAMS
from ..faults.plan import (KIND_CORE_FAILURE, KIND_CPU_OFFLINE,
                           KIND_STRAGGLER, KIND_THERMAL_CAP, FaultPlan)
from ..obs import events as oev
from ..obs.analysis.base import AnalysisContext, Analyzer, run_analyzers
from ..obs.events import SchedEvent
from ..sim.rng import RngRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .execute import RunArtifacts

#: Cap on violations reported per invariant per run (a broken replay
#: otherwise floods the report with thousands of identical lines).
MAX_PER_INVARIANT = 5


@dataclass(frozen=True)
class Violation:
    """One invariant breach found by the oracle or a differential check."""

    invariant: str
    message: str
    t: Optional[int] = None

    def __str__(self) -> str:
        at = f" @t={self.t}" if self.t is not None else ""
        return f"{self.invariant}{at}: {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return {"invariant": self.invariant, "message": self.message,
                "t": self.t}


@dataclass(frozen=True)
class NestSnapshot:
    """Final nest membership, captured through the runner's policy probe."""

    primary: frozenset
    reserve: frozenset
    r_max: int
    reserve_enabled: bool = True


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _counter(metrics: Dict[str, Any], name: str) -> int:
    entry = metrics.get(name)
    return entry["value"] if entry else 0


def _in_group(art: "RunArtifacts", group: str) -> bool:
    """Policy-specific invariant families are gated by the registry's
    ``invariant_groups`` metadata, not by hard-coded scheduler names, so
    a newly registered policy opts into a family with one tuple entry."""
    from ..sched.registry import invariant_groups_of
    return group in invariant_groups_of(art.scenario.scheduler)


def _capped(invariant: str, problems: List[str]) -> List[Violation]:
    """A count check's violations, at most ``MAX_PER_INVARIANT``."""
    return [Violation(invariant, p) for p in problems[:MAX_PER_INVARIANT]]


class _EveryEvent(Analyzer):
    """The one analyzer fed every event.

    It counts events per kind (complete when ``finish`` runs) for every
    check that compares counters with the log, and it decides two
    invariants as it counts: ``clock.monotonic`` (event timestamps never
    run backwards and stay within the run) and ``events.vocabulary``
    (every event uses a known kind and plausible cpu/task fields).
    """

    name = "every_event"
    kinds = None

    def __init__(self, art: "RunArtifacts") -> None:
        self.counts: Dict[str, int] = {}
        self.clock: List[Violation] = []
        self.vocabulary: List[Violation] = []
        self._n_cpus = art.machine.n_cpus
        self._end = art.result.makespan_us
        self._last = 0    # timestamp of the last event fed

    def feed(self, ev: SchedEvent) -> None:
        kind, t = ev.kind, ev.t
        counts = self.counts
        counts[kind] = counts.get(kind, 0) + 1
        if t < self._last and not self.clock:
            seen = sum(counts.values()) - 1    # events fed before this one
            self.clock.append(Violation(
                "clock.monotonic",
                f"event #{seen} ({kind}) at t={t} after t={self._last}", t=t))
        self._last = t
        if kind not in oev.EVENT_KINDS:
            problem = f"unknown kind {kind!r}"
        elif not -1 <= ev.cpu < self._n_cpus:
            problem = f"cpu {ev.cpu} outside [-1, {self._n_cpus})"
        elif ev.task < -1:
            problem = f"task id {ev.task}"
        else:
            return
        if len(self.vocabulary) < MAX_PER_INVARIANT:
            self.vocabulary.append(Violation(
                "events.vocabulary", f"{kind}: {problem}", t=t))

    def finish(self, ctx: AnalysisContext) -> Dict[str, List[Violation]]:
        if self.counts and not self.clock and self._last > self._end:
            self.clock.append(Violation(
                "clock.monotonic", f"last event at t={self._last} beyond "
                f"makespan {self._end}", t=self._last))
        return {"clock.monotonic": self.clock,
                "events.vocabulary": self.vocabulary}


class _Replay(Analyzer):
    """An invariant that replays the event log in order, as one analyzer
    of :func:`check_run`'s pass.

    Built from the run's artifacts and the shared per-kind counts, fed
    only the ``kinds`` it declares, and ``finish`` returns its
    violations, at most ``MAX_PER_INVARIANT``.  Unless a check replays
    as it is fed, ``feed`` keeps the events for ``finish`` to decide on.
    A check whose ``applies`` is false is left out of the pass: one of a
    policy family (``group``) on a run outside it, or one that stands
    down on an empty log (``needs_log``).
    """

    kinds: FrozenSet[str]
    group: Optional[str] = None
    needs_log = False

    def __init__(self, art: "RunArtifacts", counts: Dict[str, int]) -> None:
        self.art = art
        self.counts = counts
        self.events: List[SchedEvent] = []
        self.found: List[Violation] = []

    @classmethod
    def applies(cls, art: "RunArtifacts") -> bool:
        return ((cls.group is None or _in_group(art, cls.group))
                and (bool(art.events) or not cls.needs_log))

    def feed(self, ev: SchedEvent) -> None:
        self.events.append(ev)

    def flag(self, message: str, t: Optional[int] = None) -> None:
        if len(self.found) < MAX_PER_INVARIANT:
            self.found.append(Violation(self.name, message, t=t))

    def finish(self, ctx: AnalysisContext) -> List[Violation]:
        return self.found


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

def check_completed(art: "RunArtifacts",
                    counts: Dict[str, int]) -> Iterable[Violation]:
    """The simulation ran to its end without crashing."""
    res = art.result
    if res.makespan_us < 0:
        yield Violation("run.completed", f"negative makespan {res.makespan_us}")
    if res.n_tasks <= 0:
        yield Violation("run.completed", "run created no tasks")
    if res.events_processed <= 0:
        yield Violation("run.completed", "engine processed no events")


def _event_counter_match(art: "RunArtifacts", counts: Dict[str, int],
                         group: str,
                         mirrors: Dict[str, int]) -> List[Violation]:
    """The event log and the metrics registry tell the same story: each
    mirrored kind's event count equals its counters, and the ``place.*``
    events sum to the ``<group>.placements`` counter.  Checked on runs of
    the ``group`` policy family that logged events."""
    if not (art.events and _in_group(art, group)):
        return []
    problems = [f"{counts.get(kind, 0)} {kind} event(s) but counters say "
                f"{want}" for kind, want in mirrors.items()
                if counts.get(kind, 0) != want]
    total_place = sum(counts.get(k, 0) for k in oev.PLACEMENT_KINDS)
    placements = _counter(art.result.metrics, f"{group}.placements")
    if total_place != placements:
        problems.append(f"{total_place} place.* events != placements "
                        f"counter {placements}")
    return _capped(f"{group}.event_counter_match", problems)


def check_event_counter_match(art: "RunArtifacts",
                              counts: Dict[str, int]) -> List[Violation]:
    """Nest's event log and counters tell the same story."""
    m = art.result.metrics
    return _event_counter_match(art, counts, "nest", {
        oev.PLACE_ATTACH: _counter(m, "nest.attachment_hits"),
        oev.PLACE_PRIMARY: _counter(m, "nest.primary_hits"),
        oev.PLACE_IMPATIENT: _counter(m, "nest.impatient_placements"),
        oev.NEST_PROMOTE: _counter(m, "nest.reserve_hits"),
        oev.NEST_COMPACT: (_counter(m, "nest.compactions")
                           - _counter(m, "nest.exit_demotions")),
        oev.NEST_EXIT_DEMOTE: _counter(m, "nest.exit_demotions"),
        oev.NEST_OFFLINE_EVICT: _counter(m, "nest.offline_evictions"),
    })


class PrimaryReplay(_Replay):
    """§3.1: the primary nest replayed from events is always consistent —
    promotions and expansions add non-members, demotions remove members,
    the size each transition reports matches the replayed set, primary
    hits target members, and the final replayed set equals the live
    snapshot.  Nest and scx_nest log their shared mask core's
    transitions alike, so this one replay certifies both.
    """

    name = "nest.primary_replay"
    needs_log = True
    kinds = oev.NEST_TRANSITION_KINDS | {oev.PLACE_ATTACH, oev.PLACE_PRIMARY}

    @classmethod
    def applies(cls, art: "RunArtifacts") -> bool:
        return super().applies(art) and (_in_group(art, "nest")
                                         or _in_group(art, "scxnest"))

    def __init__(self, art: "RunArtifacts", counts: Dict[str, int]) -> None:
        super().__init__(art, counts)
        self._primary: set = set()

    def feed(self, ev: SchedEvent) -> None:
        kind, primary = ev.kind, self._primary
        if kind in oev.PRIMARY_ADD_KINDS:
            if ev.cpu in primary:
                self.flag(f"{kind} of cpu {ev.cpu} already in primary",
                          t=ev.t)
            primary.add(ev.cpu)
        elif kind in oev.PRIMARY_REMOVE_KINDS:
            if ev.cpu not in primary:
                self.flag(f"{kind} of cpu {ev.cpu} not in primary", t=ev.t)
            primary.discard(ev.cpu)
        elif kind == oev.NEST_OFFLINE_EVICT:
            primary.discard(ev.cpu)   # may have been reserve-only
        elif ev.cpu not in primary:
            self.flag(f"{kind} chose cpu {ev.cpu} outside the replayed "
                      f"primary nest {sorted(primary)}", t=ev.t)
        if kind in oev.NEST_TRANSITION_KINDS and ev.value != len(primary):
            self.flag(f"{kind} reports primary size {ev.value}, replay "
                      f"says {len(primary)}", t=ev.t)

    def finish(self, ctx: AnalysisContext) -> List[Violation]:
        snap = self.art.nest
        if snap is not None and self._primary != set(snap.primary):
            self.flag(f"final replayed primary {sorted(self._primary)} != "
                      f"live snapshot {sorted(snap.primary)}")
        return self.found


def check_final_state(art: "RunArtifacts",
                      counts: Dict[str, int]) -> Iterable[Violation]:
    """§3.1: primary ∩ reserve = ∅, |reserve| ≤ R_max, members are cpus."""
    snap = art.nest
    if snap is None:
        return
    overlap = snap.primary & snap.reserve
    if overlap:
        yield Violation("nest.final_state",
                        f"primary and reserve overlap on {sorted(overlap)}")
    if snap.reserve_enabled:
        if len(snap.reserve) > snap.r_max:
            yield Violation("nest.final_state",
                            f"reserve has {len(snap.reserve)} cores, "
                            f"R_max is {snap.r_max}")
    elif snap.reserve:
        yield Violation("nest.final_state",
                        f"reserve disabled but holds {sorted(snap.reserve)}")
    n = art.machine.n_cpus
    stray = [c for c in (snap.primary | snap.reserve)
             if not 0 <= c < n]
    if stray:
        yield Violation("nest.final_state",
                        f"nest members outside cpu range: {stray}")


class Attachment(_Replay):
    """§3.3: an attachment hit requires two consecutive same-core commits.

    Replays each task's two-slot core history from the placement-commit
    events; every ``place.attach`` must target exactly the replayed
    attached core.  Stands down under hotplug faults (the kernel scrubs
    histories and redirects placements without commit events).
    """

    name = "nest.attachment"
    kinds = oev.COMMIT_KINDS | {oev.PLACE_ATTACH}
    group = "nest"
    needs_log = True

    def __init__(self, art: "RunArtifacts", counts: Dict[str, int]) -> None:
        super().__init__(art, counts)
        self._history: Dict[int, Tuple[Optional[int], Optional[int]]] = {}

    @classmethod
    def applies(cls, art: "RunArtifacts") -> bool:
        return super().applies(art) and _counter(
            art.result.metrics, "kernel.fault_placement_redirects") == 0

    def feed(self, ev: SchedEvent) -> None:
        history = self._history
        a, b = history.get(ev.task, (None, None))
        if ev.kind != oev.PLACE_ATTACH:
            history[ev.task] = (ev.cpu, a)
            return
        attached = a if a is not None and a == b else None
        if attached != ev.cpu:
            self.flag(f"task {ev.task} attach-placed on cpu {ev.cpu} but "
                      f"its history {(a, b)} attaches {attached}", t=ev.t)

    def finish(self, ctx: AnalysisContext) -> List[Violation]:
        if self.counts.get(oev.FAULT_CPU_OFFLINE) \
                or self.counts.get(oev.FAULT_CPU_ONLINE):
            return []
        return self.found


def check_feature_legality(art: "RunArtifacts",
                           counts: Dict[str, int]) -> List[Violation]:
    """Disabled §3 features must leave no event footprint."""
    if not (art.events and _in_group(art, "nest")):
        return []
    p = art.scenario.nest_params or DEFAULT_PARAMS
    rules = (
        (p.attachment_enabled, oev.PLACE_ATTACH, "attachment"),
        (p.reserve_enabled, oev.PLACE_RESERVE, "reserve"),
        (p.reserve_enabled, oev.NEST_PROMOTE, "reserve"),
        (p.impatience_enabled, oev.PLACE_IMPATIENT, "impatience"),
        (p.compaction_enabled, oev.NEST_COMPACT, "compaction"),
        (p.spin_enabled, oev.SPIN_START, "spin"),
    )
    return _capped("nest.feature_legality", [
        f"{feature} disabled but {counts[kind]} {kind} event(s) emitted"
        for enabled, kind, feature in rules
        if not enabled and counts.get(kind, 0)])


class WakeupDispatch(_Replay):
    """Every runnable task is placed exactly once: two placement commits
    of the same task must have a dispatch in between (a task cannot block
    and wake again without having run)."""

    name = "sched.wakeup_dispatch"
    kinds = oev.COMMIT_KINDS | {oev.SCHED_DISPATCH}

    def __init__(self, art: "RunArtifacts", counts: Dict[str, int]) -> None:
        super().__init__(art, counts)
        self._pending: Dict[int, int] = {}   # task -> t of the commit

    def feed(self, ev: SchedEvent) -> None:
        pending = self._pending
        if ev.kind == oev.SCHED_DISPATCH:
            pending.pop(ev.task, None)
            return
        if ev.task in pending:
            self.flag(f"task {ev.task} committed twice (t={pending[ev.task]} "
                      f"then t={ev.t}) with no dispatch between", t=ev.t)
        pending[ev.task] = ev.t
    # Commits still pending at the end are fine: the engine stopped (task
    # exit cascade or max_us cutoff) inside their placement window.


class LatencyAccounting(_Replay):
    """Dispatch events, the latency histogram and the per-task sums agree."""

    name = "sched.latency_accounting"
    kinds = frozenset({oev.SCHED_DISPATCH})
    needs_log = True

    def finish(self, ctx: AnalysisContext) -> List[Violation]:
        res = self.art.result
        counts = self.counts
        hist = res.metrics.get("kernel.wakeup_latency_us")
        if hist is not None:
            if hist["count"] != len(self.events):
                self.flag(f"{len(self.events)} dispatch events but the "
                          f"latency histogram saw {hist['count']}")
            ev_sum = sum(ev.value for ev in self.events)
            if hist["sum"] != ev_sum or hist["sum"] != res.wakeup_latency_us:
                self.flag(f"latency sums disagree: histogram {hist['sum']}, "
                          f"events {ev_sum}, result {res.wakeup_latency_us}")
        n_wakeups = counts.get(oev.SCHED_WAKEUP, 0)
        if n_wakeups != res.total_wakeups:
            self.flag(f"{n_wakeups} wakeup commits != total_wakeups "
                      f"{res.total_wakeups}")
        n_migrations = counts.get(oev.SCHED_MIGRATE, 0)
        if n_migrations > res.n_migrations:
            self.flag(f"{n_migrations} migrate events exceed the result's "
                      f"n_migrations {res.n_migrations}")
        return self.found


def check_histograms(art: "RunArtifacts",
                     counts: Dict[str, int]) -> Iterable[Violation]:
    """Serialized instruments are internally consistent."""
    m = art.result.metrics
    for name, entry in m.items():
        kind = entry.get("type")
        if kind == "counter":
            if not isinstance(entry["value"], int) or entry["value"] < 0:
                yield Violation("metrics.histograms",
                                f"counter {name} = {entry['value']!r}")
        elif kind == "histogram":
            if len(entry["counts"]) != len(entry["edges"]) + 1:
                yield Violation("metrics.histograms",
                                f"{name}: {len(entry['counts'])} buckets "
                                f"for {len(entry['edges'])} edges")
            if sum(entry["counts"]) != entry["count"]:
                yield Violation("metrics.histograms",
                                f"{name}: bucket sum "
                                f"{sum(entry['counts'])} != count "
                                f"{entry['count']}")
            if any(c < 0 for c in entry["counts"]):
                yield Violation("metrics.histograms",
                                f"{name}: negative bucket count")
    for prefix in ("nest", "scxnest"):
        if not _in_group(art, prefix):
            continue
        placements = _counter(m, f"{prefix}.placements")
        for hname in (f"{prefix}.search_len", f"{prefix}.primary_size"):
            entry = m.get(hname)
            if entry is not None and entry["count"] != placements:
                yield Violation("metrics.histograms",
                                f"{hname} observed {entry['count']} "
                                f"placements, counter says {placements}")


class FreqSanity(_Replay):
    """§2.3: hardware frequency steps stay inside the machine envelope,
    and the frequency-residency distribution accounts for busy time."""

    name = "freq.sanity"
    kinds = frozenset({oev.FREQ_STEP})

    def feed(self, ev: SchedEvent) -> None:
        lo, hi = self.art.machine.min_mhz, self.art.machine.max_turbo_mhz
        if not lo <= ev.value <= hi:
            self.flag(f"core {ev.cpu} stepped to {ev.value} MHz, envelope "
                      f"is [{lo}, {hi}]", t=ev.t)

    def finish(self, ctx: AnalysisContext) -> List[Violation]:
        res = self.art.result
        fdist = res.freq_dist
        if fdist is not None:
            total = sum(fdist.bin_time_us)
            if total != fdist.total_us:
                self.flag(f"freq distribution bins sum to {total}, "
                          f"total_us is {fdist.total_us}")
            budget = res.makespan_us * self.art.machine.n_cpus
            if fdist.total_us > budget:
                self.flag(f"freq residency {fdist.total_us}µs exceeds "
                          f"makespan × cpus = {budget}µs")
        return self.found


class SpinPairing(_Replay):
    """§3.2: per cpu, spin starts and stops strictly alternate."""

    name = "spin.pairing"
    kinds = frozenset({oev.SPIN_START, oev.SPIN_STOP})

    def __init__(self, art: "RunArtifacts", counts: Dict[str, int]) -> None:
        super().__init__(art, counts)
        self._spinning: set = set()

    def feed(self, ev: SchedEvent) -> None:
        spinning = self._spinning
        if ev.kind == oev.SPIN_START:
            if ev.cpu in spinning:
                self.flag(f"cpu {ev.cpu} started spinning twice", t=ev.t)
            spinning.add(ev.cpu)
        else:
            if ev.cpu not in spinning:
                self.flag(f"cpu {ev.cpu} stopped a spin it never started",
                          t=ev.t)
            spinning.discard(ev.cpu)
    # Spins still open at the end are legal: the engine stopped mid-spin.


def check_fault_consistency(art: "RunArtifacts",
                            counts: Dict[str, int]) -> List[Violation]:
    """The deterministic fault plan re-derived from the seed reconciles
    with the injected-fault counters and the fault event stream."""
    config = art.scenario.faults
    if config is None or not config.enabled:
        return []
    m = art.result.metrics
    machine = art.machine
    plan = FaultPlan.generate(config, machine.n_cpus,
                              machine.topology.n_physical_cores,
                              machine.nominal_mhz, machine.min_mhz,
                              RngRegistry(art.scenario.seed),
                              n_sockets=machine.topology.n_sockets)
    found: List[str] = []
    injected = int(art.result.extra.get("faults_injected", -1))
    if injected != len(plan):
        found.append(f"result reports {injected} planned faults, the "
                     f"re-derived plan has {len(plan)}")
    planned = plan.counts()
    family_counters = {
        KIND_CPU_OFFLINE: (_counter(m, "kernel.fault_cpu_offline")
                           + _counter(m, "kernel.fault_offline_skipped")),
        KIND_THERMAL_CAP: _counter(m, "kernel.fault_thermal_caps"),
        KIND_STRAGGLER: (_counter(m, "kernel.fault_stragglers")
                         + _counter(m, "kernel.fault_straggler_skipped")),
        KIND_CORE_FAILURE: (
            _counter(m, "kernel.fault_core_failures")
            + _counter(m, "kernel.fault_core_failure_skipped")),
    }
    for kind, handled in family_counters.items():
        if handled > planned.get(kind, 0):
            found.append(f"{handled} {kind} faults handled but only "
                         f"{planned.get(kind, 0)} were planned")
    # Core failures offline the thread through the same hotplug
    # machinery, so an online event may repay either an offline fault
    # or a failure.
    if _counter(m, "kernel.fault_cpu_online") \
            > (_counter(m, "kernel.fault_cpu_offline")
               + _counter(m, "kernel.fault_core_failures")):
        found.append("more cpus brought online than taken offline")
    if art.events:
        offline_events = counts.get(oev.FAULT_CPU_OFFLINE, 0)
        offline_expected = (_counter(m, "kernel.fault_cpu_offline")
                            + _counter(m, "kernel.fault_core_failures"))
        if offline_events != offline_expected:
            found.append(f"{offline_events} {oev.FAULT_CPU_OFFLINE} events "
                         f"but offline + core-failure counters "
                         f"= {offline_expected}")
        event_mirrors = (
            (oev.FAULT_CPU_ONLINE, "kernel.fault_cpu_online"),
            (oev.FAULT_THERMAL_CAP, "kernel.fault_thermal_caps"),
            (oev.FAULT_STRAGGLER, "kernel.fault_stragglers"),
            (oev.FAULT_CORE_FAILURE, "kernel.fault_core_failures"),
        )
        for kind, counter in event_mirrors:
            if counts.get(kind, 0) != _counter(m, counter):
                found.append(f"{counts.get(kind, 0)} {kind} events but "
                             f"{counter} = {_counter(m, counter)}")
        jitter_events = counts.get(oev.FAULT_JITTER_ON, 0)
        if (config.tick_jitter_us > 0) != (jitter_events == 1):
            found.append(f"tick_jitter_us={config.tick_jitter_us} but "
                         f"{jitter_events} jitter_on event(s)")
    return _capped("faults.consistency", found)


class MissCausality(_Replay):
    """Deadline streams carry generous slack, so a fault-free run meets
    every deadline: a miss without a single logged fault is a scheduler
    bug, not bad luck.  Decided in ``finish``, since a miss is judged
    against the earliest of all logged faults."""

    name = "rt.miss_causality"
    kinds = oev.FAULT_KINDS | {oev.RT_DEADLINE_MISS}

    @classmethod
    def applies(cls, art: "RunArtifacts") -> bool:
        return _counter(art.result.metrics, "kernel.rt_deadline_miss") > 0

    def finish(self, ctx: AnalysisContext) -> List[Violation]:
        m = self.art.result.metrics
        first_fault = min((ev.t for ev in self.events
                           if ev.kind in oev.FAULT_KINDS), default=None)
        fault_counters = ("kernel.fault_core_failures",
                          "kernel.fault_cpu_offline",
                          "kernel.fault_thermal_caps",
                          "kernel.fault_stragglers")
        if first_fault is None \
                and all(_counter(m, c) == 0 for c in fault_counters):
            self.flag(f"{_counter(m, 'kernel.rt_deadline_miss')} deadline "
                      f"miss(es) in a run that logged no fault")
            return self.found
        for ev in self.events:
            if ev.kind == oev.RT_DEADLINE_MISS \
                    and (first_fault is None or ev.t < first_fault):
                self.flag(f"task {ev.task} missed its deadline before any "
                          f"fault was injected", t=ev.t)
        return self.found


class BackupDisjoint(_Replay):
    """A backup admitted against a known primary core must land on a
    different physical core — otherwise one failure takes both copies.
    The primary's cpu (``value``, -1 for none) must be a cpu of the
    machine; a backup cpu outside it is ``events.vocabulary``'s to flag,
    and -1 places on no core, so neither is compared."""

    name = "rt.backup_disjoint"
    kinds = frozenset({oev.RT_BACKUP_PLACE})

    def feed(self, ev: SchedEvent) -> None:
        machine = self.art.machine
        n = machine.n_cpus
        if not -1 <= ev.value < n:
            self.flag(f"backup {ev.task} names primary cpu {ev.value}, "
                      f"outside [-1, {n})", t=ev.t)
        elif ev.value >= 0 and 0 <= ev.cpu < n:
            topo = machine.topology
            if topo.physical_core_of(ev.cpu) \
                    == topo.physical_core_of(ev.value):
                self.flag(f"backup {ev.task} placed on cpu {ev.cpu}, the "
                          f"same physical core as its primary's cpu "
                          f"{ev.value}", t=ev.t)


class ActivationPairing(_Replay):
    """Backups are promoted only inside the application of a core-failure
    fault, so every activation (and every RT kill) shares its timestamp
    with a ``fault.core_failure`` event, and the counters mirror the
    event stream.  Decided in ``finish``: the kernel logs the kills and
    activations before the failure event itself."""

    name = "rt.activation_pairing"
    kinds = frozenset({oev.RT_BACKUP_ACTIVATE, oev.RT_KILL,
                       oev.FAULT_CORE_FAILURE})

    def finish(self, ctx: AnalysisContext) -> List[Violation]:
        m = self.art.result.metrics
        activations = _counter(m, "kernel.rt_backup_activations")
        kills = _counter(m, "kernel.rt_kills")
        if not self.art.events:
            if activations > kills:
                self.flag(f"{activations} backup activations exceed "
                          f"{kills} RT kills")
            return self.found
        counts = self.counts
        if counts.get(oev.RT_BACKUP_ACTIVATE, 0) != activations:
            self.flag(f"{counts.get(oev.RT_BACKUP_ACTIVATE, 0)} activation "
                      f"events but the counter says {activations}")
        if counts.get(oev.RT_KILL, 0) != kills:
            self.flag(f"{counts.get(oev.RT_KILL, 0)} rt.kill events but the "
                      f"counter says {kills}")
        failure_times = {ev.t for ev in self.events
                         if ev.kind == oev.FAULT_CORE_FAILURE}
        for ev in self.events:
            if ev.kind != oev.FAULT_CORE_FAILURE \
                    and ev.t not in failure_times:
                self.flag(f"{ev.kind} for task {ev.task} has no "
                          f"core-failure event at its timestamp", t=ev.t)
        return self.found


def check_scxnest_event_counter_match(
        art: "RunArtifacts", counts: Dict[str, int]) -> List[Violation]:
    """scx_nest's event log and counters tell the same story."""
    m = art.result.metrics
    return _event_counter_match(art, counts, "scxnest", {
        oev.PLACE_PRIMARY: _counter(m, "scxnest.primary_hits"),
        oev.PLACE_RESERVE: _counter(m, "scxnest.reserve_hits"),
        oev.NEST_PROMOTE: _counter(m, "scxnest.reserve_hits"),
        oev.PLACE_IMPATIENT: _counter(m, "scxnest.impatient_placements"),
        oev.PLACE_CFS: (_counter(m, "scxnest.cfs_fallbacks")
                        - _counter(m, "scxnest.impatient_placements")),
        oev.NEST_EXPAND: _counter(m, "scxnest.expansions"),
        oev.NEST_COMPACT: _counter(m, "scxnest.compactions"),
        oev.SCXNEST_COMPACT_ARM: _counter(m, "scxnest.compact_arms"),
        oev.SCXNEST_COMPACT_CANCEL: _counter(m, "scxnest.compact_cancels"),
        oev.SCXNEST_VTIME_PULL: _counter(m, "scxnest.vtime_pulls"),
        oev.NEST_OFFLINE_EVICT: _counter(m, "scxnest.offline_evictions"),
    })


#: The oracle, in evaluation order.  Names are stable: repro files,
#: shrinking and the mutation canary key off them.  A function decides
#: from the result, the snapshot and the per-kind event counts; an
#: analyzer class replays the events it declares, in order; ``None``
#: marks the two invariants the every-event analyzer decides.
INVARIANTS: Tuple[Tuple[str, Any], ...] = (
    ("run.completed", check_completed),
    ("clock.monotonic", None),
    ("events.vocabulary", None),
    ("nest.event_counter_match", check_event_counter_match),
    ("nest.primary_replay", PrimaryReplay),
    ("nest.final_state", check_final_state),
    ("nest.attachment", Attachment),
    ("nest.feature_legality", check_feature_legality),
    ("sched.wakeup_dispatch", WakeupDispatch),
    ("sched.latency_accounting", LatencyAccounting),
    ("metrics.histograms", check_histograms),
    ("freq.sanity", FreqSanity),
    ("spin.pairing", SpinPairing),
    ("faults.consistency", check_fault_consistency),
    ("rt.miss_causality", MissCausality),
    ("rt.backup_disjoint", BackupDisjoint),
    ("rt.activation_pairing", ActivationPairing),
    ("scxnest.event_counter_match", check_scxnest_event_counter_match),
)


def check_run(art: "RunArtifacts") -> List[Violation]:
    """Evaluate every invariant against one run's artifacts.

    The every-event analyzer and the replays that apply to the run share
    one routed pass over ``art.events``; the functions then read the
    per-kind counts it left.
    """
    if art.error is not None:
        return [Violation("run.completed", f"simulation crashed: {art.error}")]
    if art.result is None:   # pragma: no cover - execute() guarantees one
        return [Violation("run.completed", "no result produced")]
    every = _EveryEvent(art)
    replays = [check(art, every.counts) for _name, check in INVARIANTS
               if isinstance(check, type) and check.applies(art)]
    verdicts = run_analyzers(art.events, AnalysisContext(),
                             [every, *replays])
    verdicts.update(verdicts.pop(every.name))
    out: List[Violation] = []
    for name, check in INVARIANTS:
        if check is None or isinstance(check, type):
            out.extend(verdicts.get(name, ()))
        else:
            out.extend(check(art, every.counts))
    return out
