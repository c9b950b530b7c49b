"""The structured scheduler-event vocabulary.

Every decision the paper's figures reason about becomes one typed,
timestamped record: which search tier placed a task (§3.1/§3.3), when the
nest grew or was compacted, when a core started or stopped the warm-core
spin (§3.2), when the hardware stepped a core's frequency (§2.3), and the
generic kernel happenings (wakeups, forks, preemptions, migrations) that
give the rest context.

A :class:`SchedEvent` is a ``NamedTuple`` on purpose: construction is one
C-level allocation, there is no ``__dict__``, and it unpacks positionally
in sinks — the event log stays cheap even for event-per-placement rates.
"""

from __future__ import annotations

from typing import NamedTuple


class SchedEvent(NamedTuple):
    """One timestamped scheduler event.

    ``cpu`` and ``task`` are ``-1`` when not applicable; ``value`` carries
    the kind-specific payload (frequency in MHz for ``freq.*``, primary-nest
    size after the transition for ``nest.*``, source cpu for migrations,
    wakeup latency in µs for ``sched.dispatch``).
    """

    t: int          # simulated time, µs
    kind: str       # one of EVENT_KINDS
    cpu: int = -1
    task: int = -1
    value: int = 0


# --- placement decisions: which tier of the §3 search chose the core -----
PLACE_ATTACH = "place.attach"          # §3.3 attached-core hit
PLACE_PRIMARY = "place.primary"        # primary-nest hit
PLACE_RESERVE = "place.reserve"        # reserve-nest hit (promotes the core)
PLACE_IMPATIENT = "place.impatient"    # §3.1 impatient expansion via CFS
PLACE_CFS = "place.cfs"                # fell through to CFS

# --- nest membership transitions (Figure 1's blue arrows) ----------------
# Nest and scx_nest share one mask core (sched/nestcore.py) and emit
# these alike; scx_nest's compaction timer demotes with nest.compact.
NEST_PROMOTE = "nest.promote"          # reserve -> primary
NEST_EXPAND = "nest.expand"            # impatient: CFS pick -> primary
NEST_COMPACT = "nest.compact"          # stale primary core demoted (§3.1)
NEST_EXIT_DEMOTE = "nest.exit_demote"  # task exit demoted its core (§3.1)

# --- kernel-level happenings ---------------------------------------------
SCHED_FORK = "sched.fork"              # fork placement committed
SCHED_WAKEUP = "sched.wakeup"          # wakeup placement committed
SCHED_DISPATCH = "sched.dispatch"      # task started running (value=latency)
SCHED_PREEMPT = "sched.preempt"        # running task preempted
SCHED_MIGRATE = "sched.migrate"        # queued task moved (value=source cpu)

# --- warm-core spinning (§3.2) -------------------------------------------
SPIN_START = "spin.start"
SPIN_STOP = "spin.stop"

# --- DVFS (§2.3) ---------------------------------------------------------
FREQ_STEP = "freq.step"                # hardware stepped a physical core
FREQ_REQUEST = "freq.request"          # a cpu's schedutil request changed

# --- injected faults (faults/) -------------------------------------------
FAULT_CPU_OFFLINE = "fault.cpu_offline"    # hardware thread hotplugged out
FAULT_CPU_ONLINE = "fault.cpu_online"      # hardware thread came back
FAULT_THERMAL_CAP = "fault.thermal_cap"    # core capped (value=cap MHz)
FAULT_THERMAL_CLEAR = "fault.thermal_clear"  # cap lifted
FAULT_STRAGGLER = "fault.straggler"        # running task slowed (value=%)
FAULT_JITTER_ON = "fault.jitter_on"        # tick jitter armed (value=max µs)
FAULT_CORE_FAILURE = "fault.core_failure"  # fail-stop core failure
                                           # (value=RT copies destroyed)

# --- fault-tolerant RT scheduling (DESIGN.md §10) -------------------------
RT_BACKUP_PLACE = "rt.backup_place"      # FT-RT committed a backup's core
                                         # (value=primary cpu, -1 fallback)
RT_BACKUP_ACTIVATE = "rt.backup_activate"  # cold backup promoted
                                           # (value=dead primary's tid)
RT_KILL = "rt.kill"                      # RT copy destroyed by core failure
RT_DEADLINE_MET = "rt.deadline_met"      # job finished by its deadline
RT_DEADLINE_MISS = "rt.deadline_miss"    # job lost or finished late
                                         # (value=absolute deadline µs)

# --- nest repair under faults --------------------------------------------
NEST_OFFLINE_EVICT = "nest.offline_evict"  # offline core evicted from nests

# --- scx_nest comparator (sched/scxnest.py; DESIGN.md §11) ---------------
# The mechanisms only scx_nest has; its mask transitions are nest.* above.
SCXNEST_COMPACT_ARM = "scxnest.compact_arm"      # per-core timer armed
SCXNEST_COMPACT_CANCEL = "scxnest.compact_cancel"  # core reused: timer void
SCXNEST_VTIME_PULL = "scxnest.vtime_pull"  # idle core pulled the min-vtime
                                           # queued task (value=source cpu)

#: Every kind the log may carry, for exporters and schema validation.
EVENT_KINDS = frozenset({
    PLACE_ATTACH, PLACE_PRIMARY, PLACE_RESERVE, PLACE_IMPATIENT, PLACE_CFS,
    NEST_PROMOTE, NEST_EXPAND, NEST_COMPACT, NEST_EXIT_DEMOTE,
    NEST_OFFLINE_EVICT,
    SCXNEST_COMPACT_ARM, SCXNEST_COMPACT_CANCEL, SCXNEST_VTIME_PULL,
    SCHED_FORK, SCHED_WAKEUP, SCHED_DISPATCH, SCHED_PREEMPT, SCHED_MIGRATE,
    SPIN_START, SPIN_STOP,
    FREQ_STEP, FREQ_REQUEST,
    FAULT_CPU_OFFLINE, FAULT_CPU_ONLINE, FAULT_THERMAL_CAP,
    FAULT_THERMAL_CLEAR, FAULT_STRAGGLER, FAULT_JITTER_ON,
    FAULT_CORE_FAILURE,
    RT_BACKUP_PLACE, RT_BACKUP_ACTIVATE, RT_KILL,
    RT_DEADLINE_MET, RT_DEADLINE_MISS,
})

#: The nest-membership transitions, exported as Perfetto instant events.
NEST_TRANSITION_KINDS = frozenset({
    NEST_PROMOTE, NEST_EXPAND, NEST_COMPACT, NEST_EXIT_DEMOTE,
    NEST_OFFLINE_EVICT,
})

#: Fault injections, exported as Perfetto instant events as well.
FAULT_KINDS = frozenset({
    FAULT_CPU_OFFLINE, FAULT_CPU_ONLINE, FAULT_THERMAL_CAP,
    FAULT_THERMAL_CLEAR, FAULT_STRAGGLER, FAULT_JITTER_ON,
    FAULT_CORE_FAILURE,
})

#: RT (deadline-scheduling) kinds, for exporters and summaries.
RT_KINDS = frozenset({
    RT_BACKUP_PLACE, RT_BACKUP_ACTIVATE, RT_KILL,
    RT_DEADLINE_MET, RT_DEADLINE_MISS,
})

#: Placement-decision kinds, in presentation order for summaries.
PLACEMENT_KINDS = (
    PLACE_ATTACH, PLACE_PRIMARY, PLACE_RESERVE, PLACE_IMPATIENT, PLACE_CFS,
)

#: Transitions that add the event's cpu to the primary nest (always a
#: non-member) / remove it.  Together with ``NEST_OFFLINE_EVICT`` (which
#: may also evict a reserve-only core) these are *exhaustive*: every
#: mutation of the primary set emits exactly one of them, under Nest and
#: scx_nest alike, which is what lets the verification oracle
#: (repro.verify.oracle) replay primary membership from the event log
#: alone.
PRIMARY_ADD_KINDS = frozenset({NEST_PROMOTE, NEST_EXPAND})
PRIMARY_REMOVE_KINDS = frozenset({NEST_COMPACT, NEST_EXIT_DEMOTE})

#: Placement commit kinds (the kernel accepted the policy's choice and
#: recorded the core in the task's §3.3 attachment history).
COMMIT_KINDS = frozenset({SCHED_FORK, SCHED_WAKEUP})

#: Short tier names of the placement kinds, in presentation order
#: (``place.attach`` -> ``attach`` ...).  Analysis reports key latency
#: breakdowns on these.
PLACEMENT_TIERS = tuple(k.split(".", 1)[1] for k in PLACEMENT_KINDS)

#: Tier label for dispatches with no preceding ``place.*`` event — pure
#: CFS runs emit none (the CFS scheduler is not instrumented with
#: placement tiers), so their latency lands here.
UNATTRIBUTED_TIER = "unattributed"


def placement_tier(kind: str) -> "str | None":
    """The short tier name of a placement kind (``None`` otherwise)."""
    if kind in PLACEMENT_KINDS:
        return kind.split(".", 1)[1]
    return None


def event_to_dict(ev: SchedEvent) -> dict:
    """The JSONL-dump representation of one event (stable field names)."""
    return {"t": ev.t, "kind": ev.kind, "cpu": ev.cpu,
            "task": ev.task, "value": ev.value}


def event_from_dict(d: dict) -> SchedEvent:
    """Rebuild a :class:`SchedEvent` from its JSONL-dump representation."""
    return SchedEvent(t=int(d["t"]), kind=str(d["kind"]),
                      cpu=int(d.get("cpu", -1)), task=int(d.get("task", -1)),
                      value=int(d.get("value", 0)))
