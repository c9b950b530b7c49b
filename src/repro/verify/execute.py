"""Run one scenario and gather everything the oracle inspects.

A scenario is a :class:`~repro.experiments.parallel.RunSpec`, run by
:func:`~repro.experiments.parallel.execute_spec` like any sweep's.  The
oracle deliberately sees *more* than a cached :class:`RunResult`: the
full structured event log (for replay checks) and a snapshot of the
final nest membership taken through ``run_experiment``'s policy probe
(primary/reserve sets never reach the serialized result).  A crash
inside the simulator is not propagated — it comes back as
``RunArtifacts.error`` so the fuzzer can shrink crashing scenarios
exactly like invariant-violating ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..experiments.parallel import RunSpec, execute_spec
from ..hw.machines import Machine, get_machine
from ..metrics.summary import RunResult
from ..obs.events import SchedEvent
from .oracle import NestSnapshot


@dataclass
class RunArtifacts:
    """Everything one scenario run produced, for the oracle."""

    scenario: RunSpec
    machine: Machine
    result: Optional[RunResult] = None
    events: List[SchedEvent] = field(default_factory=list)
    nest: Optional[NestSnapshot] = None
    #: ``repr`` of the exception if the run crashed (oracle violation).
    error: Optional[str] = None


def run_scenario(scenario: RunSpec, collect_events: bool = True,
                 probe: bool = True) -> RunArtifacts:
    """Execute ``scenario``; never raises on simulator failure."""
    machine = get_machine(scenario.machine)
    art = RunArtifacts(scenario=scenario, machine=machine)

    snapshot: List[NestSnapshot] = []

    def policy_probe(policy) -> None:
        if hasattr(policy, "primary") and hasattr(policy, "reserve"):
            snapshot.append(NestSnapshot(
                primary=frozenset(policy.primary),
                reserve=frozenset(policy.reserve),
                r_max=policy.params.r_max,
                reserve_enabled=policy.params.reserve_enabled,
            ))

    try:
        result = execute_spec(scenario, collect_events=collect_events,
                              policy_probe=policy_probe if probe else None)
    except Exception as exc:
        art.error = f"{type(exc).__name__}: {exc}"
        return art
    art.result = result
    art.events = list(getattr(result, "events", None) or ())
    art.nest = snapshot[0] if snapshot else None
    return art
