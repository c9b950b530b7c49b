"""Greedy scenario shrinking: from a failing scenario to a minimal repro.

When the fuzzer finds a scenario that violates an invariant, the raw
scenario is rarely the story — the fault config, the horizon cap, the
big machine may all be incidental.  The shrinker tries a fixed ladder of
simplifications (drop faults, drop the cap, halve the workload scale,
shrink the machine, drop parameter overrides, simplify governor and
workload, canonicalize the seed) and keeps a candidate only if it still
trips at least one of the *original* invariants — the failure must be
the same failure, not a new one uncovered along the way.

The ladder is applied to a fixpoint under a re-run budget, so shrinking
a typical failure costs tens of extra simulations, each usually cheaper
than the last.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, List, Optional, Sequence, Tuple

from ..experiments.parallel import RunSpec
from .oracle import Violation

#: A check function re-runs a scenario and reports what failed.
CheckFn = Callable[[RunSpec], List[Violation]]

#: The cheapest catalogued workload; the final simplification target.
SIMPLEST_WORKLOAD = ("configure-gcc", 0.1)
SIMPLEST_MACHINE = "ryzen_4650g"
MIN_SCALE = 0.1


def _candidates(sc: RunSpec) -> Sequence[Tuple[str, RunSpec]]:
    """The simplification ladder, most-impactful first."""
    out: List[Tuple[str, RunSpec]] = []
    if sc.faults is not None:
        out.append(("drop faults", replace(sc, faults=None)))
    if sc.max_us is not None:
        out.append(("drop max_us", replace(sc, max_us=None)))
    if sc.scale > MIN_SCALE:
        halved = max(MIN_SCALE, round(sc.scale / 2, 2))
        out.append((f"scale {sc.scale} -> {halved}",
                    replace(sc, scale=halved)))
    if sc.machine != SIMPLEST_MACHINE:
        out.append(("simplify machine", replace(sc, machine=SIMPLEST_MACHINE)))
    if sc.nest_params is not None:
        out.append(("drop nest_params", replace(sc, nest_params=None)))
    if sc.governor != "schedutil":
        out.append(("governor -> schedutil",
                    replace(sc, governor="schedutil")))
    wl, scale = SIMPLEST_WORKLOAD
    if sc.workload != wl:
        out.append(("simplify workload",
                    replace(sc, workload=wl, scale=scale)))
    if sc.seed != 1:
        out.append(("seed -> 1", replace(sc, seed=1)))
    return out


def shrink(
    scenario: RunSpec,
    check: CheckFn,
    violations: Optional[List[Violation]] = None,
    budget: int = 40,
) -> Tuple[RunSpec, List[Violation]]:
    """Minimize ``scenario`` while it keeps failing the same invariants.

    ``check`` re-runs a candidate and returns its violations;
    ``violations`` are the original scenario's (re-computed when omitted,
    which costs one run from the budget).  Returns the smallest scenario
    found and the violations it produces.  With a zero budget, or if no
    simplification preserves the failure, the input comes back unchanged.
    """
    if violations is None:
        budget -= 1
        violations = check(scenario)
    target = {v.invariant for v in violations}
    if not target:
        return scenario, violations

    current, current_violations = scenario, violations
    progressed = True
    while progressed and budget > 0:
        progressed = False
        for _label, candidate in _candidates(current):
            if budget <= 0:
                break
            budget -= 1
            cand_violations = check(candidate)
            if target & {v.invariant for v in cand_violations}:
                current, current_violations = candidate, cand_violations
                progressed = True
                break   # restart the ladder from the simpler scenario
    return current, current_violations
