"""The policy conformance battery: certify any registered scheduler.

The SDK promise (sched/base.py, sched/registry.py) is that a new policy
is one class plus one registry entry — *automatically* fuzzed and
oracle-checked.  This module is the "automatically": a fixed scenario
battery that any registered policy is driven through, each run checked
for

* **completion** — the simulation runs to the end without crashing,
  including under an injected hotplug + thermal fault plan;
* **oracle cleanliness** — every invariant the oracle applies to this
  policy (generic families always; ``nest.*`` / ``scxnest.*`` / ``rt.*``
  per the registry's ``invariant_groups``) holds;
* **determinism** — an immediate re-run is bit-identical (result image,
  event stream, final mask snapshot), and the baseline scenario digests
  identically under two different ``PYTHONHASHSEED`` values in fresh
  interpreters;
* **cache round-trip** — the result survives the content-addressed
  cache and the JSON serializer losslessly.

``tests/test_policy_conformance.py`` parametrizes this battery over
``available_policies()``, and the CI conformance-matrix job runs it per
policy — plus :class:`BrokenEventPolicy`, a deliberately broken fixture
that must be *convicted* (the suite's own canary).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Tuple

from ..experiments.parallel import RunSpec
from ..faults.plan import FaultConfig
from ..sched.cfs import CfsPolicy
from ..sched.registry import policy_info
from .differential import canonical, check_cached_roundtrip
from .execute import run_scenario
from .oracle import Violation, check_run

#: The fixed scenario battery, as (label, scenario-template) pairs; the
#: template's ``scheduler`` field is filled in per policy.  Chosen to be
#: cheap (sub-second each on the small box) while covering: a warm
#: steady-state mix, a fork-heavy burst, a multi-die machine, the RT
#: deadline machinery, and a hotplug + thermal fault storm.
_FAULT_STORM = FaultConfig(hotplug_rate_per_s=100.0,
                           hotplug_downtime_us=10_000,
                           thermal_rate_per_s=50.0,
                           thermal_duration_us=5_000,
                           thermal_cap_ratio=0.6,
                           horizon_us=40_000)

BATTERY: Tuple[Tuple[str, RunSpec], ...] = (
    ("warm", RunSpec(workload="dacapo-h2", machine="ryzen_4650g",
                     scheduler="", governor="schedutil", seed=3,
                     scale=0.1)),
    ("forky", RunSpec(workload="configure-gcc", machine="ryzen_4650g",
                      scheduler="", governor="performance", seed=1,
                      scale=0.2)),
    ("multi_die", RunSpec(workload="dacapo-h2", machine="5218_2s",
                          scheduler="", governor="schedutil", seed=2,
                          scale=0.1)),
    ("deadline", RunSpec(workload="deadline-periodic",
                         machine="ryzen_4650g", scheduler="",
                         governor="schedutil", seed=4, scale=0.5)),
    ("faulted", RunSpec(workload="configure-gcc", machine="ryzen_4650g",
                        scheduler="", governor="schedutil", seed=5,
                        scale=0.1, faults=_FAULT_STORM)),
)

#: The battery scenario the expensive singleton checks (cache round-trip,
#: cross-interpreter hash-seed determinism) run on.
BASELINE_LABEL = "warm"

#: Hash seeds the cross-interpreter determinism check compares.  Two
#: values are enough: a policy that iterates an unordered container can
#: not digest identically under both unless it got lucky, and the fuzz
#: corpus catches the lucky ones.
HASHSEEDS = ("0", "1")


@dataclass(frozen=True)
class ConformanceCheck:
    """One named check against one battery scenario."""

    name: str
    scenario: str
    ok: bool
    detail: str = ""


@dataclass
class ConformanceReport:
    """Everything the battery found out about one policy."""

    policy: str
    checks: List[ConformanceCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> List[ConformanceCheck]:
        return [c for c in self.checks if not c.ok]


def battery_scenarios(policy: str) -> List[Tuple[str, RunSpec]]:
    """The battery with ``policy`` filled into every template."""
    return [(label, replace(sc, scheduler=policy))
            for label, sc in BATTERY]


def scenario_digest(scenario: RunSpec) -> str:
    """A content digest of everything deterministic about one run."""
    art = run_scenario(scenario)
    if art.error is not None:
        return f"error:{art.error}"
    payload = {
        "result": canonical(art.result, scenario.machine),
        "events": [list(ev) for ev in art.events],
        "nest": (None if art.nest is None else
                 [sorted(art.nest.primary), sorted(art.nest.reserve),
                  art.nest.r_max, art.nest.reserve_enabled]),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _digest_under_hashseed(scenario: RunSpec, hashseed: str) -> str:
    """``scenario_digest`` in a fresh interpreter with a pinned seed.

    ``PYTHONHASHSEED`` only takes effect at interpreter start, so the
    check must cross a process boundary."""
    src_root = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import json, sys\n"
            "from repro.experiments.parallel import RunSpec\n"
            "from repro.verify.conformance import scenario_digest\n"
            "sc = RunSpec.from_dict(json.loads(sys.argv[1]))\n"
            "print(scenario_digest(sc))\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(scenario.to_dict())],
        capture_output=True, text=True, env=env, timeout=600)
    if proc.returncode != 0:
        return f"subprocess-failed: {proc.stderr.strip()[-300:]}"
    return proc.stdout.strip()


def _format_violations(violations: List[Violation]) -> str:
    shown = "; ".join(str(v) for v in violations[:3])
    more = len(violations) - 3
    return shown + (f" (+{more} more)" if more > 0 else "")


def run_conformance(policy: str, *,
                    hashseed_check: bool = True) -> ConformanceReport:
    """Drive one registered policy through the full battery."""
    info = policy_info(policy)   # raises for unknown names
    report = ConformanceReport(policy=info.name)
    add = report.checks.append

    arts = {}
    for label, scenario in battery_scenarios(info.name):
        art = run_scenario(scenario)
        arts[label] = (scenario, art)
        add(ConformanceCheck(
            "completes", label, art.error is None,
            art.error or ""))
        if art.error is not None:
            continue
        violations = check_run(art)
        add(ConformanceCheck(
            "oracle", label, not violations,
            _format_violations(violations)))
        rerun = run_scenario(scenario)
        same = (rerun.error is None
                and canonical(art.result, scenario.machine)
                == canonical(rerun.result, scenario.machine)
                and art.events == rerun.events
                and art.nest == rerun.nest)
        add(ConformanceCheck(
            "determinism", label, same,
            "" if same else "re-run in the same process diverged"))

    base_scenario, base_art = arts[BASELINE_LABEL]
    if base_art.error is None:
        cache_v = list(check_cached_roundtrip(base_scenario))
        add(ConformanceCheck(
            "cache_roundtrip", BASELINE_LABEL, not cache_v,
            _format_violations(cache_v)))

        if hashseed_check:
            digests = [_digest_under_hashseed(base_scenario, h)
                       for h in HASHSEEDS]
            ok = (len(set(digests)) == 1
                  and not digests[0].startswith("subprocess-failed")
                  and not digests[0].startswith("error:"))
            add(ConformanceCheck(
                "hashseed_determinism", BASELINE_LABEL, ok,
                "" if ok else f"digests {digests}"))

    return report


def render_report(report: ConformanceReport) -> str:
    """A human-readable pass/fail table for the CLI."""
    lines = [f"conformance: {report.policy} — "
             f"{'PASS' if report.passed else 'FAIL'}"]
    for c in report.checks:
        mark = "ok " if c.ok else "FAIL"
        detail = f"  {c.detail}" if c.detail and not c.ok else ""
        lines.append(f"  [{mark}] {c.name:<22} {c.scenario:<10}{detail}")
    return "\n".join(lines)


class BrokenEventPolicy(CfsPolicy):
    """A deliberately broken fixture policy: the conformance suite's
    own canary.  It emits an event kind outside ``EVENT_KINDS``, so the
    oracle's ``events.vocabulary`` invariant must convict it on every
    battery scenario that collects events.  Registered temporarily by
    the conviction test and the CI conformance-matrix job — never part
    of the shipped registry."""

    def select_cpu_wakeup(self, task, waker_cpu: int) -> int:
        cpu = super().select_cpu_wakeup(task, waker_cpu)
        obs = self.kernel.engine.obs
        if obs.enabled:
            obs.emit(self.kernel.engine.now, "broken.place", cpu=cpu,
                     task=task.tid)
        return cpu

    @property
    def name(self) -> str:
        return "Broken"


def register_broken_fixture():
    """Register the broken fixture under the name ``broken``; returns
    the info so callers can clean up with ``unregister_policy``."""
    from ..sched.registry import register_policy
    return register_policy(
        "broken", lambda params: BrokenEventPolicy(),
        description="deliberately broken conformance fixture "
                    "(emits an unknown event kind)",
        replace=True)
