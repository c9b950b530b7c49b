"""The fuzz loop: generate, run, check, shrink, save.

One fuzz campaign is a pure function of its :class:`FuzzConfig`: the
scenario stream is seeded, every simulation is seeded, the differential
sampling is index-based, and shrinking is greedy-deterministic — running
the same config twice yields the same :class:`FuzzReport` verdict for
verdict (wall-clock timings aside).  That is what lets CI pin a fixed
seed and a hard time budget and still reproduce any failure locally
with nothing but the report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from ..experiments.parallel import RunSpec
from .differential import DIFF_CHECKS, check_scenario
from .execute import run_scenario
from .generate import ScenarioGenerator
from .oracle import Violation
from .repro import save_repro
from .shrink import shrink

LogFn = Callable[[str], None]


@dataclass(frozen=True)
class FuzzConfig:
    """Everything that determines a fuzz campaign's verdicts."""

    runs: int = 200
    base_seed: int = 1
    #: Run the cheap differential checks on every Nth clean scenario
    #: (0 disables them).
    diff_every: int = 10
    #: Run the process-spawning serial-vs-parallel check on every Nth
    #: scenario (0 disables it; it costs ~6 extra simulations plus pool
    #: startup, so it is sampled far more sparsely).
    par_every: int = 100
    #: Stop after this many failing scenarios (0 = never stop early).
    max_failures: int = 5
    #: Where shrunk repro files land (None = don't write them).
    repro_dir: Optional[Path] = None
    #: Re-run budget for shrinking each failure (0 disables shrinking).
    shrink_budget: int = 40


@dataclass
class Failure:
    """One failing scenario, as found and as shrunk."""

    index: int
    scenario: RunSpec
    violations: List[Violation]
    shrunk: RunSpec
    shrunk_violations: List[Violation]
    repro_path: Optional[Path] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "scenario": self.scenario.to_dict(),
            "invariants": sorted({v.invariant for v in self.violations}),
            "violations": [v.to_dict() for v in self.violations],
            "shrunk_scenario": self.shrunk.to_dict(),
            "shrunk_violations": [v.to_dict()
                                  for v in self.shrunk_violations],
            "repro_path": (None if self.repro_path is None
                           else str(self.repro_path)),
        }


@dataclass
class FuzzReport:
    """The campaign's outcome; ``verdicts`` is the deterministic core."""

    config: FuzzConfig
    n_runs: int = 0
    n_diff_rounds: int = 0
    failures: List[Failure] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def verdicts(self) -> List[tuple]:
        """(index, sorted invariant names) per failure — everything about
        the campaign that must reproduce bit-for-bit under one seed."""
        return [(f.index, tuple(sorted({v.invariant for v in f.violations})))
                for f in self.failures]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "runs": self.n_runs,
            "base_seed": self.config.base_seed,
            "diff_rounds": self.n_diff_rounds,
            "ok": self.ok,
            "failures": [f.to_dict() for f in self.failures],
            "elapsed_s": round(self.elapsed_s, 3),
        }

    def summary(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.failures)} FAILURE(S)"
        return (f"fuzz: {self.n_runs} scenario(s), {self.n_diff_rounds} "
                f"differential round(s), {verdict} "
                f"[{self.elapsed_s:.1f}s, seed {self.config.base_seed}]")


def _diff_violations(scenario: RunSpec, index: int,
                     config: FuzzConfig) -> List[Violation]:
    """The differential checks due at this index, cheapest first."""
    out: List[Violation] = []
    for name, fn in DIFF_CHECKS:
        if name == "diff.serial_vs_parallel":
            if not config.par_every or index % config.par_every:
                continue
        out.extend(fn(scenario))
    return out


def _shrunk_analysis(scenario: RunSpec) -> Optional[Dict[str, Any]]:
    """Trace-analysis digest of the shrunk failing run, for the repro.

    Costs one extra (small, already-shrunk) simulation per failure and
    never blocks the repro: a crashing scenario — which has no event
    log to analyze — simply yields no digest.
    """
    from ..obs.analysis import analysis_digest, analyze_run
    art = run_scenario(scenario, probe=False)
    if art.result is None:
        return None
    report = analyze_run(art.result, art.events,
                         n_cpus=art.machine.n_cpus)
    return analysis_digest(report)


def fuzz(config: FuzzConfig, log: Optional[LogFn] = None) -> FuzzReport:
    """Run one fuzz campaign; deterministic for a given config."""
    say = log or (lambda _msg: None)
    gen = ScenarioGenerator(config.base_seed)
    report = FuzzReport(config=config)
    t0 = time.perf_counter()

    for i in range(config.runs):
        scenario = gen.generate(i)
        violations = check_scenario(scenario)

        run_diffs = (config.diff_every and i % config.diff_every == 0
                     and not violations)
        if run_diffs:
            report.n_diff_rounds += 1
            violations.extend(_diff_violations(scenario, i, config))

        report.n_runs += 1
        if not violations:
            continue

        names = sorted({v.invariant for v in violations})
        say(f"[{i}] FAIL {scenario.label}: {', '.join(names)}")
        diff_names = {n for n in names if n.startswith("diff.")}
        if config.shrink_budget > 0:
            small, small_violations = shrink(
                scenario, lambda sc: check_scenario(sc, diff_names),
                violations=violations, budget=config.shrink_budget)
            if small != scenario:
                say(f"[{i}]   shrunk to {small.label}")
        else:
            small, small_violations = scenario, violations

        failure = Failure(index=i, scenario=scenario,
                          violations=violations, shrunk=small,
                          shrunk_violations=small_violations)
        if config.repro_dir is not None:
            path = Path(config.repro_dir) / f"repro-s{config.base_seed}-i{i}.json"
            failure.repro_path = save_repro(
                path, small, small_violations,
                origin={"base_seed": config.base_seed, "index": i,
                        "unshrunk_scenario": scenario.to_dict()},
                analysis=_shrunk_analysis(small))
            say(f"[{i}]   repro written to {path}")

        report.failures.append(failure)
        if config.max_failures and len(report.failures) >= config.max_failures:
            say(f"stopping: {len(report.failures)} failure(s) reached "
                f"the --max-failures limit")
            break

    report.elapsed_s = time.perf_counter() - t0
    return report
