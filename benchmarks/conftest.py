"""Shared infrastructure for the per-figure benchmarks.

Each benchmark module regenerates one paper artefact (table or figure),
prints it in a paper-like text form, and asserts the *shape* the paper
claims (who wins, directions, rough factors) — not absolute numbers, since
the substrate is a simulator rather than the authors' testbed.

The runs a bench reads are its registry entry's specs
(:func:`repro.experiments.registry.specs_for`), so ``repro sweep <id>``
runs exactly what the bench asserts on.  One
:class:`~repro.experiments.parallel.SweepExecutor`, shared by the whole
test run, runs them with ``$REPRO_JOBS`` workers (else one per cpu)
through a result cache: the content-addressed ``.repro-cache/``, so a
rerun against an unchanged engine re-simulates only the traced runs, or
under ``REPRO_NO_CACHE=1`` a temp dir of the test run, so figures 4-7
still share one configure sweep.  The schbench and multi-app benches run
their entry's specs directly, since they read the workload object after
the run.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.parallel import RunSpec, SweepExecutor
from repro.experiments.registry import Experiment, specs_for
from repro.metrics.summary import RunResult


class Runs(dict):
    """One registry entry's results, keyed by their specs."""

    def __init__(self, exp: Experiment, specs, results, **overrides) -> None:
        super().__init__(zip(specs, results))
        self.exp = exp
        self._overrides = overrides

    def spec(self, workload: str, machine: str, scheduler: str = "cfs",
             governor: str = "schedutil", seed: int = 1,
             variant: str | None = None) -> RunSpec:
        """The entry's spec of this run, at its workload's scale."""
        scale = {name: group.scale for group in self.exp.workloads
                 for name in group.names}[workload]
        params = dict(self.exp.variants)[variant] if variant else None
        return RunSpec(workload=workload, machine=machine,
                       scheduler=scheduler, governor=governor, seed=seed,
                       scale=scale, nest_params=params, **self._overrides)

    def result(self, *args, **kwargs) -> RunResult:
        """The result of :meth:`spec`'s run; a run the entry does not list
        raises ``KeyError``."""
        return self[self.spec(*args, **kwargs)]


@pytest.fixture(scope="session")
def sweep(tmp_path_factory):
    """``sweep(exp, names=None, **spec_fields)`` runs the entry's specs
    (only those of the workloads in ``names``, when given), with
    ``spec_fields`` replaced (e.g. ``record_trace=True``), and returns
    their :class:`Runs`."""
    if os.environ.get("REPRO_NO_CACHE"):
        cache = ResultCache(tmp_path_factory.mktemp("repro-cache"))
    else:
        cache = ResultCache()
    executor = SweepExecutor(cache=cache)

    def run(exp: Experiment, names=None, **overrides) -> Runs:
        specs = [dataclasses.replace(s, **overrides) for s in specs_for(exp)
                 if names is None or s.workload in names]
        return Runs(exp, specs, executor.run(specs), **overrides)

    return run


def once(benchmark, fn):
    """Run a regeneration function exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def speedup_pct(base: RunResult, cand: RunResult) -> float:
    return base.makespan_us / cand.makespan_us - 1.0
