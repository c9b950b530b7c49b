"""Fuzzer, shrinker, differential checks and repro files, end to end.

Synthetic check functions drive the shrinker (no simulator needed); the
fuzz loop and repro replay run the real thing on small budgets.
"""

import dataclasses
import json

import pytest

from repro.verify.differential import (DIFF_CHECKS, canonical,
                                       check_cached_roundtrip,
                                       check_empty_fault_plan,
                                       check_nest_vs_cfs)
from repro.verify.execute import run_scenario
from repro.verify.fuzz import FuzzConfig, fuzz
from repro.verify.oracle import Violation, check_run
from repro.verify.repro import load_repro, replay_repro, save_repro
from repro.verify.shrink import shrink
from repro.faults.plan import FaultConfig
from repro.experiments.parallel import RunSpec, execute_spec

COMPLEX = RunSpec(
    workload="leveldb", machine="5218_2s", scheduler="nest",
    governor="performance", seed=424242, scale=1.0,
    faults=FaultConfig(hotplug_rate_per_s=50.0), max_us=30_000)

MINIMAL = RunSpec(workload="configure-gcc", machine="ryzen_4650g",
                  scheduler="nest", governor="schedutil", seed=1, scale=0.1)


# ---------------------------------------------------------------------------
# Shrinker
# ---------------------------------------------------------------------------

def test_shrink_reaches_the_minimal_scenario():
    # A failure that reproduces everywhere shrinks all the way down.
    calls = []

    def always_fails(sc):
        calls.append(sc)
        return [Violation("nest.final_state", "synthetic")]

    small, violations = shrink(COMPLEX, always_fails,
                               violations=always_fails(COMPLEX), budget=40)
    assert small == MINIMAL
    assert {v.invariant for v in violations} == {"nest.final_state"}


def test_shrink_keeps_only_the_same_failure():
    # Simplifying the machine "fixes" the bug -> that rung is rejected.
    def machine_sensitive(sc):
        if sc.machine == "5218_2s":
            return [Violation("clock.monotonic", "only on the big box")]
        return []

    small, violations = shrink(COMPLEX, machine_sensitive,
                               violations=machine_sensitive(COMPLEX),
                               budget=40)
    assert small.machine == "5218_2s"
    assert small.faults is None and small.max_us is None
    assert small.seed == 1
    assert {v.invariant for v in violations} == {"clock.monotonic"}


def test_shrink_rejects_different_failures():
    # Candidates that fail a *different* invariant must not be accepted.
    def swaps_failure(sc):
        if sc == COMPLEX:
            return [Violation("nest.attachment", "original")]
        return [Violation("run.completed", "unrelated crash")]

    small, violations = shrink(COMPLEX, swaps_failure,
                               violations=swaps_failure(COMPLEX), budget=40)
    assert small == COMPLEX
    assert {v.invariant for v in violations} == {"nest.attachment"}


def test_shrink_respects_budget():
    calls = []

    def count(sc):
        calls.append(sc)
        return [Violation("x", "always")]

    shrink(COMPLEX, count, violations=[Violation("x", "seed")], budget=3)
    assert len(calls) == 3
    shrink(COMPLEX, count, violations=[Violation("x", "seed")], budget=0)
    assert len(calls) == 3   # zero budget -> no re-runs at all


def test_shrink_passing_scenario_is_identity():
    sc, violations = shrink(COMPLEX, lambda s: [], violations=[], budget=40)
    assert sc == COMPLEX and violations == []


# ---------------------------------------------------------------------------
# Differential checks
# ---------------------------------------------------------------------------

def test_cached_roundtrip_clean():
    assert list(check_cached_roundtrip(MINIMAL)) == []


def test_empty_fault_plan_clean_and_gated():
    assert list(check_empty_fault_plan(MINIMAL)) == []
    # Already-faulted scenarios have no clean baseline to compare against.
    assert list(check_empty_fault_plan(COMPLEX)) == []


def test_nest_vs_cfs_clean_and_gated():
    assert list(check_nest_vs_cfs(MINIMAL)) == []
    capped = dataclasses.replace(MINIMAL, max_us=10_000)
    assert list(check_nest_vs_cfs(capped)) == []      # gated on max_us
    cfs = dataclasses.replace(MINIMAL, scheduler="cfs")
    assert list(check_nest_vs_cfs(cfs)) == []         # nest-only


def test_cached_roundtrip_convicts_a_lossy_reader(monkeypatch):
    import repro.experiments.cache as cache_mod
    import repro.verify.differential as diff_mod

    real = cache_mod.result_from_jsonable

    def lossy(data):
        res = real(data)
        res.n_migrations += 1
        return res

    monkeypatch.setattr(cache_mod, "result_from_jsonable", lossy)
    monkeypatch.setattr(diff_mod, "result_from_jsonable", lossy)
    details = [str(v) for v in check_cached_roundtrip(MINIMAL)]
    assert details == [
        "diff.cached_roundtrip: cache round-trip changed ['n_migrations']",
        "diff.cached_roundtrip: jsonable cycle changed ['n_migrations']"]


def test_empty_fault_plan_convicts_an_injector_that_acts(monkeypatch):
    from repro.faults.injector import FaultInjector
    from repro.sim.events import EventKind

    real = FaultInjector.install

    def install_and_poke(self):
        n = real(self)
        self.kernel.engine.at(1, EventKind.CONTROL, lambda: None)
        return n

    monkeypatch.setattr(FaultInjector, "install", install_and_poke)
    violations = list(check_empty_fault_plan(MINIMAL))
    assert [str(v) for v in violations] == [
        "diff.empty_fault_plan: a zero-fault plan perturbed "
        "['events_processed']"]


def test_nest_vs_cfs_convicts_a_policy_that_makes_work(monkeypatch):
    import repro.verify.differential as diff_mod

    def cfs_runs_one_more(spec):
        res = execute_spec(spec)
        if spec.scheduler == "cfs":
            res.n_tasks += 1
        return res

    monkeypatch.setattr(diff_mod, "execute_spec", cfs_runs_one_more)
    violations = list(check_nest_vs_cfs(MINIMAL))
    assert [v.invariant for v in violations] == ["diff.nest_vs_cfs"]
    assert violations[0].message.startswith("Nest ran 5 tasks, CFS ran 6")


def test_canonical_drops_wall_clock():
    a = canonical(execute_spec(MINIMAL), MINIMAL.machine)
    b = canonical(execute_spec(MINIMAL), MINIMAL.machine)
    assert "sim_wall_s" not in a
    assert a == b


def test_diff_check_names_match_registry():
    for name, fn in DIFF_CHECKS:
        assert name.startswith("diff.")
        assert callable(fn)


# ---------------------------------------------------------------------------
# The fuzz loop
# ---------------------------------------------------------------------------

def test_fuzz_small_campaign_is_clean_and_deterministic():
    cfg = FuzzConfig(runs=15, base_seed=5, diff_every=7, par_every=0)
    first = fuzz(cfg)
    second = fuzz(cfg)
    assert first.ok
    assert first.n_runs == second.n_runs == 15
    assert first.n_diff_rounds == second.n_diff_rounds > 0
    assert first.verdicts == second.verdicts == []
    assert "OK" in first.summary()


def test_fuzz_reports_and_shrinks_failures(tmp_path, monkeypatch):
    # Sabotage the oracle for one specific scheduler: every scenario that
    # uses it fails, and shrinking must stop at the sabotaged dimension.
    # The fuzz loop and the shrinker both reach the oracle through
    # differential.check_scenario.
    import repro.verify.differential as differential

    real_check_run = check_run

    def sabotaged(art):
        violations = list(real_check_run(art))
        if art.scenario.scheduler == "smove":
            violations.append(Violation("nest.final_state", "synthetic"))
        return violations

    monkeypatch.setattr(differential, "check_run", sabotaged)
    cfg = FuzzConfig(runs=30, base_seed=1, diff_every=0, par_every=0,
                     max_failures=2, repro_dir=tmp_path, shrink_budget=25)
    report = fuzz(cfg)
    assert not report.ok
    assert len(report.failures) == 2
    for failure in report.failures:
        assert failure.scenario.scheduler == "smove"
        assert failure.shrunk.scheduler == "smove"      # preserved
        assert failure.shrunk.workload == "configure-gcc"  # simplified
        assert failure.shrunk.seed == 1
        assert failure.repro_path is not None and failure.repro_path.exists()
        # The repro embeds a trace-analysis digest of the shrunk run.
        doc = load_repro(failure.repro_path)
        assert doc["analysis"]["analysis_version"] >= 1
        assert len(doc["analysis"]["sha256"]) == 64
        assert doc["analysis"]["summary"]["latency_n"] > 0
    # The report serializes.
    doc = report.to_dict()
    assert doc["ok"] is False and len(doc["failures"]) == 2
    json.dumps(doc)


def test_fuzz_max_failures_zero_never_stops(monkeypatch):
    import repro.verify.differential as differential
    monkeypatch.setattr(
        differential, "check_run",
        lambda art: [Violation("run.completed", "synthetic")])
    cfg = FuzzConfig(runs=8, base_seed=1, diff_every=0, par_every=0,
                     max_failures=0, shrink_budget=0)
    report = fuzz(cfg)
    assert report.n_runs == 8 and len(report.failures) == 8


# ---------------------------------------------------------------------------
# Repro files
# ---------------------------------------------------------------------------

def test_repro_roundtrip_and_replay(tmp_path):
    violations = [Violation("nest.final_state", "was broken", t=100)]
    path = save_repro(tmp_path / "r.json", MINIMAL, violations,
                      origin={"base_seed": 1, "index": 3})
    data = load_repro(path)
    assert data["expect"] == ["nest.final_state"]
    assert RunSpec.from_dict(data["scenario"]) == MINIMAL
    assert data["origin"]["index"] == 3
    assert "analysis" not in data   # optional key: omitted when not given
    # The captured "bug" does not exist -> replay comes back clean.
    assert replay_repro(path) == []


def test_replay_rejects_an_unknown_scenario_key(tmp_path):
    path = save_repro(tmp_path / "r.json", MINIMAL, [])
    data = json.loads(path.read_text())
    data["scenario"]["engine"] = "fast"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="not a run spec"):
        replay_repro(path)


def test_repro_carries_optional_analysis_digest(tmp_path):
    digest = {"analysis_version": 1, "sha256": "ab" * 32,
              "summary": {"latency_n": 5}}
    path = save_repro(tmp_path / "r.json", MINIMAL,
                      [Violation("nest.final_state", "x")],
                      analysis=digest)
    data = load_repro(path)
    assert data["analysis"] == digest


def test_repro_replay_runs_named_diff_checks(tmp_path, monkeypatch):
    violations = [Violation("diff.nest_vs_cfs", "was broken")]
    path = save_repro(tmp_path / "r.json", MINIMAL, violations)
    calls = []
    import repro.verify.differential as diff_mod

    def spy(scenario):
        calls.append(scenario)
        return []

    monkeypatch.setattr(diff_mod, "DIFF_CHECKS",
                        (("diff.nest_vs_cfs", spy),))
    assert replay_repro(path) == []
    assert calls == [MINIMAL]


def test_repro_rejects_bad_documents(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": 99}))
    try:
        load_repro(bad)
    except ValueError as exc:
        assert "format" in str(exc)
    else:
        raise AssertionError("expected ValueError")

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"format": 1, "scenario": {}}))
    try:
        load_repro(missing)
    except ValueError as exc:
        assert "expect" in str(exc)
    else:
        raise AssertionError("expected ValueError")
