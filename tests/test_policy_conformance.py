"""The auto-applied conformance suite: every registered policy earns it.

This is the SDK's enforcement arm — the test is parametrized over
``available_policies()``, so registering a new scheduler (the one-class,
one-entry contract in sched/base.py) automatically subjects it to the
full battery in verify/conformance.py.  A policy that cannot pass does
not ship.

The suite also proves it has teeth: the deliberately broken fixture
policy must be *convicted* by the oracle, not waved through.
"""

import itertools

import pytest

from repro.sched.cfs import CfsPolicy
from repro.sched.registry import (available_policies, register_policy,
                                  unregister_policy)
from repro.verify.conformance import (BASELINE_LABEL, BATTERY,
                                      ConformanceReport, battery_scenarios,
                                      register_broken_fixture, render_report,
                                      run_conformance)

#: The cross-interpreter hash-seed check spawns two fresh pythons and
#: re-runs the baseline scenario in each — worth doing once per policy
#: in CI (``verify conformance`` / the conformance-matrix job), but too
#: slow to repeat inside the per-policy unit test here.  Everything else
#: (battery runs, oracle, in-process determinism, cache round-trip,
#: parity/refusal) runs in full.
_FAST = dict(hashseed_check=False)


@pytest.mark.parametrize("policy", available_policies())
def test_registered_policy_passes_conformance(policy):
    report = run_conformance(policy, **_FAST)
    assert report.passed, "\n" + render_report(report)


def test_battery_covers_the_required_regimes():
    labels = [label for label, _ in BATTERY]
    assert labels == ["warm", "forky", "multi_die", "deadline", "faulted"]
    assert BASELINE_LABEL in labels
    # The fault scenario really carries a fault plan; the others do not.
    by_label = dict(BATTERY)
    assert by_label["faulted"].faults is not None
    assert all(by_label[l].faults is None for l in labels if l != "faulted")
    # Multi-die really is the two-socket box.
    assert by_label["multi_die"].machine == "5218_2s"


def test_battery_scenarios_fill_in_the_policy():
    scenarios = battery_scenarios("cfs")
    assert [sc.scheduler for _, sc in scenarios] == ["cfs"] * len(BATTERY)
    # Templates themselves stay policy-free.
    assert all(sc.scheduler == "" for _, sc in BATTERY)


def test_unknown_policy_is_rejected_up_front():
    with pytest.raises(ValueError, match="unknown"):
        run_conformance("no-such-policy")


def test_broken_fixture_is_convicted():
    """The suite's own canary: a policy emitting an out-of-vocabulary
    event kind must fail conformance via the oracle, on every battery
    scenario, while the mechanical checks (completion, determinism)
    stay green — proving the conviction is the oracle's doing."""
    register_broken_fixture()
    try:
        report = run_conformance("broken", **_FAST)
    finally:
        unregister_policy("broken")

    assert not report.passed
    oracle_checks = [c for c in report.checks if c.name == "oracle"]
    assert oracle_checks and all(not c.ok for c in oracle_checks)
    assert all("events.vocabulary" in c.detail for c in oracle_checks)
    for name in ("completes", "determinism"):
        mech = [c for c in report.checks if c.name == name]
        assert mech and all(c.ok for c in mech)


class _ShiftedCfsPolicy(CfsPolicy):
    """CFS that moves each wakeup pick ``shift`` cpus up (when online)."""

    def __init__(self, shift: int) -> None:
        super().__init__()
        self._shift = shift

    def select_cpu_wakeup(self, task, waker_cpu: int) -> int:
        cpu = super().select_cpu_wakeup(task, waker_cpu)
        shifted = (cpu + self._shift) % self.kernel.topology.n_cpus
        return shifted if self.kernel.cpu_online[shifted] else cpu


def test_nondeterministic_policy_fails_determinism():
    """A policy whose every other instance shifts its wakeup picks: each
    run is valid, but a re-run differs."""
    made = itertools.count()
    register_policy("flaky",
                    lambda params: _ShiftedCfsPolicy(next(made) % 2))
    try:
        report = run_conformance("flaky", **_FAST)
    finally:
        unregister_policy("flaky")
    assert "flaky" not in available_policies()
    # Every run is valid on its own: only the re-run checks convict.
    assert all(c.ok for c in report.checks
               if c.name in ("completes", "oracle"))
    determinism = [c for c in report.checks if c.name == "determinism"]
    assert [c.scenario for c in determinism if not c.ok] == [
        label for label, _ in BATTERY]
    cache = [c for c in report.checks if c.name == "cache_roundtrip"]
    assert len(cache) == 1 and not cache[0].ok
    assert "re-running the same spec changed" in cache[0].detail


def test_broken_fixture_registration_is_temporary():
    assert "broken" not in available_policies()
    register_broken_fixture()
    try:
        assert "broken" in available_policies()
    finally:
        unregister_policy("broken")
    assert "broken" not in available_policies()


def test_render_report_formats_pass_and_fail():
    from repro.verify.conformance import ConformanceCheck
    report = ConformanceReport(policy="demo", checks=[
        ConformanceCheck("completes", "warm", True),
        ConformanceCheck("oracle", "warm", False, "events.vocabulary: boom"),
    ])
    text = render_report(report)
    assert "demo" in text and "FAIL" in text
    assert "events.vocabulary: boom" in text
    report.checks[1] = ConformanceCheck("oracle", "warm", True)
    assert "PASS" in render_report(report)
