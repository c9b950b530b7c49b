"""Byte-pinned golden analysis report for the scx_nest comparator.

Mirrors test_obs_analysis.py's golden for Nest: one pinned scxnest run
analyzed end to end, the JSON report checked in and compared byte for
byte.  Drift means a simulator/policy/analyzer change nobody reviewed.
Regenerate deliberately with ``PYTHONPATH=src:tests python
tests/golden_regen.py`` and review the diff.
"""

import json
from pathlib import Path

from repro.obs.analysis import analysis_digest, report_json, report_text

SCXNEST_GOLDEN_PATH = (Path(__file__).parent / "data"
                       / "golden_scxnest_analysis.json")

_CACHE = {}


def scxnest_golden_run():
    """The pinned scxnest reference run (the conformance 'warm' box)."""
    from repro.experiments.runner import run_experiment
    from repro.hw.machines import get_machine
    from repro.workloads.catalog import make_workload

    machine = get_machine("ryzen_4650g")
    res = run_experiment(
        make_workload("dacapo-h2", scale=0.1), machine,
        "scxnest", "schedutil", seed=3,
        record_trace=True, collect_events=True)
    return res, machine


def scxnest_golden_report(cached: bool = True):
    from repro.obs.analysis import analyze_run
    if cached and "report" in _CACHE:
        return _CACHE["report"]
    res, machine = scxnest_golden_run()
    report = analyze_run(res, res.events, n_cpus=machine.n_cpus,
                         segments=res.trace_segments)
    if cached:
        _CACHE["report"] = report
    return report


def test_matches_golden_file():
    assert SCXNEST_GOLDEN_PATH.is_file(), \
        "golden missing; regenerate via tests/golden_regen.py"
    assert report_json(scxnest_golden_report()) == \
        SCXNEST_GOLDEN_PATH.read_text(encoding="utf-8")


def test_report_covers_the_scxnest_placement_tiers():
    report = json.loads(SCXNEST_GOLDEN_PATH.read_text(encoding="utf-8"))
    tiers = report["analyzers"]["latency_tiers"]["tiers"]
    # The pinned run exercises the whole placement ladder: warm primary
    # hits, reserve promotions, impatient fallbacks and CFS fallbacks.
    for tier in ("primary", "reserve", "impatient", "cfs"):
        assert tiers.get(tier, {}).get("n", 0) > 0, tier


def test_digest_fingerprints_the_report():
    digest = analysis_digest(scxnest_golden_report())
    assert len(digest["sha256"]) == 64
    assert digest == analysis_digest(
        json.loads(SCXNEST_GOLDEN_PATH.read_text(encoding="utf-8")))


def test_mask_transitions_reach_the_analyzers_and_the_trace():
    # scx_nest logs its mask transitions as nest.* kinds, so the nest
    # analyzer and the Perfetto exporter cover it with no code of its own.
    from repro.obs.export import chrome_trace
    dynamics = scxnest_golden_report()["analyzers"]["nest_dynamics"]
    assert dynamics["transitions"] == 23
    assert dynamics["by_kind"] == {"nest.compact": 9, "nest.expand": 4,
                                   "nest.promote": 10}
    res, machine = scxnest_golden_run()
    doc = chrome_trace(res.trace_segments, res.events, n_cpus=machine.n_cpus)
    sizes = [e for e in doc["traceEvents"]
             if e["ph"] == "C" and e["name"] == "primary nest size"]
    assert len(sizes) == 23


def test_text_digest_renders():
    text = report_text(scxnest_golden_report())
    assert "latency:" in text and "warm cores:" in text
