"""HTML dashboard: self-contained, well-formed, complete.

The contract under test: stdlib-only generation, every run referenced,
zero external resources (the file must render from disk forever), and a
working ``repro obs dashboard`` CLI path.
"""

from __future__ import annotations

import json
import re
import sqlite3
from html.parser import HTMLParser

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.cli import main
from repro.experiments.parallel import RunSpec, SweepExecutor, execute_spec
from repro.obs.analysis import derived_metrics
from repro.obs.dashboard import _tier_bar, build_dashboard
from repro.obs.history import HistoryStore, _migrate_to_v1

SPECS = [
    RunSpec(workload="configure-gcc", machine="ryzen_4650g",
            scheduler=sched, governor="schedutil", seed=1, scale=0.3)
    for sched in ("cfs", "nest")
]

#: Tags whose open/close counts must balance for the page to be sane.
BALANCED_TAGS = ("html", "head", "body", "table", "svg", "div", "p")


class TagBalance(HTMLParser):
    def __init__(self):
        super().__init__()
        self.opened: dict = {}
        self.closed: dict = {}

    def handle_starttag(self, tag, attrs):
        self.opened[tag] = self.opened.get(tag, 0) + 1

    def handle_endtag(self, tag):
        self.closed[tag] = self.closed.get(tag, 0) + 1


def assert_well_formed(html_text: str) -> None:
    assert html_text.startswith("<!DOCTYPE html>")
    parser = TagBalance()
    parser.feed(html_text)
    parser.close()
    for tag in BALANCED_TAGS:
        assert parser.opened.get(tag, 0) == parser.closed.get(tag, 0), tag


def assert_self_contained(html_text: str) -> None:
    """No scripts, no external stylesheets/images/fonts."""
    assert "<script" not in html_text
    assert '<link' not in html_text
    assert "@import" not in html_text
    # No absolute URL at all.
    urls = re.findall(r'(?:src|href)="(https?://[^"]+)"', html_text)
    assert urls == []


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    """Two sweeps (simulated, then fully cached) recorded in history."""
    tmp = tmp_path_factory.mktemp("dash")
    cache = ResultCache(root=tmp / "cache")
    for _ in range(2):
        with HistoryStore(cache.root / "history.sqlite") as hist:
            SweepExecutor(jobs=2, cache=cache, history=hist).run(SPECS)
    return tmp


def timeline(html_text: str) -> str:
    """The worker timeline's SVG (empty when the notice stands instead)."""
    match = re.search(r'<svg[^>]*aria-label="worker timeline">.*?</svg>',
                      html_text)
    return match.group(0) if match else ""


class TestStackedBar:
    def test_every_outcome_is_drawn(self):
        """An outcome with no colour of its own (say, one an old history
        file recorded) is drawn grey, so the widths sum to 100%."""
        from repro.obs.dashboard import _stacked_bar
        bar = _stacked_bar({"simulated": 1, "legacy-outcome": 1})
        widths = [float(w) for w in re.findall(r"width:([\d.]+)%", bar)]
        assert sum(widths) == pytest.approx(100.0)
        assert "background:#868e96" in bar


class TestBuildDashboard:
    def test_well_formed_and_self_contained(self, swept):
        html_text = build_dashboard(
            swept / "cache" / "history.sqlite", "last-1",
            trajectory_path="BENCH_trajectory.json")
        assert_well_formed(html_text)
        assert_self_contained(html_text)

    def test_every_run_is_referenced(self, swept):
        html_text = build_dashboard(swept / "cache" / "history.sqlite",
                                    "last-1")
        for spec in SPECS:
            assert spec.label in html_text

    def test_simulated_sweep_has_worker_timeline(self, swept):
        """One lane per distinct pid of the simulated runs, and one span
        per run, titled with its label."""
        path = swept / "cache" / "history.sqlite"
        with HistoryStore(path) as store:
            runs = store.runs_of(store.resolve("last-1")["id"])
        assert all(r["pid"] is not None and r["started"] < r["ended"]
                   for r in runs)
        svg = timeline(build_dashboard(path, "last-1"))
        lanes = re.findall(r">pid (\d+)</text>", svg)
        assert sorted(map(int, lanes)) == sorted({r["pid"] for r in runs})
        titles = re.findall(r"<title>(.*?) \([\d.]+s\)</title>", svg)
        assert sorted(titles) == sorted(r["label"] for r in runs)

    def test_cached_sweep_renders_without_timeline(self, swept):
        path = swept / "cache" / "history.sqlite"
        with HistoryStore(path) as store:
            runs = store.runs_of(store.resolve("last")["id"])
        assert all(r["outcome"] == "cached" and r["pid"] is None
                   for r in runs)
        html_text = build_dashboard(path, "last")
        assert_well_formed(html_text)
        assert "cached" in html_text
        assert not timeline(html_text)
        assert "no worker activity recorded" in html_text

    def test_v1_history_renders_without_timeline(self, tmp_path):
        """A store written before run rows kept their worker migrates to
        v2 on open; its old rows read NULL and draw no lanes."""
        path = tmp_path / "h.sqlite"
        con = sqlite3.connect(str(path))
        _migrate_to_v1(con)
        con.execute("INSERT INTO sweeps (uid, ts) VALUES ('old', 1.0)")
        con.execute("INSERT INTO runs (sweep_id, label, outcome, "
                    "completed, sim_wall_s) VALUES (1, 'v1-run', "
                    "'simulated', 1, 0.5)")
        con.execute("PRAGMA user_version = 1")
        con.commit()
        con.close()
        with HistoryStore(path) as store:
            assert store.schema_version == 2
            (row,) = store.runs_of(store.resolve("last")["id"])
        assert row["label"] == "v1-run"
        assert row["pid"] is None and row["started"] is None \
            and row["ended"] is None
        html_text = build_dashboard(path)
        assert_well_formed(html_text)
        assert "v1-run" in html_text
        assert not timeline(html_text)
        assert "no worker activity recorded" in html_text

    def test_history_sparkline_appears_with_two_sweeps(self, swept):
        html_text = build_dashboard(swept / "cache" / "history.sqlite")
        assert "sweep wall time" in html_text
        assert "<svg" in html_text

    def test_trajectory_section_reads_bench_file(self, swept):
        html_text = build_dashboard(swept / "cache" / "history.sqlite",
                                    trajectory_path="BENCH_trajectory.json")
        assert "Perf trajectory" in html_text
        with open("BENCH_trajectory.json", encoding="utf-8") as fh:
            entries = json.load(fh)["entries"]
        for entry in entries:
            assert f"<b>{entry['workload']}</b>" in html_text
            assert f"PR{entry['pr']}: " in html_text

    def test_trajectory_draws_one_sparkline_per_workload(self, swept,
                                                         tmp_path):
        def entry(pr, workload, wall):
            return {"pr": pr, "workload": workload,
                    "metrics": {"sweep_wall_s": wall}}

        traj = tmp_path / "traj.json"
        traj.write_text(json.dumps({
            "entries": [entry(18, "configure-fork", 4.1),
                        entry(17, "configure-fork", 4.8),
                        entry(17, "fuzz-verify", 5.0),
                        entry(18, "fuzz-verify", 4.5)],
            "v1_entries": [{"pr": 1, "engine": "ref", "wall_s": 1.87}]}))
        html_text = build_dashboard(swept / "cache" / "history.sqlite",
                                    trajectory_path=traj)
        assert_well_formed(html_text)
        assert html_text.count("sweep_wall_s trajectory") == 2
        assert "PR17: 4.800s, PR18: 4.100s</span>" in html_text
        assert "PR17: 5.000s, PR18: 4.500s</span>" in html_text
        assert "PR1:" not in html_text   # v1 records are not drawn

    def test_analysis_panel_renders_derived_metrics(self, swept):
        html_text = build_dashboard(swept / "cache" / "history.sqlite",
                                    "last-1")
        assert "<h2>Analysis</h2>" in html_text
        assert "warm share" in html_text
        assert "wakeup p99" in html_text
        # The nest run's placement-tier stacked bar with its legend, and
        # the impatient share beside it.
        assert "placement tiers" in html_text
        assert "attach" in html_text and "cfs" in html_text
        assert "<th>impatient</th>" in html_text

    def test_analysis_panel_degrades_without_derived_metrics(self, tmp_path):
        # A pre-analysis-layer sweep: rows with no derived.* keys.
        with HistoryStore(tmp_path / "h.sqlite") as st:
            st.record_sweep("u1", {"n_specs": 1, "simulated": 1}, [
                {"label": "old", "outcome": "simulated", "cached": False,
                 "completed": True, "sim_wall_s": 1.0,
                 "metrics": {"kernel.wakeups": 3}}])
        html_text = build_dashboard(tmp_path / "h.sqlite")
        assert "<h2>Analysis</h2>" in html_text
        assert "no derived metrics recorded" in html_text

    def test_labels_are_escaped(self, tmp_path):
        with HistoryStore(tmp_path / "h.sqlite") as st:
            st.record_sweep("u1", {"n_specs": 1, "simulated": 1}, [
                {"label": "<img src=x onerror=alert(1)>",
                 "outcome": "simulated", "cached": False, "completed": True,
                 "sim_wall_s": 1.0, "error": "<script>evil</script>"}])
        html_text = build_dashboard(tmp_path / "h.sqlite")
        assert "<img src=x" not in html_text
        assert "<script>" not in html_text
        assert "&lt;img" in html_text

    def test_unknown_ref_raises(self, swept):
        with pytest.raises(KeyError):
            build_dashboard(swept / "cache" / "history.sqlite", "nope")


@pytest.mark.parametrize("spec", [
    RunSpec(workload="dacapo-h2", machine="ryzen_4650g", scheduler=sched,
            governor="schedutil", seed=3, scale=0.1)
    for sched in ("nest", "scxnest")] + [
    RunSpec(workload="hackbench", machine="5218_2s", scheduler="nest",
            governor="schedutil", seed=1, scale=0.1)], ids=lambda s: s.label)
def test_tier_bar_stacks_the_tiers_that_partition_placements(spec):
    """Nest and scx_nest both get tier and warm shares, and the bar sums
    to 100%: an impatient placement is also a reserve hit or a CFS pick,
    so it is not stacked."""
    derived = derived_metrics(execute_spec(spec).metrics)
    assert {"derived.share_primary", "derived.share_reserve",
            "derived.share_cfs", "derived.share_impatient",
            "derived.warm_share"} <= set(derived)
    widths = re.findall(r"width:([0-9.]+)%", _tier_bar(derived))
    assert sum(map(float, widths)) == pytest.approx(100.0, abs=0.05)


class TestCliDashboard:
    def test_cli_writes_dashboard(self, swept, tmp_path, capsys):
        out = tmp_path / "dash.html"
        assert main(["obs", "dashboard",
                     "--cache-dir", str(swept / "cache"),
                     "--out", str(out),
                     "--trajectory", "BENCH_trajectory.json"]) == 0
        assert "dashboard:" in capsys.readouterr().out
        html_text = out.read_text(encoding="utf-8")
        assert_well_formed(html_text)
        assert_self_contained(html_text)
        for spec in SPECS:
            assert spec.label in html_text

    def test_cli_without_history_is_an_error(self, tmp_path, capsys):
        assert main(["obs", "dashboard",
                     "--cache-dir", str(tmp_path / "void")]) == 1
        assert "no run history" in capsys.readouterr().err

    def test_cli_unknown_sweep_is_an_error(self, swept, tmp_path, capsys):
        assert main(["obs", "dashboard",
                     "--cache-dir", str(swept / "cache"),
                     "--sweep", "zzz",
                     "--out", str(tmp_path / "x.html")]) == 1
        assert "error" in capsys.readouterr().err
