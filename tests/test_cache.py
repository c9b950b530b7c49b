"""Content-addressed result cache: keys, round-trips, sweep integration."""

from __future__ import annotations

import dataclasses
import json

from repro.core.params import NestParams
from repro.experiments.cache import (QUARANTINE_DIR, ResultCache,
                                     result_from_jsonable,
                                     result_to_jsonable, spec_key)
from repro.experiments.cli import main
from repro.experiments.parallel import RunSpec, SweepExecutor, execute_spec
from repro.obs.history import HistoryStore

from test_parallel import SPECS, assert_results_identical

SPEC = SPECS[0]


class TestSpecKey:
    def test_stable(self):
        assert spec_key(SPEC) == spec_key(SPEC)
        clone = RunSpec(**{f.name: getattr(SPEC, f.name)
                           for f in dataclasses.fields(SPEC)})
        assert spec_key(clone) == spec_key(SPEC)

    def test_every_field_is_significant(self):
        variants = [
            dataclasses.replace(SPEC, seed=SPEC.seed + 1),
            dataclasses.replace(SPEC, scale=SPEC.scale / 2),
            dataclasses.replace(SPEC, scheduler="nest"),
            dataclasses.replace(SPEC, governor="performance"),
            dataclasses.replace(SPEC, machine="e78870_4s"),
            dataclasses.replace(SPEC, workload="configure-llvm_ninja"),
            dataclasses.replace(SPEC, max_us=1_000),
            dataclasses.replace(SPEC, nest_params=NestParams()),
        ]
        keys = {spec_key(v) for v in variants}
        assert len(keys) == len(variants)
        assert spec_key(SPEC) not in keys

    def test_engine_version_salts_the_key(self, monkeypatch):
        import repro.experiments.cache as cache_mod
        before = spec_key(SPEC)
        monkeypatch.setattr(cache_mod, "ENGINE_VERSION", "999-test")
        assert spec_key(SPEC) != before


class TestRoundTrip:
    def test_cached_result_equals_fresh_simulation(self, tmp_path):
        """Acceptance criterion: a hit equals the simulation it replaces,
        through an actual JSON round-trip."""
        fresh = execute_spec(SPEC)
        payload = json.loads(json.dumps(result_to_jsonable(fresh,
                                                           SPEC.machine)))
        restored = result_from_jsonable(payload)
        assert_results_identical(fresh, restored)
        # Telemetry rides along with the entry.
        assert restored.sim_wall_s == fresh.sim_wall_s
        assert restored.events_processed == fresh.events_processed

    def test_get_put_on_disk(self, tmp_path):
        cache = ResultCache(tmp_path)
        fresh = execute_spec(SPEC)
        assert cache.get_spec(SPEC) is None
        cache.put_spec(SPEC, fresh)
        hit = cache.get_spec(SPEC)
        assert hit is not None
        assert_results_identical(fresh, hit)

    def test_trace_runs_bypass_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = dataclasses.replace(SPEC, record_trace=True)
        assert not cache.cacheable(spec)
        cache.put_spec(spec, execute_spec(SPEC))
        assert cache.stats()["entries"] == 0
        assert cache.get_spec(spec) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_spec(SPEC, execute_spec(SPEC))
        key = spec_key(SPEC)
        (tmp_path / key[:2] / f"{key}.json").write_text("{not json")
        assert cache.get_spec(SPEC) is None


class TestSweepIntegration:
    def test_second_sweep_performs_zero_simulations(self, tmp_path):
        """Acceptance criterion: a warm rerun simulates nothing and still
        returns identical results."""
        cold = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        first = cold.run(SPECS)
        assert cold.last_stats.simulated == len(SPECS)
        assert cold.last_stats.cache_hits == 0

        warm = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        second = warm.run(SPECS)
        assert warm.last_stats.simulated == 0
        assert warm.last_stats.cache_hits == len(SPECS)
        for a, b in zip(first, second):
            assert_results_identical(a, b)

    def test_no_cache_forces_resimulation(self, tmp_path):
        seeded = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        seeded.run(SPECS[:2])
        # An executor without a cache must re-simulate despite the entries.
        uncached = SweepExecutor(jobs=1, cache=None)
        uncached.run(SPECS[:2])
        assert uncached.last_stats.simulated == 2
        assert uncached.last_stats.cache_hits == 0

    def test_partial_hits_fill_only_misses(self, tmp_path):
        SweepExecutor(jobs=1, cache=ResultCache(tmp_path)).run(SPECS[:2])
        ex = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        ex.run(SPECS)
        assert ex.last_stats.cache_hits == 2
        assert ex.last_stats.simulated == len(SPECS) - 2


class TestMaintenance:
    def test_stats_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_spec(SPEC, execute_spec(SPEC))
        st = cache.stats()
        assert st["entries"] == 1
        assert st["bytes"] > 0
        assert cache.clear() == 1
        assert cache.stats()["entries"] == 0

    def test_cli_cache_commands(self, tmp_path, capsys):
        root = str(tmp_path / "cache")
        SweepExecutor(jobs=1, cache=ResultCache(tmp_path / "cache")) \
            .run(SPECS[:1])
        assert main(["cache", "stats", "--cache-dir", root]) == 0
        assert "1 entries" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", root]) == 0
        assert "cleared 1" in capsys.readouterr().out

    def test_cli_clear_keeps_the_run_history(self, tmp_path, capsys):
        """``cache clear`` drops the entries and the quarantine; the run
        history beside them survives, and a rerun simulates every spec."""
        root = tmp_path / "cache"
        argv = ["compare", "--workload", "phoronix-libavif-avifenc-1",
                "--machine", "5218_2s", "--scale", "0.3", "--seeds", "1",
                "--jobs", "1", "--cache-dir", str(root)]
        assert main(argv) == 0
        with HistoryStore(root / "history.sqlite") as store:
            uid = store.sweeps()[0]["uid"]
        (root / QUARANTINE_DIR).mkdir()
        (root / QUARANTINE_DIR / "torn.json").write_text("{")
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", str(root)]) == 0
        assert "cleared 4 cached result(s)" in capsys.readouterr().out
        assert not (root / QUARANTINE_DIR).exists()
        assert main(["history", "list", "--cache-dir", str(root)]) == 0
        assert uid in capsys.readouterr().out
        assert main(argv) == 0
        assert "(4 simulated, 0 cached)" in capsys.readouterr().out

    def test_cli_compare_uses_cache(self, tmp_path, capsys):
        argv = ["compare", "--workload", "phoronix-libavif-avifenc-1",
                "--machine", "5218_2s", "--scale", "0.3", "--seeds", "1",
                "--jobs", "1", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        out_cold = capsys.readouterr().out
        assert "(4 simulated, 0 cached)" in out_cold
        assert main(argv) == 0
        out_warm = capsys.readouterr().out
        assert "(0 simulated, 4 cached)" in out_warm
        # The printed table is identical whether simulated or cached.
        strip = lambda s: [ln for ln in s.splitlines()
                           if not ln.startswith("sweep:")]
        assert strip(out_cold) == strip(out_warm)
