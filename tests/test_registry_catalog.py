"""The experiment registry and the workload catalogue agree.

Every spec of every registry entry builds from the catalogue, and each
parametric catalogue form builds the workload the benchmarks used to
construct by hand.  No simulation runs here.
"""

import dataclasses

import pytest

from repro.core.params import NestParams
from repro.experiments.registry import (Workloads, all_experiments,
                                        get_experiment, reference_spec,
                                        specs_for)
from repro.workloads.catalog import make_workload
from repro.workloads.messaging import HackbenchWorkload, SchbenchWorkload
from repro.workloads.multiapp import MultiAppWorkload
from repro.workloads.phoronix import PhoronixWorkload, suite_population

#: What ``repro sweep <id>`` runs: exactly the runs each bench reads.
SPEC_COUNTS = {
    "fig2": 2, "fig3": 2, "fig4": 88, "fig5": 110, "fig6": 44, "fig7": 88,
    "fig8_9": 2, "fig10": 84, "fig11": 42, "fig12": 72, "fig13": 162,
    "table4": 216, "ablation_configure": 26, "ablation_dacapo": 18,
    "other_hackbench": 6, "other_servers": 12, "other_multiapp": 2,
    "other_monosocket": 8,
}


class TestRegistrySpecs:
    @pytest.mark.parametrize("exp_id", sorted(SPEC_COUNTS))
    def test_spec_count(self, exp_id):
        assert len(specs_for(get_experiment(exp_id))) == SPEC_COUNTS[exp_id]

    def test_only_the_pure_tables_have_no_runs(self):
        empty = {e.id for e in all_experiments() if not specs_for(e)}
        assert empty == {"table1", "table2", "table3"}
        assert set(SPEC_COUNTS) | empty == {e.id for e in all_experiments()}

    def test_every_spec_builds_from_the_catalogue(self):
        for exp in all_experiments():
            for spec in specs_for(exp):
                wl = make_workload(spec.workload, scale=spec.scale)
                assert wl.name, spec.label

    def test_unknown_workload_raises_naming_the_entry(self):
        exp = dataclasses.replace(get_experiment("fig3"), id="broken",
                                  workloads=(Workloads(("quake3",)),))
        with pytest.raises(KeyError, match="broken.*quake3"):
            specs_for(exp)

    def test_each_workload_keeps_its_scale_and_seeds(self):
        runs = {(s.workload, s.scale, s.seed)
                for s in specs_for(get_experiment("other_hackbench"))}
        assert runs == {("hackbench-g10-p5-l150", 1.0, 1),
                        ("schbench-m4w8-r40", 1.0, 1),
                        ("schbench-m4w8-r40", 1.0, 2)}
        scales = {(s.workload, s.scale)
                  for s in specs_for(get_experiment("other_monosocket"))}
        assert scales == {("configure-llvm_ninja", 0.6), ("nas-mg", 0.4)}

    def test_overrides_replace_scale_seeds_and_machines(self):
        specs = specs_for(get_experiment("other_monosocket"), seeds=(1, 2),
                          scale=0.3, machines=("5218_2s",))
        assert len(specs) == 8
        assert {s.scale for s in specs} == {0.3}
        assert {s.seed for s in specs} == {1, 2}
        assert {s.machine for s in specs} == {"5218_2s"}

    def test_variants_carry_their_nest_params(self):
        exp = get_experiment("ablation_dacapo")
        specs = specs_for(exp)
        params = [p for _, p in exp.variants]
        for name in exp.workload_names:
            assert [s.nest_params for s in specs
                    if s.workload == name] == params
        assert params[0] == NestParams()

    def test_reference_spec_runs_at_the_entry_scale_and_first_seed(self):
        spec = reference_spec(get_experiment("other_hackbench"))
        assert (spec.workload, spec.scheduler, spec.seed, spec.scale) == \
            ("hackbench-g10-p5-l150", "nest", 1, 1.0)
        assert spec.record_trace
        spec = reference_spec(get_experiment("fig2"), seed=3, scale=0.3,
                              machine="ryzen_4650g")
        assert (spec.seed, spec.scale, spec.machine) == \
            (3, 0.3, "ryzen_4650g")
        assert reference_spec(get_experiment("table1")) is None


class TestCatalogueForms:
    def test_hackbench_with_pairs_and_loops(self):
        built = make_workload("hackbench-g10-p5-l150")
        ref = HackbenchWorkload(groups=10, pairs_per_group=5, loops=150)
        assert type(built) is type(ref)
        assert vars(built) == vars(ref)

    def test_schbench_with_requests(self):
        built = make_workload("schbench-m4w8-r40")
        ref = SchbenchWorkload(message_threads=4, workers_per_thread=8,
                               requests=40)
        assert type(built) is type(ref)
        fields, ref_fields = dict(vars(built)), dict(vars(ref))
        assert vars(fields.pop("recorder")) == vars(ref_fields.pop("recorder"))
        assert fields == ref_fields

    def test_population_member(self):
        population = suite_population(36, seed=7)
        for i, ref in enumerate(population):
            built = make_workload(f"phoronix-pop7-{i}")
            assert type(built) is PhoronixWorkload
            assert built.profile == ref.profile
            assert vars(built) == vars(ref)

    def test_multi_app_pair(self):
        built = make_workload(
            "multi:phoronix-zstd-compression-7+phoronix-libgav1-4", 0.5)
        ref = MultiAppWorkload([
            PhoronixWorkload("zstd-compression-7", scale=0.5),
            PhoronixWorkload("libgav1-4", scale=0.5)])
        assert type(built) is type(ref)
        assert built.name == ref.name
        assert len(built.parts) == len(ref.parts)
        for part, ref_part in zip(built.parts, ref.parts):
            assert type(part) is type(ref_part)
            assert vars(part) == vars(ref_part)

    def test_new_forms_leave_workload_names_alone(self):
        assert make_workload("hackbench").name == "hackbench-g8"
        assert make_workload("hackbench-g10-p5-l150").name == "hackbench-g10"
        assert make_workload("schbench").name == "schbench-m4w8"
        assert make_workload("schbench-m4w8-r40").name == "schbench-m4w8"
        assert make_workload("phoronix-pop7-0").name == \
            suite_population(1, seed=7)[0].name

    @pytest.mark.parametrize("name", ["hackbench-gx", "hackbench-g2-p2",
                                      "schbench-m4w8", "phoronix-pop7",
                                      "multi:nginx+quake3"])
    def test_malformed_forms_are_unknown(self, name):
        with pytest.raises(KeyError):
            make_workload(name)
