"""Table 4: overview of the Phoronix multicore results.

A seeded population of multicore tests drawn from the suite's behaviour mix
is run under CFS-performance and Nest-schedutil; each test's speedup vs
CFS-schedutil is classified into the paper's five bands.  Shapes: most
tests land in the "same" band, regressions are rare, and the E7 shows more
beneficiaries for CFS-performance than the Speed Shift machine does.
"""

from conftest import once, speedup_pct

from repro.analysis.stats import band_counts
from repro.analysis.tables import render_band_table
from repro.experiments.registry import get_experiment
from repro.experiments.runner import BASELINE


def test_table4(benchmark, sweep):
    exp = get_experiment("table4")
    combos = [c for c in exp.combos if c != BASELINE]
    population = exp.workload_names

    def regenerate():
        runs = sweep(exp)
        tables = {}
        for mk in exp.machines:
            per_config = {}
            for sched, gov in combos:
                speedups = []
                for name in population:
                    base = runs.result(name, mk, *BASELINE)
                    res = runs.result(name, mk, sched, gov)
                    speedups.append(speedup_pct(base, res))
                per_config[f"{sched}-{gov}"] = band_counts(speedups)
            tables[mk] = per_config
            print("\n" + render_band_table(
                f"Table 4: Phoronix multicore overview on {mk} "
                f"({len(population)} tests)", per_config))
        return tables

    tables = once(benchmark, regenerate)

    for mk in exp.machines:
        for config, counts in tables[mk].items():
            total = sum(counts.values())
            same = counts["same"]
            slower_big = counts["slower by > 20%"]
            # Most tests are unaffected (paper: 61-93% "same"; the E7's
            # performance governor helps a somewhat larger share of our
            # population than the paper's 36%).
            floor = 0.4 if (mk, config) == ("e78870_4s",
                                            "cfs-performance") else 0.5
            assert same >= total * floor, (mk, config)
            # Large regressions are rare (paper: 0-2 tests; our barriered
            # population is harsher on Nest because simulated barrier waits
            # block instead of busy-waiting, so the spin burns turbo
            # budget — see EXPERIMENTS.md).
            assert slower_big <= max(2, total * 0.06), (mk, config)

    # The E7 has more >5% winners under CFS-performance than the 5218
    # (paper: 36% vs 8% of tests).
    def winners(mk, config):
        c = tables[mk][config]
        return c["faster by (5,20]%"] + c["faster by > 20%"]

    assert winners("e78870_4s", "cfs-performance") >= \
        winners("5218_2s", "cfs-performance")
