"""Section 5.3 ablation: Nest features on h2, graphchi-eval, tradebeans.

The paper: spinning has the greatest impact (10-26% degradation when
removed on the multi-socket machines); eliminating nest compaction lets h2
and graphchi spread out (~5%); the reserve nest matters little here.
"""

from conftest import once

from repro.analysis.tables import pct, render_table
from repro.experiments.registry import get_experiment


def test_ablation_dacapo(benchmark, sweep):
    exp = get_experiment("ablation_dacapo")
    (machine,) = exp.machines
    ((sched, gov),) = exp.combos
    apps = [w.removeprefix("dacapo-") for w in exp.workload_names]

    def regenerate():
        runs = sweep(exp)
        data = {}
        rows = []
        for name, _ in exp.variants:
            cells = [name]
            for app in apps:
                res = runs.result(f"dacapo-{app}", machine, sched, gov,
                                  variant=name)
                data[(name, app)] = res.makespan_us
                delta = data[("full Nest", app)] / res.makespan_us - 1
                cells.append(pct(delta))
            rows.append(cells)
        print("\n" + render_table(
            ["variant"] + apps, rows,
            title=f"Section 5.3 ablation on {machine} "
                  "(delta vs full Nest; negative = slower)"))
        return data

    data = once(benchmark, regenerate)

    # Spinning has the greatest impact: removing it degrades the
    # high-underload apps (paper: 10-26% on this machine).
    degradations = [data[("no spin", app)] / data[("full Nest", app)] - 1
                    for app in apps]
    assert max(degradations) > 0.05
    assert sum(1 for d in degradations if d > 0.01) >= 2

    # The reserve nest has little impact on these apps (paper: "the
    # reserve mask has little impact on h2, graphchi-eval, tradebeans").
    for app in apps:
        assert abs(data[("no reserve", app)] /
                   data[("full Nest", app)] - 1) < 0.10, app
