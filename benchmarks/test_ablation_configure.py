"""Section 5.2 ablation: Nest features/parameters on configure workloads.

The paper: on llvm_ninja and mplayer configure, removing features or
scaling parameters by 0.5/2/10 changes little — *except* removing the
reserve nest, which degrades performance by ~5% (6130/5218) to 16% (E7).
"""

from conftest import once

from repro.analysis.tables import pct, render_table
from repro.experiments.registry import get_experiment


def test_ablation_configure(benchmark, sweep):
    exp = get_experiment("ablation_configure")
    (machine,) = exp.machines
    ((sched, gov),) = exp.combos
    packages = [w.removeprefix("configure-") for w in exp.workload_names]

    def regenerate():
        runs = sweep(exp)
        data = {}
        rows = []
        for name, _ in exp.variants:
            cells = [name]
            for pkg in packages:
                res = runs.result(f"configure-{pkg}", machine, sched, gov,
                                  variant=name)
                data[(name, pkg)] = res.makespan_us
                delta = data[("full Nest", pkg)] / res.makespan_us - 1
                cells.append(pct(delta))
            rows.append(cells)
        print("\n" + render_table(
            ["variant"] + packages, rows,
            title=f"Section 5.2 ablation on {machine} "
                  "(delta vs full Nest; negative = slower)"))
        return data

    data = once(benchmark, regenerate)

    for pkg in packages:
        full = data[("full Nest", pkg)]
        # Removing the reserve nest clearly hurts (paper: ~5% on the
        # Skylake machines, 16% on the E7; our simulation shows more).
        assert data[("no reserve", pkg)] > full * 1.03, pkg
        # The remaining variations stay comparatively small.  (Deviation:
        # removing the spin costs configure more here than in the paper,
        # because simulated configure scripts block on every test while
        # real ones often keep the script core busy — see EXPERIMENTS.md.)
        for name, _ in exp.variants:
            if name in ("full Nest", "no reserve", "no spin"):
                continue
            assert data[(name, pkg)] < full * 1.15, (name, pkg)
        assert data[("no spin", pkg)] < full * 1.30, pkg
