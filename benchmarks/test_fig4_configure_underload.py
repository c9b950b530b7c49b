"""Figure 4: underload per second for the configure suite.

Nest nearly eliminates the underload of CFS on every machine.
"""

from conftest import once

from repro.analysis.tables import render_table
from repro.experiments.registry import get_experiment
from repro.workloads.configure import configure_names


def test_fig4(benchmark, sweep):
    exp = get_experiment("fig4")

    def regenerate():
        runs = sweep(exp)
        data = {}
        for mk in exp.machines:
            rows = []
            for pkg in configure_names():
                cells = [pkg]
                for sched, gov in exp.combos:
                    res = runs.result(f"configure-{pkg}", mk, sched, gov)
                    u = res.underload.underload_per_second
                    data[(mk, pkg, sched, gov)] = u
                    cells.append(f"{u:.2f}")
                rows.append(cells)
            print("\n" + render_table(
                ["package"] + ["-".join(c) for c in exp.combos], rows,
                title=f"Figure 4: underload per second on {mk}"))
        return data

    data = once(benchmark, regenerate)

    for mk in exp.machines:
        cfs_total = sum(data[(mk, p, "cfs", "schedutil")]
                        for p in configure_names())
        nest_total = sum(data[(mk, p, "nest", "schedutil")]
                         for p in configure_names())
        # Nest nearly eliminates underload across the suite.
        assert nest_total < cfs_total * 0.5, mk
        # The performance governor alone does NOT reduce underload.
        cfs_perf_total = sum(data[(mk, p, "cfs", "performance")]
                             for p in configure_names())
        assert cfs_perf_total > cfs_total * 0.5, mk
