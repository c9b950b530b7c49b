"""Figure 11: DaCapo frequency distributions.

For the high-underload applications Nest shifts busy time into higher
frequency bins; for machine-saturating applications the distributions are
similar under both schedulers.
"""

from conftest import once

from repro.analysis.plots import render_distribution
from repro.experiments.registry import get_experiment
from repro.workloads.dacapo import HIGH_UNDERLOAD_APPS, dacapo_names

SHOWN = ("h2", "tradebeans", "fop", "lusearch")


def test_fig11(benchmark, sweep):
    exp = get_experiment("fig11")

    def regenerate():
        runs = sweep(exp)
        data = {}
        mk = exp.machines[0]
        for app in dacapo_names():
            for sched, gov in exp.combos:
                res = runs.result(f"dacapo-{app}", mk, sched, gov)
                data[(app, sched)] = res.freq_dist
                if app in SHOWN:
                    fd = res.freq_dist
                    print("\n" + render_distribution(
                        f"Fig 11 {mk} {app} {sched}-{gov}",
                        fd.labels(), fd.fractions()))
        return data

    data = once(benchmark, regenerate)

    # Nest raises the mean busy frequency of every high-underload app.
    for app in HIGH_UNDERLOAD_APPS:
        assert data[(app, "nest")].mean_ghz() > \
            data[(app, "cfs")].mean_ghz() + 0.05, app

    # Saturating apps see little frequency change (no turbo headroom).
    for app in ("lusearch", "sunflow"):
        assert abs(data[(app, "nest")].mean_ghz() -
                   data[(app, "cfs")].mean_ghz()) < 0.45, app
