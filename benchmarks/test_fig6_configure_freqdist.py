"""Figure 6: configure-suite frequency distributions.

Under Nest the busy time shifts into the highest frequency bins; under
CFS-schedutil the tasks sit in the mid/low turbo range.
"""

from conftest import once

from repro.analysis.plots import render_distribution
from repro.experiments.registry import get_experiment
from repro.workloads.configure import configure_names

SHOWN = ("erlang", "llvm_ninja", "mplayer")


def test_fig6(benchmark, sweep):
    exp = get_experiment("fig6")

    def regenerate():
        runs = sweep(exp)
        data = {}
        for mk in exp.machines:
            for pkg in configure_names():
                for sched, gov in exp.combos:
                    res = runs.result(f"configure-{pkg}", mk, sched, gov)
                    data[(mk, pkg, sched)] = res.freq_dist
                    if pkg in SHOWN:
                        fd = res.freq_dist
                        print("\n" + render_distribution(
                            f"Fig 6 {mk} {pkg} {sched}-{gov}",
                            fd.labels(), fd.fractions()))
        return data

    data = once(benchmark, regenerate)

    for mk in exp.machines:
        gains = 0
        for pkg in configure_names():
            cfs = data[(mk, pkg, "cfs")].mean_ghz()
            nest = data[(mk, pkg, "nest")].mean_ghz()
            if nest > cfs + 0.05:
                gains += 1
        # Nest raises the mean busy frequency on the majority of the
        # configure suite (the margin is smaller on the E7, whose whole
        # frequency range spans just 1.8 GHz).
        majority = 0.7 if mk != "e78870_4s" else 0.5
        assert gains >= len(configure_names()) * majority, mk

    # Headline case (paper Fig 2/6): llvm_ninja on the 5218 moves most
    # busy time above 3.1 GHz under Nest.
    assert data[("5218_2s", "llvm_ninja", "nest")].top_bins_fraction() > 0.5
