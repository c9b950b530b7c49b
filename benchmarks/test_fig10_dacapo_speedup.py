"""Figure 10: DaCapo speedups vs CFS-schedutil on the 4-socket 6130.

Shapes (paper §5.3): results range from a small degradation to >40%
speedups; the high-underload applications (h2, tradebeans, graphchi-eval)
are Nest's biggest wins; the few-task applications stay within noise.
"""

from conftest import once, speedup_pct

from repro.analysis.tables import pct, render_table
from repro.experiments.registry import get_experiment
from repro.experiments.runner import BASELINE
from repro.workloads.dacapo import (DACAPO_PROFILES, HIGH_UNDERLOAD_APPS,
                                    dacapo_names)


def test_fig10(benchmark, sweep):
    exp = get_experiment("fig10")
    combos = [c for c in exp.combos if c != BASELINE]

    def regenerate():
        runs = sweep(exp)
        data = {}
        for mk in exp.machines:
            rows = []
            for app in dacapo_names():
                base = runs.result(f"dacapo-{app}", mk, *BASELINE)
                cells = [app, f"{base.makespan_sec:.3f}s",
                         f"u:{base.underload.underload_per_second:.1f}"]
                for sched, gov in combos:
                    res = runs.result(f"dacapo-{app}", mk, sched, gov)
                    s = speedup_pct(base, res)
                    data[(mk, app, sched, gov)] = s
                    cells.append(pct(s))
                rows.append(cells)
            print("\n" + render_table(
                ["app", "CFS time", "underload"] +
                ["-".join(c) for c in combos], rows,
                title=f"Figure 10: DaCapo speedups on {mk}"))
        return data

    data = once(benchmark, regenerate)
    mk = exp.machines[0]

    # The paper's headline: the high-underload apps win clearly.
    for app in HIGH_UNDERLOAD_APPS:
        assert data[(mk, app, "nest", "schedutil")] > 0.04, app

    # Few-task applications are not badly hurt (paper's worst: -6%).
    for app in dacapo_names():
        if DACAPO_PROFILES[app].few_tasks:
            assert data[(mk, app, "nest", "schedutil")] > -0.08, app

    # No application collapses under Nest (the paper's only >5%
    # degradation is fop at -6% on the E7).
    assert min(data[(mk, a, "nest", "schedutil")]
               for a in dacapo_names()) > -0.10
