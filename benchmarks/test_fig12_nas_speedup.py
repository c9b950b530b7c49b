"""Figure 12: NAS Parallel Benchmarks speedups vs CFS-schedutil.

Shapes (paper §5.4): on the 2-socket Skylake machines CFS and Nest have
essentially the same performance (every core is active, so there is no
turbo headroom); on the E7-8870 v4 Nest provides substantial speedups on
most kernels, with cg and ep the exceptions; and "the nest does not get in
the way of highly parallel applications" — Nest never causes a large
regression.
"""

from conftest import once, speedup_pct

from repro.analysis.tables import pct, render_table
from repro.experiments.registry import get_experiment
from repro.experiments.runner import BASELINE
from repro.workloads.nas import nas_names


def test_fig12(benchmark, sweep):
    exp = get_experiment("fig12")
    combos = [c for c in exp.combos if c != BASELINE]

    def regenerate():
        runs = sweep(exp)
        data = {}
        for mk in exp.machines:
            rows = []
            for kern in nas_names():
                base = runs.result(f"nas-{kern}.C", mk, *BASELINE)
                cells = [f"{kern}.C", f"{base.makespan_sec:.3f}s"]
                for sched, gov in combos:
                    res = runs.result(f"nas-{kern}.C", mk, sched, gov)
                    s = speedup_pct(base, res)
                    data[(mk, kern, sched, gov)] = s
                    cells.append(pct(s))
                rows.append(cells)
            print("\n" + render_table(
                ["kernel", "CFS time"] + ["-".join(c) for c in combos],
                rows, title=f"Figure 12: NAS speedups on {mk}"))
        return data

    data = once(benchmark, regenerate)

    # 2-socket Skylake: near parity for Nest-schedutil on every kernel.
    for kern in nas_names():
        assert abs(data[("5218_2s", kern, "nest", "schedutil")]) < 0.15, kern

    # E7: Nest-schedutil provides solid speedups on the barrier-heavy
    # kernels (the paper: 16%-80%), with ep (no barriers) flat.
    winners = [k for k in nas_names() if k not in ("cg", "ep", "is")]
    avg = sum(data[("e78870_4s", k, "nest", "schedutil")]
              for k in winners) / len(winners)
    assert avg > 0.10
    assert abs(data[("e78870_4s", "ep", "nest", "schedutil")]) < 0.10

    # Nest never causes a serious NAS regression anywhere.
    worst = min(data[(mk, k, "nest", "schedutil")]
                for mk in exp.machines for k in nas_names())
    assert worst > -0.15
