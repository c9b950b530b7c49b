"""Figure 7: configure-suite CPU energy reduction vs CFS-schedutil.

The paper: Nest provides both a speedup and energy savings (up to ~19%),
because the biggest CPU-energy lever is finishing sooner.
"""

from conftest import once

from repro.analysis.tables import pct, render_table
from repro.experiments.registry import get_experiment
from repro.experiments.runner import BASELINE
from repro.workloads.configure import configure_names


def test_fig7(benchmark, sweep):
    exp = get_experiment("fig7")
    combos = [c for c in exp.combos if c != BASELINE]

    def regenerate():
        runs = sweep(exp)
        data = {}
        for mk in exp.machines:
            rows = []
            for pkg in configure_names():
                base = runs.result(f"configure-{pkg}", mk, *BASELINE)
                cells = [pkg, f"{base.energy_joules:.1f}J"]
                for sched, gov in combos:
                    res = runs.result(f"configure-{pkg}", mk, sched, gov)
                    saving = 1.0 - res.energy_joules / base.energy_joules
                    data[(mk, pkg, sched, gov)] = saving
                    cells.append(pct(saving))
                rows.append(cells)
            print("\n" + render_table(
                ["package", "CFS-sched energy"] +
                ["-".join(c) for c in combos], rows,
                title=f"Figure 7: CPU energy reduction on {mk}"))
        return data

    data = once(benchmark, regenerate)

    for mk in exp.machines:
        savings = [data[(mk, p, "nest", "schedutil")]
                   for p in configure_names() if p != "nodejs"]
        # Nest saves energy on the clear majority of packages...
        assert sum(1 for s in savings if s > 0) >= len(savings) * 0.7, mk
        # ...and the best saving is substantial (paper: up to 19%; the
        # E7's narrow frequency range caps the simulated effect lower).
        assert max(savings) > (0.08 if mk != "e78870_4s" else 0.04), mk
        # No pathological energy blowup anywhere.
        assert min(savings) > -0.15, mk
