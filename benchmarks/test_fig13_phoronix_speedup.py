"""Figure 13: Phoronix tests with large scheduler effects.

Class shapes asserted (paper §5.5):

* zstd compression: CFS-performance and Nest-schedutil both help on the
  Speed Shift machine; on the E7 only CFS-performance does (the activity is
  too thin for Nest-schedutil);
* libavif avifenc: Nest-schedutil is *slower* (it pins ~20 threads to one
  socket at a low turbo ceiling while CFS spills over);
* saturating tests (cpuminer, oidn): everything within noise.
"""

from conftest import once, speedup_pct

from repro.analysis.tables import pct, render_table
from repro.experiments.registry import get_experiment
from repro.experiments.runner import BASELINE
from repro.workloads.phoronix import fig13_names


def test_fig13(benchmark, sweep):
    exp = get_experiment("fig13")
    combos = [c for c in exp.combos if c != BASELINE]

    def regenerate():
        runs = sweep(exp)
        data = {}
        for mk in exp.machines:
            rows = []
            for test in fig13_names():
                base = runs.result(f"phoronix-{test}", mk, *BASELINE)
                cells = [test, f"{base.makespan_sec:.3f}s"]
                for sched, gov in combos:
                    res = runs.result(f"phoronix-{test}", mk, sched, gov)
                    s = speedup_pct(base, res)
                    data[(mk, test, sched, gov)] = s
                    cells.append(pct(s))
                rows.append(cells)
            print("\n" + render_table(
                ["test", "CFS time"] + ["-".join(c) for c in combos],
                rows, title=f"Figure 13: Phoronix speedups on {mk}"))
        return data

    data = once(benchmark, regenerate)

    # zstd: both fixes work on the 5218...
    for t in ("zstd-compression-7", "zstd-compression-10"):
        assert data[("5218_2s", t, "nest", "schedutil")] > 0.02, t
        assert data[("5218_2s", t, "cfs", "performance")] > 0.02, t
        # ...but on the E7 only the performance governor helps: Nest's
        # schedutil gain vanishes ("the degree of activity is still too
        # low, and the cores remain at a very low frequency").
        assert data[("e78870_4s", t, "cfs", "performance")] > \
            data[("e78870_4s", t, "nest", "schedutil")] + 0.02, t
        assert data[("e78870_4s", t, "nest", "schedutil")] < 0.05, t

    # libavif: Nest packs too hard and loses.
    assert data[("5218_2s", "libavif-avifenc-1", "nest", "schedutil")] < 0.02

    # Saturating tests are flat for Nest.
    for t in ("cpuminer-opt-6", "oidn-1", "oidn-2"):
        assert abs(data[("5218_2s", t, "nest", "schedutil")]) < 0.08, t
