"""Figure 2: core-frequency trace of LLVM configure (Ninja) on the 5218.

The paper shows CFS dispersing the configure tasks over ~8 cores that stay
in the lower turbo range, while Nest keeps them on ~2 cores running almost
entirely at the highest frequencies.
"""

from conftest import once

from repro.analysis.plots import render_core_trace, render_distribution
from repro.experiments.registry import get_experiment

WINDOW_US = 120_000


def test_fig2(benchmark, sweep):
    def regenerate():
        out = {}
        edges = [1000, 1600, 2300, 3600, 3900]
        runs = sweep(get_experiment("fig2"), record_trace=True)
        for spec, res in runs.items():
            segs = res.trace_segments
            used = {s.core for s in segs if s.task_id >= 0 and not s.spinning}
            print(f"\n=== Figure 2 ({spec.scheduler}-{spec.governor}): "
                  f"{len(used)} cores used in the run")
            print(render_core_trace(segs, 0, WINDOW_US, edges, width=70,
                                    min_busy_us=1_000))
            fd = res.freq_dist
            print(render_distribution("frequency distribution",
                                      fd.labels(), fd.fractions()))
            out[spec.scheduler] = res
        return out

    out = once(benchmark, regenerate)
    cfs, nest = out["cfs"], out["nest"]

    cfs_cores = {s.core for s in cfs.trace_segments
                 if s.task_id >= 0 and not s.spinning}
    nest_cores = {s.core for s in nest.trace_segments
                  if s.task_id >= 0 and not s.spinning}
    # Nest concentrates the work on far fewer cores...
    assert len(nest_cores) < len(cfs_cores) * 0.7
    # ...and spends most busy time in the top turbo range (paper: 91% in
    # (3.6,3.9] for Nest vs 25% for CFS).
    assert nest.freq_dist.top_bins_fraction() > 0.5
    assert nest.freq_dist.top_bins_fraction() > \
        cfs.freq_dist.top_bins_fraction() + 0.3
