"""Figures 8-9: h2 execution traces on the 4-socket 6130.

CFS-schedutil disperses the h2 tasks over most of the cores of one socket
(and sometimes across sockets — the slow runs of Figure 9), keeping them in
the lower turbo range; Nest concentrates them on ~10 cores that reach the
high turbo bins.
"""

from conftest import once

from repro.analysis.plots import render_core_trace, render_distribution
from repro.experiments.registry import get_experiment


def test_fig8_9(benchmark, sweep):
    def regenerate():
        out = {}
        edges = [1000, 1600, 2100, 2800, 3100, 3400, 3700]
        runs = sweep(get_experiment("fig8_9"), record_trace=True)
        for spec, res in runs.items():
            segs = res.trace_segments
            used = {s.core for s in segs
                    if s.task_id >= 0 and not s.spinning}
            print(f"\n=== Figure 8 ({spec.scheduler}-{spec.governor}): "
                  f"{res.makespan_sec * 1000:.0f} ms, {len(used)} cores")
            print(render_core_trace(segs, 0, min(res.makespan_us, 80_000),
                                    edges, width=64, min_busy_us=2_000))
            fd = res.freq_dist
            print(render_distribution("frequency distribution",
                                      fd.labels(), fd.fractions()))
            out[spec.scheduler] = (res, used)
        return out

    out = once(benchmark, regenerate)
    cfs_res, cfs_cores = out["cfs"]
    nest_res, nest_cores = out["nest"]

    # Nest concentrates h2 on far fewer cores than CFS.
    assert len(nest_cores) < len(cfs_cores)
    # CFS spends most busy time at or below the low turbo range while Nest
    # pushes a large share above 3.1 GHz (paper: 2/3 vs 2/3 inverted).
    assert nest_res.freq_dist.top_bins_fraction() > \
        cfs_res.freq_dist.top_bins_fraction() + 0.25
    # And the placement quality shows up as wall-clock time.
    assert nest_res.makespan_us < cfs_res.makespan_us
