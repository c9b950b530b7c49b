"""Figure 3: underload trace for LLVM configure on the 5218.

CFS shows substantial underload throughout the execution; under Nest it has
almost disappeared.
"""

from conftest import once

from repro.experiments.registry import get_experiment


def test_fig3(benchmark, sweep):
    def regenerate():
        out = {}
        for spec, res in sweep(get_experiment("fig3")).items():
            out[spec.scheduler] = res
            timeline = res.underload.timeline()
            peak = max(v for _, v in timeline)
            print(f"\nFigure 3 ({spec.scheduler}-{spec.governor}): "
                  f"underload/s={res.underload.underload_per_second:.2f} "
                  f"peak={peak}")
            # A sparkline of the first 50 intervals.
            glyphs = " .:-=+*#%@"
            line = "".join(glyphs[min(len(glyphs) - 1, max(0, v))]
                           for _, v in timeline[:50])
            print(f"  [{line}]")
        return out

    out = once(benchmark, regenerate)
    cfs_u = out["cfs"].underload.underload_per_second
    nest_u = out["nest"].underload.underload_per_second
    # Substantial CFS underload, nearly gone under Nest.
    assert cfs_u > 1.0
    assert nest_u < cfs_u * 0.5
