"""Section 5.6: multiple concurrent applications.

The paper pairs zstd compression with libgav1: both applications still
improve under Nest in the multi-application scenario.
"""

from conftest import once

from repro.experiments.registry import get_experiment, specs_for
from repro.experiments.runner import run_experiment
from repro.hw.machines import get_machine
from repro.workloads.catalog import make_workload


def test_multiapp(benchmark):
    def regenerate():
        data = {}
        for spec in specs_for(get_experiment("other_multiapp")):
            # Direct run: per-application completion times live on the
            # workload object, not in the RunResult a sweep returns.
            wl = make_workload(spec.workload, spec.scale)
            run_experiment(wl, get_machine(spec.machine), spec.scheduler,
                           spec.governor, seed=spec.seed)
            data[spec.scheduler] = wl.completion_times_us()
            for app, t in data[spec.scheduler].items():
                print(f"{spec.scheduler}-{spec.governor} {app}: "
                      f"{t / 1000:.1f} ms")
        return data

    data = once(benchmark, regenerate)

    for app in data["cfs"]:
        delta = data["cfs"][app] / data["nest"][app] - 1
        # Neither application is badly hurt by sharing the machine under
        # Nest (the paper reports improvements for both).
        assert delta > -0.10, app
    # At least one of the pair improves under Nest.
    assert any(data["cfs"][a] / data["nest"][a] - 1 > 0.0
               for a in data["cfs"])
