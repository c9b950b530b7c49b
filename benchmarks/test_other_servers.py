"""Section 5.6: server tests on the 2-socket 6130.

Paper shapes: apache-siege-style servers get slower under Nest as the
number of concurrent users grows; nginx is comparable under both; the
key-value stores improve (leveldb +25%, redis +7%).
"""

from conftest import once

from repro.experiments.registry import get_experiment


def test_servers(benchmark, sweep):
    exp = get_experiment("other_servers")
    (machine,) = exp.machines

    def regenerate():
        runs = sweep(exp)
        data = {}
        for name in exp.workload_names:
            key = name.replace("apache-siege-c", "siege-")
            for sched, gov in exp.combos:
                res = runs.result(name, machine, sched, gov)
                data[(key, sched)] = res.makespan_us
            if key.startswith("siege-"):
                d = data[(key, "nest")] / data[(key, "cfs")] - 1
                print(f"apache-siege c={key.removeprefix('siege-')}: "
                      f"nest delta {d:+.1%}")
            else:
                s = data[(key, "cfs")] / data[(key, "nest")] - 1
                print(f"{name}: nest speedup {s:+.1%}")
        return data

    data = once(benchmark, regenerate)

    def nest_speedup(key):
        return data[(key, "cfs")] / data[(key, "nest")] - 1

    # nginx: comparable performance.
    assert abs(nest_speedup("nginx")) < 0.08
    # Key-value stores improve under Nest.
    assert nest_speedup("leveldb") > 0.02
    assert nest_speedup("redis") > 0.0
    # apache-siege trends against Nest as concurrency grows.
    assert nest_speedup("siege-56") < nest_speedup("siege-8") + 0.05
    assert nest_speedup("siege-56") < 0.05
