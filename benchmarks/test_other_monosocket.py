"""Section 5.6: mono-socket machines (Intel 5220 and AMD Ryzen 4650G).

Paper shapes: the configure speedups persist on one socket (the number of
sockets is irrelevant when the computation fits in one), and NAS is
identical between CFS and Nest.
"""

from conftest import once, speedup_pct

from repro.experiments.registry import get_experiment


def test_monosocket(benchmark, sweep):
    exp = get_experiment("other_monosocket")
    configure, nas = exp.workload_names

    def regenerate():
        runs = sweep(exp)
        data = {}
        for mk in exp.machines:
            for key, name in (("configure", configure), ("nas", nas)):
                base = runs.result(name, mk, "cfs", "schedutil")
                nest = runs.result(name, mk, "nest", "schedutil")
                data[(mk, key)] = speedup_pct(base, nest)
            print(f"{mk}: configure nest {data[(mk, 'configure')]:+.1%}, "
                  f"nas mg nest {data[(mk, 'nas')]:+.1%}")
        return data

    data = once(benchmark, regenerate)

    for mk in exp.machines:
        # Configure speedups persist on one socket.
        assert data[(mk, "configure")] > 0.05, mk
        # NAS performance is essentially identical.
        assert abs(data[(mk, "nas")]) < 0.12, mk
