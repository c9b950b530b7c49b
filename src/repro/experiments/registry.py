"""Per-figure experiment registry (the DESIGN.md experiment index in code).

Each entry maps a paper artefact (table or figure) to the workloads,
machines and scheduler/governor combinations that regenerate it, and to the
benchmark module that prints it.  The CLI's ``list``, ``describe``,
``sweep``, ``trace`` and ``obs`` commands read it.  The ``benchmarks/``
modules do not import it: they hard-code their own machines and scales,
and an entry's ``bench`` field is the only link between the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..workloads.configure import configure_names
from ..workloads.dacapo import dacapo_names
from ..workloads.nas import nas_names
from ..workloads.phoronix import fig13_names

#: Machines used by most figures, in the paper's panel order.
FIGURE_MACHINES: Tuple[str, ...] = ("6130_2s", "6130_4s", "5218_2s", "e78870_4s")


@dataclass(frozen=True)
class Experiment:
    """One reproducible paper artefact."""

    id: str                       # e.g. "fig5"
    artefact: str                 # "Figure 5" / "Table 4"
    description: str
    workloads: Tuple[str, ...]    # workload names or family description
    machines: Tuple[str, ...]
    combos: Tuple[Tuple[str, str], ...]
    bench: str                    # benchmark file that regenerates it
    expected_shape: str           # what must hold for the reproduction


_STANDARD = (("cfs", "schedutil"), ("cfs", "performance"),
             ("nest", "schedutil"), ("nest", "performance"))
_WITH_SMOVE = _STANDARD + (("smove", "schedutil"),)

EXPERIMENTS: Dict[str, Experiment] = {}


def _register(exp: Experiment) -> None:
    EXPERIMENTS[exp.id] = exp


_register(Experiment(
    id="table1", artefact="Table 1",
    description="Chosen values of the Nest parameters",
    workloads=(), machines=(), combos=(),
    bench="benchmarks/test_table1_params.py",
    expected_shape="P_remove=2 ticks, R_max=5, R_impatient=2, S_max=2 ticks"))

_register(Experiment(
    id="table2", artefact="Table 2",
    description="Hardware characteristics of the four test machines",
    workloads=(), machines=FIGURE_MACHINES, combos=(),
    bench="benchmarks/test_table2_machines.py",
    expected_shape="4 machines with the paper's topology and frequency ranges"))

_register(Experiment(
    id="table3", artefact="Table 3",
    description="Turbo frequencies by active-core count",
    workloads=(), machines=FIGURE_MACHINES, combos=(),
    bench="benchmarks/test_table3_turbo.py",
    expected_shape="non-increasing turbo ceilings matching the paper's rows"))

_register(Experiment(
    id="fig2", artefact="Figure 2",
    description="Core frequency trace, LLVM configure (Ninja) on the 5218",
    workloads=("configure-llvm_ninja",), machines=("5218_2s",),
    combos=(("cfs", "schedutil"), ("nest", "schedutil")),
    bench="benchmarks/test_fig2_case_study.py",
    expected_shape="CFS disperses over many cores at mixed frequencies; "
                   "Nest uses ~2 cores mostly at the highest frequencies"))

_register(Experiment(
    id="fig3", artefact="Figure 3",
    description="Underload trace for LLVM configure on the 5218",
    workloads=("configure-llvm_ninja",), machines=("5218_2s",),
    combos=(("cfs", "schedutil"), ("nest", "schedutil")),
    bench="benchmarks/test_fig3_underload_trace.py",
    expected_shape="substantial CFS underload, nearly none under Nest"))

_register(Experiment(
    id="fig4", artefact="Figure 4",
    description="Underload per second, configure suite",
    workloads=tuple(f"configure-{n}" for n in configure_names()),
    machines=FIGURE_MACHINES, combos=_STANDARD,
    bench="benchmarks/test_fig4_configure_underload.py",
    expected_shape="Nest nearly eliminates underload on every machine"))

_register(Experiment(
    id="fig5", artefact="Figure 5",
    description="Configure-suite speedups vs CFS-schedutil",
    workloads=tuple(f"configure-{n}" for n in configure_names()),
    machines=FIGURE_MACHINES, combos=_WITH_SMOVE,
    bench="benchmarks/test_fig5_configure_speedup.py",
    expected_shape="Nest >5% everywhere except nodejs; Smove <10%; on the "
                   "E7 CFS-performance rivals Nest-schedutil"))

_register(Experiment(
    id="fig6", artefact="Figure 6",
    description="Configure-suite frequency distributions",
    workloads=tuple(f"configure-{n}" for n in configure_names()),
    machines=FIGURE_MACHINES, combos=_STANDARD,
    bench="benchmarks/test_fig6_configure_freqdist.py",
    expected_shape="Nest shifts busy time into the highest frequency bins"))

_register(Experiment(
    id="fig7", artefact="Figure 7",
    description="Configure-suite CPU energy reduction",
    workloads=tuple(f"configure-{n}" for n in configure_names()),
    machines=FIGURE_MACHINES, combos=_STANDARD,
    bench="benchmarks/test_fig7_configure_energy.py",
    expected_shape="Nest reduces CPU energy (up to ~20%) by finishing sooner"))

_register(Experiment(
    id="fig8_9", artefact="Figures 8-9",
    description="h2 execution traces on the 4-socket 6130",
    workloads=("dacapo-h2",), machines=("6130_4s",),
    combos=(("cfs", "schedutil"), ("nest", "schedutil")),
    bench="benchmarks/test_fig8_9_h2_trace.py",
    expected_shape="CFS uses far more cores at lower frequency bins than Nest"))

_register(Experiment(
    id="fig10", artefact="Figure 10",
    description="DaCapo speedups vs CFS-schedutil",
    workloads=tuple(f"dacapo-{n}" for n in dacapo_names()),
    machines=FIGURE_MACHINES, combos=_STANDARD,
    bench="benchmarks/test_fig10_dacapo_speedup.py",
    expected_shape="big Nest wins on h2/tradebeans/graphchi-eval; few-task "
                   "apps within ±8%"))

_register(Experiment(
    id="fig11", artefact="Figure 11",
    description="DaCapo frequency distributions",
    workloads=tuple(f"dacapo-{n}" for n in dacapo_names()),
    machines=FIGURE_MACHINES, combos=_STANDARD,
    bench="benchmarks/test_fig11_dacapo_freqdist.py",
    expected_shape="higher bins under Nest for the high-underload apps"))

_register(Experiment(
    id="fig12", artefact="Figure 12",
    description="NAS speedups vs CFS-schedutil",
    workloads=tuple(f"nas-{n}.C" for n in nas_names()),
    machines=FIGURE_MACHINES, combos=_STANDARD,
    bench="benchmarks/test_fig12_nas_speedup.py",
    expected_shape="near parity on the 2-socket machines; Nest never badly "
                   "hurts; speedups on the E7 (except cg/ep)"))

_register(Experiment(
    id="table4", artefact="Table 4",
    description="Phoronix multicore overview (speedup bands)",
    workloads=("suite population (seeded)",),
    machines=("6130_2s", "e78870_4s"),
    combos=(("cfs", "performance"), ("nest", "schedutil")),
    bench="benchmarks/test_table4_phoronix_overview.py",
    expected_shape="most tests in the 'same' band; more >5% winners on E7"))

_register(Experiment(
    id="fig13", artefact="Figure 13",
    description="Phoronix tests with >=20% effects",
    workloads=tuple(f"phoronix-{n}" for n in fig13_names()),
    machines=("5218_2s", "e78870_4s"),
    combos=(("cfs", "schedutil"), ("cfs", "performance"),
            ("nest", "schedutil")),
    bench="benchmarks/test_fig13_phoronix_speedup.py",
    expected_shape="zstd: CFS-perf & Nest win on Speed Shift, only "
                   "CFS-perf on E7; libavif: Nest slower; oidn/cpuminer: flat"))

_register(Experiment(
    id="ablation_configure", artefact="Section 5.2 (ablation)",
    description="Feature/parameter ablation on llvm_ninja and mplayer",
    workloads=("configure-llvm_ninja", "configure-mplayer"),
    machines=("5218_2s", "e78870_4s"),
    combos=(("nest", "schedutil"),),
    bench="benchmarks/test_ablation_configure.py",
    expected_shape="removing the reserve nest degrades configure by ~5-16%"))

_register(Experiment(
    id="ablation_dacapo", artefact="Section 5.3 (ablation)",
    description="Feature ablation on h2/graphchi-eval/tradebeans",
    workloads=("dacapo-h2", "dacapo-graphchi-eval", "dacapo-tradebeans"),
    machines=("6130_4s",),
    combos=(("nest", "schedutil"),),
    bench="benchmarks/test_ablation_dacapo.py",
    expected_shape="removing spinning costs the most (paper: 10-26%)"))

_register(Experiment(
    id="other_hackbench", artefact="Section 5.6 (hackbench/schbench)",
    description="Scheduling microbenchmarks",
    workloads=("hackbench", "schbench"), machines=("5218_2s",),
    combos=(("cfs", "schedutil"), ("nest", "schedutil")),
    bench="benchmarks/test_other_hackbench_schbench.py",
    expected_shape="hackbench slower under Nest; schbench has no clear winner"))

_register(Experiment(
    id="other_servers", artefact="Section 5.6 (servers)",
    description="Server workloads on the 2-socket 6130",
    workloads=("apache-siege", "nginx", "leveldb", "redis"),
    machines=("6130_2s",),
    combos=(("cfs", "schedutil"), ("nest", "schedutil")),
    bench="benchmarks/test_other_servers.py",
    expected_shape="apache-siege degrades with concurrency; nginx flat; "
                   "leveldb/redis improve"))

_register(Experiment(
    id="other_multiapp", artefact="Section 5.6 (multi-application)",
    description="zstd and libgav1 running concurrently",
    workloads=("multi:zstd+libgav1",), machines=("6130_2s",),
    combos=(("cfs", "schedutil"), ("nest", "schedutil")),
    bench="benchmarks/test_other_multiapp.py",
    expected_shape="both applications still improve under Nest"))

_register(Experiment(
    id="other_monosocket", artefact="Section 5.6 (mono-socket)",
    description="Configure/DaCapo/NAS on the 5220 and the Ryzen 4650G",
    workloads=("configure-llvm_ninja", "dacapo-h2", "nas-mg.C"),
    machines=("5220_1s", "ryzen_4650g"),
    combos=_STANDARD,
    bench="benchmarks/test_other_monosocket.py",
    expected_shape="configure speedups persist; NAS unchanged"))


def specs_for(
    exp: Experiment,
    seeds: Sequence[int] = (1,),
    scale: float = 1.0,
    machines: Sequence[str] = (),
) -> List["RunSpec"]:
    """Expand a registry entry into the RunSpecs that regenerate it.

    The sweep covers (workload × machine × combo × seed) in registry
    order, which a :class:`~repro.experiments.parallel.SweepExecutor` can
    run in parallel and cache.  Workload entries that are descriptive
    rather than buildable (e.g. Table 4's "suite population") are skipped;
    an experiment with no buildable workloads yields no specs.
    """
    from ..workloads.catalog import make_workload
    from .parallel import RunSpec

    out: List[RunSpec] = []
    for machine in (tuple(machines) or exp.machines):
        for workload in exp.workloads:
            try:
                make_workload(workload)
            except KeyError:
                continue
            for scheduler, governor in exp.combos:
                for seed in seeds:
                    out.append(RunSpec(workload=workload, machine=machine,
                                       scheduler=scheduler, governor=governor,
                                       seed=seed, scale=scale))
    return out


def reference_spec(exp: Experiment, seed: int = 1, scale: float = 1.0,
                   machine: Optional[str] = None) -> Optional["RunSpec"]:
    """The single representative run used to *trace* an experiment.

    Picks the experiment's first buildable workload on its first machine
    (or ``machine``), preferring a Nest combo so the trace shows the nest
    mechanisms; returns ``None`` when the entry has nothing buildable
    (pure tables).  The spec records the execution trace.
    """
    from ..workloads.catalog import make_workload
    from .parallel import RunSpec

    combos = exp.combos or (("nest", "schedutil"),)
    scheduler, governor = next(
        (c for c in combos if c[0] == "nest"), combos[0])
    machines = (machine,) if machine else exp.machines
    for mk in machines:
        for workload in exp.workloads:
            try:
                make_workload(workload)
            except KeyError:
                continue
            return RunSpec(workload=workload, machine=mk,
                           scheduler=scheduler, governor=governor,
                           seed=seed, scale=scale, record_trace=True)
    return None


def all_experiments() -> List[Experiment]:
    return list(EXPERIMENTS.values())


def get_experiment(exp_id: str) -> Experiment:
    try:
        return EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(f"unknown experiment {exp_id!r}; "
                       f"known: {sorted(EXPERIMENTS)}") from None
