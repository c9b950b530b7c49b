"""Per-figure experiment registry (the DESIGN.md experiment index in code).

Each entry is the one definition of a paper artefact's runs: the catalogue
workloads (each with its scale and seeds), the machines, the
scheduler/governor combinations (with the CFS-schedutil baseline wherever
the artefact divides by it) and, for the ablations, the named Nest
parameter variants.  :func:`specs_for` expands an entry into exactly the
runs its benchmark reads: the ``benchmarks/`` modules fetch their results
by these specs, and ``repro sweep <id>`` runs the same list.  The CLI's
``list``, ``describe``, ``run`` and ``obs`` commands read it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.params import NestParams
from ..workloads.configure import configure_names
from ..workloads.dacapo import dacapo_names
from ..workloads.nas import nas_names
from ..workloads.phoronix import fig13_names
from .runner import STANDARD_COMBOS

#: Machines used by most figures, in the paper's panel order.
FIGURE_MACHINES: Tuple[str, ...] = ("6130_2s", "6130_4s", "5218_2s", "e78870_4s")

#: The Speed Shift 5218 and the Broadwell E7: the two machines the
#: configure, NAS and Phoronix artefacts are regenerated on.
_SKYLAKE_AND_E7 = ("5218_2s", "e78870_4s")


@dataclass(frozen=True)
class Workloads:
    """Catalogue workloads an entry runs at one scale, over one seed set."""

    names: Tuple[str, ...]
    scale: float = 1.0
    seeds: Tuple[int, ...] = (1,)


@dataclass(frozen=True)
class Experiment:
    """One reproducible paper artefact."""

    id: str                       # e.g. "fig5"
    artefact: str                 # "Figure 5" / "Table 4"
    description: str
    workloads: Tuple[Workloads, ...]
    machines: Tuple[str, ...]
    combos: Tuple[Tuple[str, str], ...]
    bench: str                    # benchmark file that regenerates it
    expected_shape: str           # what must hold for the reproduction
    #: Named Nest parameter sets; every run repeats once per variant.
    variants: Tuple[Tuple[str, NestParams], ...] = ()

    @property
    def workload_names(self) -> Tuple[str, ...]:
        return tuple(name for group in self.workloads for name in group.names)


_WITH_SMOVE = STANDARD_COMBOS + (("smove", "schedutil"),)
_SCHEDUTIL = (("cfs", "schedutil"), ("nest", "schedutil"))
_PHORONIX = (("cfs", "schedutil"), ("cfs", "performance"),
             ("nest", "schedutil"))

_CONFIGURE = Workloads(tuple(f"configure-{n}" for n in configure_names()),
                       scale=0.6)
_LLVM_NINJA = Workloads(("configure-llvm_ninja",), scale=0.6)

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
    workloads=(_LLVM_NINJA,), machines=("5218_2s",), combos=_SCHEDUTIL,
    bench="benchmarks/test_fig2_case_study.py",
    expected_shape="CFS disperses over many cores at mixed frequencies; "
                   "Nest uses ~2 cores mostly at the highest frequencies"))

_register(Experiment(
    id="fig3", artefact="Figure 3",
    description="Underload trace for LLVM configure on the 5218",
    workloads=(_LLVM_NINJA,), machines=("5218_2s",), combos=_SCHEDUTIL,
    bench="benchmarks/test_fig3_underload_trace.py",
    expected_shape="substantial CFS underload, nearly none under Nest"))

_register(Experiment(
    id="fig4", artefact="Figure 4",
    description="Underload per second, configure suite",
    workloads=(_CONFIGURE,), machines=_SKYLAKE_AND_E7, combos=STANDARD_COMBOS,
    bench="benchmarks/test_fig4_configure_underload.py",
    expected_shape="Nest nearly eliminates underload on every machine"))

_register(Experiment(
    id="fig5", artefact="Figure 5",
    description="Configure-suite speedups vs CFS-schedutil",
    workloads=(_CONFIGURE,), machines=_SKYLAKE_AND_E7, combos=_WITH_SMOVE,
    bench="benchmarks/test_fig5_configure_speedup.py",
    expected_shape="Nest >5% everywhere except nodejs; Smove <10%; on the "
                   "E7 CFS-performance rivals Nest-schedutil"))

_register(Experiment(
    id="fig6", artefact="Figure 6",
    description="Configure-suite frequency distributions",
    workloads=(_CONFIGURE,), machines=_SKYLAKE_AND_E7, combos=_SCHEDUTIL,
    bench="benchmarks/test_fig6_configure_freqdist.py",
    expected_shape="Nest shifts busy time into the highest frequency bins"))

_register(Experiment(
    id="fig7", artefact="Figure 7",
    description="Configure-suite CPU energy reduction",
    workloads=(_CONFIGURE,), machines=_SKYLAKE_AND_E7, combos=STANDARD_COMBOS,
    bench="benchmarks/test_fig7_configure_energy.py",
    expected_shape="Nest reduces CPU energy (up to ~20%) by finishing sooner"))

_register(Experiment(
    id="fig8_9", artefact="Figures 8-9",
    description="h2 execution traces on the 4-socket 6130",
    workloads=(Workloads(("dacapo-h2",)),), machines=("6130_4s",),
    combos=_SCHEDUTIL,
    bench="benchmarks/test_fig8_9_h2_trace.py",
    expected_shape="CFS uses far more cores at lower frequency bins than Nest"))

_register(Experiment(
    id="fig10", artefact="Figure 10",
    description="DaCapo speedups vs CFS-schedutil",
    workloads=(Workloads(tuple(f"dacapo-{n}" for n in dacapo_names())),),
    machines=("6130_4s",), combos=STANDARD_COMBOS,
    bench="benchmarks/test_fig10_dacapo_speedup.py",
    expected_shape="big Nest wins on h2/tradebeans/graphchi-eval; few-task "
                   "apps within ±8%"))

_register(Experiment(
    id="fig11", artefact="Figure 11",
    description="DaCapo frequency distributions",
    workloads=(Workloads(tuple(f"dacapo-{n}" for n in dacapo_names())),),
    machines=("6130_4s",), combos=_SCHEDUTIL,
    bench="benchmarks/test_fig11_dacapo_freqdist.py",
    expected_shape="higher bins under Nest for the high-underload apps"))

_register(Experiment(
    id="fig12", artefact="Figure 12",
    description="NAS speedups vs CFS-schedutil",
    workloads=(Workloads(tuple(f"nas-{n}.C" for n in nas_names()),
                         scale=0.2),),
    machines=_SKYLAKE_AND_E7, combos=STANDARD_COMBOS,
    bench="benchmarks/test_fig12_nas_speedup.py",
    expected_shape="near parity on the 2-socket machines; Nest never badly "
                   "hurts; speedups on the E7 (except cg/ep)"))

_register(Experiment(
    id="table4", artefact="Table 4",
    description="Phoronix multicore overview (speedup bands)",
    workloads=(Workloads(tuple(f"phoronix-pop7-{i}" for i in range(36))),),
    machines=_SKYLAKE_AND_E7,
    combos=_PHORONIX,
    bench="benchmarks/test_table4_phoronix_overview.py",
    expected_shape="most tests in the 'same' band; more >5% winners on E7"))

_register(Experiment(
    id="fig13", artefact="Figure 13",
    description="Phoronix tests with >=20% effects",
    workloads=(Workloads(tuple(f"phoronix-{n}" for n in fig13_names()),
                         scale=0.6),),
    machines=_SKYLAKE_AND_E7,
    combos=_PHORONIX,
    bench="benchmarks/test_fig13_phoronix_speedup.py",
    expected_shape="zstd: CFS-perf & Nest win on Speed Shift, only "
                   "CFS-perf on E7; libavif: Nest slower; oidn/cpuminer: flat"))

_register(Experiment(
    id="ablation_configure", artefact="Section 5.2 (ablation)",
    description="Feature/parameter ablation on llvm_ninja and mplayer",
    workloads=(Workloads(("configure-llvm_ninja", "configure-mplayer"),
                         scale=0.6),),
    machines=("5218_2s",),
    combos=(("nest", "schedutil"),),
    variants=(
        ("full Nest", NestParams()),
        ("no reserve", NestParams().without("reserve")),
        ("no compaction", NestParams().without("compaction")),
        ("no impatience", NestParams().without("impatience")),
        ("no spin", NestParams().without("spin")),
        ("no attachment", NestParams().without("attachment")),
        ("no placement flag", NestParams().without("placement_flag")),
        ("P_remove x0.5", NestParams().scaled(p_remove=0.5)),
        ("P_remove x2", NestParams().scaled(p_remove=2)),
        ("P_remove x10", NestParams().scaled(p_remove=10)),
        ("R_max x2", NestParams().scaled(r_max=2)),
        ("S_max x0.5", NestParams().scaled(s_max=0.5)),
        ("S_max x10", NestParams().scaled(s_max=10)),
    ),
    bench="benchmarks/test_ablation_configure.py",
    expected_shape="removing the reserve nest degrades configure by ~5-16%"))

_register(Experiment(
    id="ablation_dacapo", artefact="Section 5.3 (ablation)",
    description="Feature ablation on h2/graphchi-eval/tradebeans",
    workloads=(Workloads(("dacapo-h2", "dacapo-graphchi-eval",
                          "dacapo-tradebeans")),),
    machines=("6130_4s",),
    combos=(("nest", "schedutil"),),
    variants=(
        ("full Nest", NestParams()),
        ("no spin", NestParams().without("spin")),
        ("no compaction", NestParams().without("compaction")),
        ("no reserve", NestParams().without("reserve")),
        ("spin x0.5", NestParams().scaled(s_max=0.5)),
        ("spin x10", NestParams().scaled(s_max=10)),
    ),
    bench="benchmarks/test_ablation_dacapo.py",
    expected_shape="removing spinning costs the most (paper: 10-26%)"))

_register(Experiment(
    id="other_hackbench", artefact="Section 5.6 (hackbench/schbench)",
    description="Scheduling microbenchmarks",
    workloads=(Workloads(("hackbench-g10-p5-l150",)),
               Workloads(("schbench-m4w8-r40",), seeds=(1, 2))),
    machines=("5218_2s",), combos=_SCHEDUTIL,
    bench="benchmarks/test_other_hackbench_schbench.py",
    expected_shape="hackbench slower under Nest; schbench has no clear winner"))

_register(Experiment(
    id="other_servers", artefact="Section 5.6 (servers)",
    description="Server workloads on the 2-socket 6130",
    workloads=(Workloads(("apache-siege-c8", "apache-siege-c32",
                          "apache-siege-c56", "nginx", "leveldb", "redis")),),
    machines=("6130_2s",), combos=_SCHEDUTIL,
    bench="benchmarks/test_other_servers.py",
    expected_shape="apache-siege degrades with concurrency; nginx flat; "
                   "leveldb/redis improve"))

_register(Experiment(
    id="other_multiapp", artefact="Section 5.6 (multi-application)",
    description="zstd and libgav1 running concurrently",
    workloads=(Workloads(
        ("multi:phoronix-zstd-compression-7+phoronix-libgav1-4",),
        scale=0.5),),
    machines=("6130_2s",), combos=_SCHEDUTIL,
    bench="benchmarks/test_other_multiapp.py",
    expected_shape="both applications still improve under Nest"))

_register(Experiment(
    id="other_monosocket", artefact="Section 5.6 (mono-socket)",
    description="Configure and NAS on the 5220 and the Ryzen 4650G",
    workloads=(_LLVM_NINJA, Workloads(("nas-mg",), scale=0.4)),
    machines=("5220_1s", "ryzen_4650g"), combos=_SCHEDUTIL,
    bench="benchmarks/test_other_monosocket.py",
    expected_shape="configure speedups persist; NAS unchanged"))


def specs_for(
    exp: Experiment,
    seeds: Optional[Sequence[int]] = None,
    scale: Optional[float] = None,
    machines: Sequence[str] = (),
) -> List["RunSpec"]:
    """Expand a registry entry into the RunSpecs that regenerate it.

    With no overrides these are exactly the runs the entry's benchmark
    reads: every workload at its own scale and seeds, on every machine,
    under every combo (and every variant's Nest parameters), in that
    nesting order.  ``seeds``, ``scale`` and ``machines`` replace the
    entry's own for every workload.  Raises ``KeyError`` naming the entry
    when the catalogue cannot build one of its workloads.
    """
    from ..workloads.catalog import make_workload
    from .parallel import RunSpec

    for name in exp.workload_names:
        try:
            make_workload(name)
        except KeyError as exc:
            raise KeyError(f"{exp.id}: {exc.args[0]}") from None
    params = [p for _, p in exp.variants] or [None]
    return [RunSpec(workload=name, machine=machine, scheduler=scheduler,
                    governor=governor, seed=seed,
                    scale=group.scale if scale is None else scale,
                    nest_params=p)
            for machine in (tuple(machines) or exp.machines)
            for group in exp.workloads
            for name in group.names
            for p in params
            for scheduler, governor in exp.combos
            for seed in (group.seeds if seeds is None else seeds)]


def reference_spec(exp: Experiment, seed: Optional[int] = None,
                   scale: Optional[float] = None,
                   machine: Optional[str] = None) -> Optional["RunSpec"]:
    """The single representative run used to *trace* an experiment.

    The entry's first workload, at its scale and first seed, on its first
    machine (or ``machine``), preferring a Nest combo so the trace shows
    the nest mechanisms; ``None`` for a pure table entry.  The spec
    records the execution trace.
    """
    from .parallel import RunSpec

    if not exp.workloads:
        return None
    group = exp.workloads[0]
    combos = exp.combos or (("nest", "schedutil"),)
    scheduler, governor = next(
        (c for c in combos if c[0] == "nest"), combos[0])
    return RunSpec(workload=group.names[0],
                   machine=machine or exp.machines[0],
                   scheduler=scheduler, governor=governor,
                   seed=group.seeds[0] if seed is None else seed,
                   scale=group.scale if scale is None else scale,
                   record_trace=True)


def all_experiments() -> List[Experiment]:
    return list(EXPERIMENTS.values())


def get_experiment(exp_id: str) -> Experiment:
    try:
        return EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(f"unknown experiment {exp_id!r}; "
                       f"known: {sorted(EXPERIMENTS)}") from None
