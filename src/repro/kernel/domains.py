"""Linux-style scheduling domains built from the machine topology.

Each CPU is associated with a stack of domains, lowest to highest:

* **SMT** — the hardware threads of its physical core (only on SMT2 machines);
* **MC** (the paper's "die") — every CPU sharing the last-level cache, i.e.
  the socket on all modelled machines;
* **NUMA** — every CPU in the machine (only on multi-socket machines).

Each domain has *groups*: one per child-domain unit.  The CFS fork path walks
down from the highest domain, picking the idlest group at each level (§2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

from ..hw.topology import Topology


@dataclass(frozen=True)
class Domain:
    """One scheduling domain seen from a particular CPU."""

    name: str                      # "SMT", "MC" or "NUMA"
    level: int                     # 0 = lowest
    span: Tuple[int, ...]          # all CPUs in the domain
    groups: Tuple[Tuple[int, ...], ...]  # partition of span


class DomainHierarchy:
    """Per-CPU domain stacks for one machine (read-only once built)."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._per_cpu: Dict[int, Tuple[Domain, ...]] = {}
        self._build()

    def _build(self) -> None:
        topo = self.topology
        socket_spans = {s: tuple(sorted(topo.cpus_in_socket(s)))
                        for s in topo.sockets()}
        machine_span = tuple(range(topo.n_cpus))

        for cpu in range(topo.n_cpus):
            stack: List[Domain] = []
            level = 0

            if topo.smt == 2:
                smt_span = tuple(sorted(topo.smt_siblings(cpu)))
                stack.append(Domain(
                    name="SMT", level=level, span=smt_span,
                    groups=tuple((c,) for c in smt_span)))
                level += 1

            socket = topo.socket_of(cpu)
            mc_span = socket_spans[socket]
            if topo.smt == 2:
                mc_groups = tuple(
                    tuple(sorted(topo.smt_siblings(c)))
                    for c in mc_span if topo.thread_of(c) == 0)
            else:
                mc_groups = tuple((c,) for c in mc_span)
            stack.append(Domain(
                name="MC", level=level, span=mc_span, groups=mc_groups))
            level += 1

            if topo.n_sockets > 1:
                numa_groups = tuple(socket_spans[s] for s in topo.sockets())
                stack.append(Domain(
                    name="NUMA", level=level, span=machine_span,
                    groups=numa_groups))

            self._per_cpu[cpu] = tuple(stack)

    def domains_of(self, cpu: int) -> Tuple[Domain, ...]:
        """Domain stack for ``cpu``, lowest level first."""
        return self._per_cpu[cpu]

    def llc_domain(self, cpu: int) -> Domain:
        """The die-level (last-level-cache) domain of ``cpu``."""
        for dom in self._per_cpu[cpu]:
            if dom.name == "MC":
                return dom
        raise RuntimeError("no MC domain")  # pragma: no cover

    def die_span(self, cpu: int) -> Tuple[int, ...]:
        return self.llc_domain(cpu).span


@lru_cache(maxsize=64)
def domain_hierarchy(topology: Topology) -> DomainHierarchy:
    """The hierarchy of ``topology``, built once and shared by every kernel.

    Sharing is safe: ``Topology`` is frozen and hashable, and the
    hierarchy is only ever read.
    """
    return DomainHierarchy(topology)
