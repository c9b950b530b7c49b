"""Canonical workload catalogue: build any named workload from a string.

The catalogue is the bridge between human-readable workload names (used by
the CLI, the experiment registry and the result cache) and workload
objects.  Crucially it makes sweep specs *picklable*: a parallel worker
process receives only ``(name, scale)`` and reconstructs the workload
here, instead of shipping a live object across the process boundary.

Besides the named suites, a few forms carry parameters in the name:

* ``hackbench-g<G>[-p<P>-l<L>]`` — G groups of P pairs, L loops each;
* ``schbench-m<M>w<W>-r<R>`` — M message threads of W workers, R
  requests per message thread;
* ``phoronix-pop<S>-<I>`` — element I of ``suite_population(n, seed=S)``;
* ``multi:<A>+<B>...`` — the named workloads running together, each at
  the spec's scale.

A catalogue name need not equal the built workload's ``.name``
(``hackbench`` builds ``hackbench-g8``); results carry the latter.
"""

from __future__ import annotations

import re
from typing import List

from .base import Workload
from .configure import ConfigureWorkload, configure_names
from .dacapo import DacapoWorkload, dacapo_names
from .deadline import DeadlineWorkload, deadline_names
from .messaging import HackbenchWorkload, SchbenchWorkload
from .multiapp import MultiAppWorkload
from .nas import NasWorkload, nas_names
from .phoronix import PhoronixWorkload, fig13_names, suite_member
from .servers import apache_siege, leveldb, nginx, redis

_HACKBENCH = re.compile(r"hackbench-g(\d+)(?:-p(\d+)-l(\d+))?")
_SCHBENCH = re.compile(r"schbench-m(\d+)w(\d+)-r(\d+)")
_POPULATION = re.compile(r"phoronix-pop(\d+)-(\d+)")


def make_workload(name: str, scale: float = 1.0) -> Workload:
    """Build a workload from its canonical name (see ``list``)."""
    if name.startswith("configure-"):
        return ConfigureWorkload(name.removeprefix("configure-"), scale=scale)
    if name.startswith("dacapo-"):
        return DacapoWorkload(name.removeprefix("dacapo-"), scale=scale)
    if name.startswith("nas-"):
        kern = name.removeprefix("nas-").removesuffix(".C")
        return NasWorkload(kern, scale=scale)
    if name.startswith("phoronix-"):
        m = _POPULATION.fullmatch(name)
        if m:
            return suite_member(int(m[2]), seed=int(m[1]), scale=scale)
        return PhoronixWorkload(name.removeprefix("phoronix-"), scale=scale)
    if name.startswith("multi:"):
        parts = name.removeprefix("multi:").split("+")
        return MultiAppWorkload([make_workload(p, scale) for p in parts])
    if name == "hackbench":
        return HackbenchWorkload()
    m = _HACKBENCH.fullmatch(name)
    if m:
        extra = ({} if m[2] is None
                 else {"pairs_per_group": int(m[2]), "loops": int(m[3])})
        return HackbenchWorkload(groups=int(m[1]), **extra)
    if name == "schbench":
        return SchbenchWorkload()
    m = _SCHBENCH.fullmatch(name)
    if m:
        return SchbenchWorkload(message_threads=int(m[1]),
                                workers_per_thread=int(m[2]),
                                requests=int(m[3]))
    if name == "deadline-periodic":
        return DeadlineWorkload(scale=scale)
    if name == "deadline-sporadic":
        return DeadlineWorkload(sporadic=True, scale=scale)
    if name.startswith("apache-siege-c"):
        try:
            return apache_siege(int(name.removeprefix("apache-siege-c")))
        except ValueError:
            raise KeyError(f"unknown workload {name!r}; try 'list'") from None
    simple = {"nginx": nginx, "leveldb": leveldb, "redis": redis}
    if name in simple:
        return simple[name]()
    raise KeyError(f"unknown workload {name!r}; try 'list'")


def workload_names() -> List[str]:
    out = [f"configure-{n}" for n in configure_names()]
    out += [f"dacapo-{n}" for n in dacapo_names()]
    out += [f"nas-{n}" for n in nas_names()]
    out += [f"phoronix-{n}" for n in fig13_names()]
    out += deadline_names()
    out += ["hackbench", "nginx", "leveldb", "redis"]
    return out
