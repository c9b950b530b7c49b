"""One sha256 over many runs: the bit-identity check for engine speedups.

The goldens pin eight runs.  A speedup that claims to change nothing
should also leave a much wider sample unchanged, so this script hashes,
in order:

* scenarios ``0..N-1`` of ``ScenarioGenerator(seed)``, the fuzzer's
  stream (workloads, machines, policies, Nest parameter overrides,
  faults and horizon caps);
* one small configure run per shipped machine × registered policy,
  which reaches the machines and policies the fuzz pools leave out.

Each run contributes its canonical result image (metrics included, see
:func:`repro.verify.differential.canonical`), its full event log and,
for a run that crashed, the error text.  Run it on the parent tree and
on the change, and compare the printed lines::

    PYTHONPATH=src python tests/equivalence_digest.py --seed 1 --scenarios 300
    PYTHONPATH=src python tests/equivalence_digest.py --seed 2 --scenarios 150

Those two lines are also pinned in ``tests/data/equivalence_digests.json``
(``tests/golden_regen.py`` writes it, CI's golden-drift step compares it),
so a bit-identical change proves itself without a parent tree::

    PYTHONPATH=src:tests python tests/golden_regen.py --check \\
        tests/data/equivalence_digests.json

recomputes both and exits 1, printing each line that differs from the
file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Iterable, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.parallel import RunSpec  # noqa: E402
from repro.hw.machines import ALL_MACHINES  # noqa: E402
from repro.sched.registry import available_policies  # noqa: E402
from repro.verify.differential import canonical  # noqa: E402
from repro.verify.execute import run_scenario  # noqa: E402
from repro.verify.generate import ScenarioGenerator  # noqa: E402

#: The grid's workload: fork-heavy, like the paper's headline sweep.
GRID_WORKLOAD = "configure-llvm_ninja"
GRID_SCALE = 0.3
GRID_SEED = 1

#: The (seed, scenarios) corpora whose lines the golden pins.
PINNED = ((1, 300), (2, 150))
EQUIVALENCE_GOLDEN_PATH = (Path(__file__).resolve().parent / "data"
                           / "equivalence_digests.json")


def grid_specs(machines: Optional[Iterable[str]] = None,
               policies: Optional[Iterable[str]] = None) -> list:
    """One run per machine × policy (default: every shipped machine and
    every registered policy), in sorted order."""
    machines = sorted(ALL_MACHINES if machines is None else machines)
    policies = sorted(available_policies() if policies is None
                      else policies)
    return [RunSpec(workload=GRID_WORKLOAD, machine=m, scheduler=p,
                    seed=GRID_SEED, scale=GRID_SCALE)
            for m in machines for p in policies]


def _record(spec: RunSpec) -> bytes:
    art = run_scenario(spec)
    doc = {
        "spec": spec.to_dict(),
        "error": art.error,
        "result": (None if art.result is None
                   else canonical(art.result, spec.machine)),
        "events": [list(ev) for ev in art.events],
    }
    return json.dumps(doc, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def digest(seed: int, scenarios: int,
           machines: Optional[Iterable[str]] = None,
           policies: Optional[Iterable[str]] = None) -> str:
    """sha256 over the fuzz scenarios and the machine × policy grid."""
    gen = ScenarioGenerator(seed)
    specs = [gen.generate(i) for i in range(scenarios)]
    specs += grid_specs(machines, policies)
    h = hashlib.sha256()
    for spec in specs:
        h.update(_record(spec))
        h.update(b"\n")
    return h.hexdigest()


def line(seed: int, scenarios: int) -> str:
    """The printed line: the digest and the corpus it covers."""
    return (f"{digest(seed, scenarios)}  seed={seed} "
            f"scenarios={scenarios} grid={len(grid_specs())}")


def golden_json() -> str:
    """The pinned lines of :data:`PINNED`, as the golden file's text."""
    return json.dumps([line(seed, n) for seed, n in PINNED], indent=2) + "\n"


def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--seed", type=int, default=1,
                    help="ScenarioGenerator base seed (default 1)")
    ap.add_argument("--scenarios", type=int, default=300,
                    help="fuzz scenarios 0..N-1 to hash (default 300)")
    args = ap.parse_args(argv)
    print(line(args.seed, args.scenarios))
    return 0


if __name__ == "__main__":
    sys.exit(main())
