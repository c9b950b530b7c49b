"""Bit-identity guard: digests of pinned reference runs.

Each case runs one simulation with the event log attached and records,
in ``tests/data/golden_digests.json``, its makespan, processed-event
count and ``repr`` of the energy in clear, plus sha256 digests of the
canonical result image (:func:`repro.verify.differential.canonical`)
and of the event-log records.  A change that alters what a simulation
computes changes a digest; a speedup or refactor must leave the file
untouched.  Regenerate deliberately with
``PYTHONPATH=src:tests python tests/golden_regen.py``, then review the
diff.  Bump ``ENGINE_VERSION`` in the same step when a cached result
changes; a change to what the event log records alone does not need
it, since no cached result carries a log.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.params import NestParams
from repro.experiments.runner import run_experiment
from repro.faults.plan import FaultConfig
from repro.hw.machines import get_machine
from repro.verify.differential import canonical
from repro.workloads.catalog import make_workload

DIGEST_GOLDEN_PATH = Path(__file__).parent / "data" / "golden_digests.json"

# (label, workload, machine, scheduler, governor, seed, scale, faults
#  [, nest_params])
CASES = (
    ("fig2-cfs", "configure-llvm_ninja", "5218_2s", "cfs", "schedutil",
     1, 0.3, None),
    ("fig2-nest", "configure-llvm_ninja", "5218_2s", "nest", "schedutil",
     1, 0.3, None),
    ("configure", "configure-gcc", "6130_2s", "nest", "performance",
     2, 0.3, None),
    ("nas", "nas-bt", "6130_2s", "cfs", "performance", 4, 0.3, None),
    ("smove", "hackbench", "5218_2s", "smove", "schedutil", 5, 0.1, None),
    ("faulted", "configure-gcc", "6130_2s", "nest", "schedutil", 7, 0.3,
     FaultConfig(hotplug_rate_per_s=2.0, thermal_rate_per_s=2.0,
                 tick_jitter_us=40, straggler_rate_per_s=1.0)),
    ("ftrt-corefail", "deadline-periodic", "ryzen_4650g", "ftrt",
     "schedutil", 2, 1.0,
     FaultConfig(core_failure_rate_per_s=60.0, core_failure_burst=3,
                 core_failure_downtime_us=10_000, horizon_us=100_000)),
    ("scxnest", "dacapo-h2", "ryzen_4650g", "scxnest", "schedutil",
     3, 0.1, None),
    # The one SpeedStep part, on four sockets: CFS's fork walk sums loads
    # over three rival groups, and the meter prices cores it has not yet
    # seen a frequency for.
    ("speedstep-4s", "hackbench", "e78870_4s", "cfs", "schedutil",
     1, 0.1, None),
    # A half-tick P_remove makes Nest's primary scan demote stale cores as
    # it passes them (nest.compact), which the default-parameter runs
    # above almost never do.
    ("nest-compact", "schbench", "5218_2s", "nest", "schedutil",
     1, 1.0, None, NestParams(p_remove_ticks=0.5)),
)


def _sha256(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def case_digest(workload, machine_key, scheduler, governor, seed, scale,
                faults, nest_params=None) -> dict:
    """The golden record of one pinned run."""
    res = run_experiment(
        make_workload(workload, scale=scale), get_machine(machine_key),
        scheduler, governor, seed=seed, nest_params=nest_params,
        faults=faults, collect_events=True)
    return {
        "makespan_us": res.makespan_us,
        "events_processed": res.events_processed,
        "energy_joules": repr(res.energy_joules),
        "result_sha256": _sha256(canonical(res, machine_key)),
        "events_sha256": _sha256([list(ev) for ev in res.events]),
    }


def golden_digests() -> dict:
    """Every case's record, keyed by label."""
    return {label: case_digest(*args) for label, *args in CASES}


def digests_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("label,args", [(c[0], c[1:]) for c in CASES],
                         ids=[c[0] for c in CASES])
def test_run_matches_golden_digest(label, args):
    golden = json.loads(DIGEST_GOLDEN_PATH.read_text(encoding="utf-8"))
    assert case_digest(*args) == golden[label]
