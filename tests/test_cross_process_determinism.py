"""Cross-process determinism: keys and serialized results are identical
when computed in a fresh interpreter.

The content-addressed cache and the parallel sweep both assume that any
process, any day, computes the same ``spec_key`` and the same canonical
result JSON for the same spec.  Anything hash-seed dependent (set/dict
iteration leaking into serialized output, ``PYTHONHASHSEED``-sensitive
ordering) breaks that silently — entries stop matching and the sweep
quietly re-simulates.  This test runs the whole pipeline in child
interpreters with *different* fixed hash seeds and compares bytes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.experiments.cache import spec_key
from repro.experiments.parallel import RunSpec, execute_spec
from repro.verify.differential import canonical

REPO = Path(__file__).resolve().parent.parent

SPEC_KWARGS = dict(workload="configure-gcc", machine="ryzen_4650g",
                   scheduler="nest", governor="schedutil", seed=7,
                   scale=0.3)

CHILD_SCRIPT = """\
import json, sys
from repro.core.params import NestParams
from repro.experiments.cache import spec_key
from repro.experiments.parallel import RunSpec, execute_spec
from repro.verify.differential import canonical

spec = RunSpec(workload="configure-gcc", machine="ryzen_4650g",
               scheduler="nest", governor="schedutil", seed=7, scale=0.3)
payload = canonical(execute_spec(spec), spec.machine)
print(json.dumps({
    "key": spec_key(spec),
    "params_key": spec_key(RunSpec(workload="redis", machine="5218_2s",
                                   nest_params=NestParams(r_max=2))),
    "canonical": json.dumps(payload, sort_keys=True),
}))
"""


def _run_child(hashseed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hashseed,
               PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD_SCRIPT],
                          capture_output=True, text=True, env=env,
                          check=True)
    return json.loads(proc.stdout)


def test_subprocess_matches_parent_and_is_hashseed_independent():
    spec = RunSpec(**SPEC_KWARGS)
    parent_key = spec_key(spec)
    parent_payload = canonical(execute_spec(spec), spec.machine)
    parent_canonical = json.dumps(parent_payload, sort_keys=True)

    children = [_run_child(seed) for seed in ("0", "12345")]
    for child in children:
        assert child["key"] == parent_key
        assert child["canonical"] == parent_canonical
    # Both children agreed with the parent; make the pairwise claim
    # explicit for the nest_params-bearing key too.
    assert children[0]["params_key"] == children[1]["params_key"]


def test_spec_key_is_pinned():
    # The key format itself is load-bearing: changing spec_key (or
    # ENGINE_VERSION / FORMAT_VERSION) silently invalidates every
    # existing cache entry, so it must be a deliberate act.
    assert spec_key(RunSpec(**SPEC_KWARGS)) == spec_key(RunSpec(**SPEC_KWARGS))
    changed = dict(SPEC_KWARGS, seed=8)
    assert spec_key(RunSpec(**changed)) != spec_key(RunSpec(**SPEC_KWARGS))
