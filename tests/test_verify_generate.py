"""Generator layer: seeded, order-independent, JSON-round-trippable."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.params import NestParams
from repro.experiments.parallel import RunSpec
from repro.faults.plan import FaultConfig
from repro.hw.machines import ALL_MACHINES
from repro.verify.generate import (ABLATABLE_FEATURES, MACHINE_POOL,
                                   SCHEDULER_POOL, WORKLOAD_POOL,
                                   ScenarioGenerator)
from repro.workloads.catalog import workload_names

REPRO_DIR = Path(__file__).parent / "repros"

#: The fields a generated scenario draws (a RunSpec's other fields keep
#: their defaults).
DRAWN_KEYS = ("workload", "machine", "scheduler", "governor", "seed",
              "scale", "nest_params", "faults", "max_us")

#: sha256 of the seed-1 corpus (scenarios 0-299, drawn fields only) as
#: compact sorted-key JSON.  Any change to a pool, a draw or its order
#: moves it, and with it every fuzz verdict and repro origin.
SEED1_CORPUS_SHA256 = \
    "607f5d13b4b993c1c3daca99d9bbb3958f363c6465f092af6d828d29c9d381e6"


def test_same_seed_same_scenarios():
    a = ScenarioGenerator(7)
    b = ScenarioGenerator(7)
    assert [a.generate(i) for i in range(50)] == \
           [b.generate(i) for i in range(50)]


def test_different_seeds_diverge():
    a = [ScenarioGenerator(1).generate(i) for i in range(20)]
    b = [ScenarioGenerator(2).generate(i) for i in range(20)]
    assert a != b


def test_generation_is_order_independent():
    gen = ScenarioGenerator(3)
    forward = [gen.generate(i) for i in range(30)]
    backward = [gen.generate(i) for i in reversed(range(30))]
    assert forward == list(reversed(backward))
    # A fresh generator jumping straight to one index agrees too.
    assert ScenarioGenerator(3).generate(17) == forward[17]


def test_pools_reference_real_catalogue_entries():
    known = set(workload_names())
    for name, scales in WORKLOAD_POOL:
        assert name in known
        assert scales
    for key in MACHINE_POOL:
        assert key in ALL_MACHINES
    for feature in ABLATABLE_FEATURES:
        NestParams().without(feature)   # raises on unknown features


def test_generator_covers_the_interesting_space():
    gen = ScenarioGenerator(1)
    scenarios = [gen.generate(i) for i in range(200)]
    schedulers = {s.scheduler for s in scenarios}
    assert schedulers == set(SCHEDULER_POOL)
    assert any(s.nest_params is not None for s in scenarios)
    assert any(s.faults is not None for s in scenarios)
    assert any(s.max_us is not None for s in scenarios)
    assert len({s.workload for s in scenarios}) == len(WORKLOAD_POOL)


def test_seed1_corpus_is_pinned():
    gen = ScenarioGenerator(1)
    corpus = [{k: v for k, v in gen.generate(i).to_dict().items()
               if k in DRAWN_KEYS} for i in range(300)]
    text = json.dumps(corpus, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == SEED1_CORPUS_SHA256


def test_scenario_json_roundtrip():
    gen = ScenarioGenerator(11)
    scenarios = [gen.generate(i) for i in range(40)]
    # Repro files written before kernel_config and record_trace were
    # spec fields lack both keys; they must still load.
    scenarios += [RunSpec.from_dict(json.loads(p.read_text())["scenario"])
                  for p in sorted(REPRO_DIR.glob("*.json"))]
    assert len(scenarios) > 40
    for sc in scenarios:
        cycled = RunSpec.from_dict(json.loads(json.dumps(sc.to_dict())))
        assert cycled == sc
        assert hash(cycled) == hash(sc)


def test_scenario_object_views():
    params = NestParams(r_max=2, r_impatient=1)
    faults = FaultConfig(hotplug_rate_per_s=25.0)
    sc = RunSpec(workload="configure-gcc", machine="ryzen_4650g",
                 scheduler="nest", governor="schedutil", seed=5,
                 nest_params=params, faults=faults, max_us=9_000)
    back = RunSpec.from_dict(json.loads(json.dumps(sc.to_dict())))
    assert back.nest_params == params
    assert back.faults == faults
    assert sc.label == ("configure-gcc@1.0/ryzen_4650g/nest-schedutil/s5 "
                        "[params,faults,cap9000]")
    clean = RunSpec(workload="redis", machine="5218_2s", scheduler="cfs",
                    governor="performance", seed=1)
    assert RunSpec.from_dict(clean.to_dict()).nest_params is None
    assert RunSpec.from_dict(clean.to_dict()).faults is None
    assert "[" not in clean.label


def test_generated_fault_configs_are_enabled():
    gen = ScenarioGenerator(1)
    faulted = [s for i in range(300) if (s := gen.generate(i)).faults]
    assert faulted
    for sc in faulted:
        assert sc.faults.enabled


def test_scenario_strategy_needs_hypothesis():
    pytest.importorskip("hypothesis")
    from repro.verify.generate import scenario_strategy
    strategy = scenario_strategy(base_seed=1)
    from hypothesis import given, settings

    seen = []

    @settings(max_examples=20, deadline=None)
    @given(strategy)
    def probe(scenario):
        seen.append(scenario)
        assert isinstance(scenario, RunSpec)

    probe()
    assert seen
