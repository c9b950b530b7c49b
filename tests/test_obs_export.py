"""Exporter tests, including the golden Perfetto trace of a pinned run.

The golden scenario is hand-built (no workload RNG): a deterministic task
mix on a tiny machine under Nest-schedutil.  Its Chrome trace JSON is
pinned byte-for-byte in ``tests/data/golden_trace.json`` — regenerate with
``PYTHONPATH=src:tests python -m golden_regen`` (see tests/golden_regen.py)
after an intentional simulator or exporter change.
"""

import json
from pathlib import Path

from repro.core.nest import NestPolicy
from repro.governors.schedutil import SchedutilGovernor
from repro.hw.energy import PowerParams
from repro.hw.freqmodel import SPEED_SHIFT
from repro.hw.machines import Machine
from repro.hw.topology import Topology
from repro.hw.turbo import XEON_5218
from repro.kernel.scheduler_core import Kernel
from repro.kernel.syscalls import Compute, Fork, Sleep, WaitChildren
from repro.obs.events import (NEST_TRANSITION_KINDS, SPIN_START, SchedEvent)
from repro.obs.export import (PID_CORES, PID_FREQ, PID_NEST, chrome_trace,
                              validate_chrome_trace)
from repro.sim.engine import Engine
from repro.sim.trace import Tracer
from repro.workloads.base import us_of_work

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_trace.json"

MACHINE = Machine(
    name="tiny6", cpu_model="Test CPU", microarchitecture="Test",
    topology=Topology(1, 3, 2), turbo=XEON_5218, pm=SPEED_SHIFT,
    power=PowerParams())


def golden_run():
    """The pinned deterministic scenario: returns (segments, events)."""
    engine = Engine(seed=1)
    events = engine.obs.attach_memory()
    tracer = Tracer(MACHINE.n_cpus, record_segments=True)
    kernel = Kernel(engine, MACHINE, NestPolicy(), SchedutilGovernor(),
                    tracer=tracer)

    def worker(api):
        yield Compute(us_of_work(400))
        yield Sleep(300)
        yield Compute(us_of_work(250))

    def parent(api):
        for _ in range(3):
            yield Fork(worker)
            yield Compute(us_of_work(150))
        yield WaitChildren()
        yield Compute(us_of_work(200))

    kernel.spawn(parent, "parent")
    kernel.run_until_idle()
    return tracer.segments, events


def golden_doc():
    segments, events = golden_run()
    return chrome_trace(segments, events, n_cpus=MACHINE.n_cpus,
                        label="golden")


def golden_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class TestGoldenTrace:
    def test_matches_golden_file(self):
        """The run's exported trace is byte-identical to the pinned one."""
        assert GOLDEN_PATH.is_file(), \
            f"golden file missing; regenerate via tests/golden_regen.py"
        assert golden_json(golden_doc()) == \
            GOLDEN_PATH.read_text(encoding="utf-8").rstrip("\n")

    def test_golden_is_schema_valid(self):
        assert validate_chrome_trace(golden_doc()) == []
        assert validate_chrome_trace(
            json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))) == []

    def test_per_core_tracks_present(self):
        doc = golden_doc()
        names = {(ev["pid"], ev["args"]["name"])
                 for ev in doc["traceEvents"]
                 if ev["ph"] == "M" and ev["name"] == "thread_name"}
        for cpu in range(MACHINE.n_cpus):
            assert (PID_CORES, f"cpu {cpu}") in names

    def test_nest_transition_instants_present(self):
        instants = [ev for ev in golden_doc()["traceEvents"]
                    if ev["ph"] == "i"]
        assert instants, "expected nest-transition instant events"
        assert {ev["name"] for ev in instants} <= NEST_TRANSITION_KINDS
        assert all(ev["s"] == "t" for ev in instants)

    def test_counter_tracks_present(self):
        doc = golden_doc()
        pids = {ev["pid"] for ev in doc["traceEvents"] if ev["ph"] == "C"}
        assert PID_FREQ in pids and PID_NEST in pids

    def test_segments_become_complete_events(self):
        segments, events = golden_run()
        xs = [ev for ev in chrome_trace(segments, events)["traceEvents"]
              if ev["ph"] == "X"]
        assert len(xs) == len(segments)
        assert all(ev["dur"] >= 0 for ev in xs)


class TestChromeTrace:
    def test_infers_n_cpus_when_omitted(self):
        events = [SchedEvent(1, SPIN_START, cpu=5)]
        doc = chrome_trace([], events)
        names = {ev["args"]["name"] for ev in doc["traceEvents"]
                 if ev["ph"] == "M" and ev["name"] == "thread_name"}
        assert "cpu 5" in names

    def test_empty_trace_still_valid(self):
        assert validate_chrome_trace(chrome_trace([], [])) == []


class TestValidateChromeTrace:
    def test_rejects_non_document(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"events": []}) != []

    def test_rejects_unknown_phase(self):
        doc = {"traceEvents": [{"ph": "Q", "pid": 0, "tid": 0, "name": "x"}]}
        assert any("phase" in p for p in validate_chrome_trace(doc))

    def test_rejects_negative_duration(self):
        doc = {"traceEvents": [{"ph": "X", "pid": 0, "tid": 0, "name": "x",
                                "ts": 1, "dur": -4}]}
        assert any("dur" in p for p in validate_chrome_trace(doc))

    def test_rejects_unknown_instant_kind(self):
        doc = {"traceEvents": [{"ph": "i", "pid": 0, "tid": 0, "ts": 0,
                                "name": "nest.teleport", "s": "t"}]}
        assert any("unknown instant" in p for p in validate_chrome_trace(doc))

    def test_rejects_non_numeric_counter_args(self):
        doc = {"traceEvents": [{"ph": "C", "pid": 0, "tid": 0, "ts": 0,
                                "name": "c", "args": {"v": "high"}}]}
        assert any("numeric" in p for p in validate_chrome_trace(doc))

    def test_rejects_missing_ts(self):
        doc = {"traceEvents": [{"ph": "X", "pid": 0, "tid": 0, "name": "x",
                                "dur": 1}]}
        assert any("ts" in p for p in validate_chrome_trace(doc))
