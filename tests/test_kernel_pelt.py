"""Tests for PELT load tracking."""

import gc
import math
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from repro.experiments.parallel import RunSpec, execute_spec
from repro.governors import schedutil
from repro.governors.schedutil import HEADROOM, SchedutilGovernor
from repro.kernel import pelt, runqueue
from repro.kernel.pelt import (HALFLIFE_US, LN_Y, PELT_MAX, PeltAvg,
                               decay_factor)
from repro.kernel.runqueue import RunQueue
from test_kernel_core import TINY, make_kernel


class TestDecayFactor:
    def test_halflife(self):
        assert decay_factor(HALFLIFE_US) == pytest.approx(0.5)

    def test_zero_delta(self):
        assert decay_factor(0) == 1.0

    def test_two_halflives(self):
        assert decay_factor(2 * HALFLIFE_US) == pytest.approx(0.25)

    def test_composition(self):
        assert decay_factor(10_000) * decay_factor(22_000) == \
            pytest.approx(decay_factor(32_000))

    def test_exponent_is_the_negated_rate(self):
        # Negation is exact, so exp(LN_Y * d) is exp(-(ln 2 / HL) * d).
        rate = math.log(2.0) / HALFLIFE_US
        assert LN_Y == -rate
        assert decay_factor(12_345) == math.exp(-rate * 12_345)


class TestPeltAvg:
    def test_running_converges_to_max(self):
        avg = PeltAvg(0)
        avg.update(20 * HALFLIFE_US, running=True)
        assert avg.value == pytest.approx(PELT_MAX, rel=1e-4)

    def test_idle_decays_to_zero(self):
        avg = PeltAvg(0, value=PELT_MAX)
        avg.update(20 * HALFLIFE_US, running=False)
        assert avg.value < 1.0

    def test_halflife_semantics(self):
        avg = PeltAvg(0, value=800.0)
        avg.update(HALFLIFE_US, running=False)
        assert avg.value == pytest.approx(400.0)

    def test_running_one_halflife_gains_half_the_gap(self):
        avg = PeltAvg(0, value=0.0)
        avg.update(HALFLIFE_US, running=True)
        assert avg.value == pytest.approx(PELT_MAX / 2)

    def test_incremental_equals_batch(self):
        a = PeltAvg(0, value=300.0)
        b = PeltAvg(0, value=300.0)
        for t in (1_000, 5_000, 12_000, 30_000):
            a.update(t, running=True)
        b.update(30_000, running=True)
        assert a.value == pytest.approx(b.value)

    def test_peek_does_not_mutate(self):
        avg = PeltAvg(0, value=500.0)
        peeked = avg.peek(HALFLIFE_US, running=False)
        assert peeked == pytest.approx(250.0)
        assert avg.value == 500.0
        assert avg.last_update_us == 0

    def test_peek_running(self):
        avg = PeltAvg(0, value=0.0)
        assert avg.peek(HALFLIFE_US, running=True) == \
            pytest.approx(PELT_MAX / 2)

    def test_add_caps_at_max(self):
        avg = PeltAvg(0, value=1000.0)
        avg.add(500.0)
        assert avg.value == PELT_MAX

    def test_remove_floors_at_zero(self):
        avg = PeltAvg(0, value=100.0)
        avg.remove(500.0)
        assert avg.value == 0.0

    def test_stale_update_noop(self):
        avg = PeltAvg(100, value=500.0)
        avg.update(50, running=True)
        assert avg.value == 500.0


@given(st.floats(0, PELT_MAX), st.lists(
    st.tuples(st.integers(1, 50_000), st.booleans()), min_size=1,
    max_size=30))
def test_bounds_invariant(initial, steps):
    """Property: the average always stays in [0, PELT_MAX]."""
    avg = PeltAvg(0, value=initial)
    t = 0
    for delta, running in steps:
        t += delta
        avg.update(t, running)
        assert 0.0 <= avg.value <= PELT_MAX


@given(st.integers(1, 100_000), st.integers(1, 100_000))
def test_idle_decay_is_multiplicative(d1, d2):
    """Property: decaying in two steps equals decaying once."""
    a = PeltAvg(0, value=900.0)
    a.update(d1, False)
    a.update(d1 + d2, False)
    b = PeltAvg(0, value=900.0)
    b.update(d1 + d2, False)
    assert a.value == pytest.approx(b.value, rel=1e-9)


def reference_decay(value, delta, running):
    """``value`` advanced by ``delta`` µs, built on :func:`decay_factor`."""
    y = decay_factor(delta)
    if running:
        return value * y + PELT_MAX * (1.0 - y)
    return value * y


@given(st.integers(1, 10**8), st.floats(0, PELT_MAX), st.floats(0, PELT_MAX),
       st.booleans())
def test_inlined_decay_equals_decay_factor(delta, value, blocked, running):
    """Property: every site that inlines the decay computes exactly
    (``==``) what :func:`decay_factor` gives."""
    expect = reference_decay(value, delta, running)

    avg = PeltAvg(0, value=value)
    assert avg.peek(delta, running) == expect
    assert avg.update(delta, running) == expect

    rq = RunQueue(0)
    rq.busy_avg.value = value
    rq.blocked_load.value = blocked
    rq.currently_busy = running
    assert rq.load_avg(delta) == \
        expect + reference_decay(blocked, delta, False)

    eng, kern = make_kernel(governor=SchedutilGovernor())
    eng.now = delta
    rq = kern.rqs[0]
    rq.busy_avg.value = value
    rq.currently_busy = running
    mhz = int(HEADROOM * TINY.max_turbo_mhz * expect / PELT_MAX)
    assert kern.governor.request_mhz(0) == \
        min(max(mhz, TINY.min_mhz), TINY.max_turbo_mhz)


def test_decay_retains_no_memory_across_runs():
    """The decay keeps nothing between runs: after four configure runs,
    the modules that compute it hold under 16 KiB of live allocations."""
    modules = (pelt, runqueue, schedutil)
    tracemalloc.start()
    try:
        for seed in (1, 2, 3, 4):
            execute_spec(RunSpec(workload="configure-llvm_ninja",
                                 machine="5218_2s", scheduler="cfs",
                                 governor="schedutil", seed=seed, scale=0.3))
        # A full collection frees the runs' reference cycles and empties
        # the builtin free lists, so every trace left is a live object.
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    snapshot = snapshot.filter_traces(
        [tracemalloc.Filter(True, m.__file__) for m in modules])
    retained = {stat.traceback[0].filename: stat.size
                for stat in snapshot.statistics("filename")}
    assert sum(retained.values()) < 16 * 1024, retained
