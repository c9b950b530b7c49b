"""Property tests for the scx_nest vtime queue and mask discipline.

The ISSUE-10 battery: FIFO-within-equal-vtime, bounded vtime lag (no
starvation), and mask-transition legality under random wake/sleep
sequences — all driven by hypothesis over the standalone
:class:`GlobalVtimeQueue` / :class:`NestMasks` state machines and over
both policies built on the masks (scx_nest and Nest) wired to a real
kernel.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.core.nest import NestPolicy
from repro.core.params import NestParams
from repro.governors.performance import PerformanceGovernor
from repro.hw.freqmodel import SPEED_SHIFT
from repro.hw.machines import Machine
from repro.hw.turbo import XEON_5218
from repro.hw.topology import Topology
from repro.kernel.scheduler_core import Kernel
from repro.kernel.syscalls import Compute
from repro.sched.nestcore import NestMasks
from repro.sched.scxnest import GlobalVtimeQueue, ScxNestPolicy
from repro.sim.engine import Engine
from repro.workloads.base import ms_of_work

MACHINE = Machine(name="t", cpu_model="t", microarchitecture="t",
                  topology=Topology(2, 2, 2), turbo=XEON_5218, pm=SPEED_SHIFT)
N_CPUS = MACHINE.topology.n_cpus


# ---------------------------------------------------------------------------
# GlobalVtimeQueue
# ---------------------------------------------------------------------------

@given(st.lists(st.integers(0, 9), min_size=1, max_size=40))
def test_fifo_within_equal_vtime(keys):
    """Keys pushed at identical vtime pop in exact push order."""
    q = GlobalVtimeQueue()
    for k in keys:
        q.push(k)          # nobody charged: every entry sits at vtime 0
    assert [q.pop()[0] for _ in range(len(keys))] == keys
    assert q.pop() is None


#: One queue operation: ("charge", key) advances a key's vtime by a
#: slice, ("push", key) enqueues it, ("pop",) dequeues the minimum.
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("charge"), st.integers(0, 5)),
        st.tuples(st.just("push"), st.integers(0, 5)),
        st.tuples(st.just("pop")),
    ),
    max_size=120)


@given(_OPS)
def test_bounded_lag_and_monotonic_clock(ops):
    """No starvation: every enqueue lands within ``max_lag_us`` of the
    queue clock regardless of interleaving, the clock never rewinds,
    and pops come out in nondecreasing (vtime, seq) order."""
    q = GlobalVtimeQueue()
    last_clock = 0
    for op in ops:
        if op[0] == "charge":
            q.charge(op[1])
        elif op[0] == "push":
            vt = q.push(op[1])
            assert q.vtime_now - vt <= q.max_lag_us
            assert vt <= q.vtime_now
        else:
            before = len(q)
            entry = q.pop()
            assert (entry is None) == (before == 0)
        assert q.vtime_now >= last_clock
        last_clock = q.vtime_now


@given(st.lists(st.tuples(st.integers(0, 5), st.booleans()), max_size=60))
def test_pop_order_is_nondecreasing_vtime(plan):
    """Drain order never goes backwards in virtual time, for any mix of
    charges and pushes."""
    q = GlobalVtimeQueue()
    vtime_at_push = {}
    seq = 0
    for key, do_charge in plan:
        if do_charge:
            q.charge(key)
        vt = q.push(key, payload=seq)
        vtime_at_push[seq] = vt
        seq += 1
    drained = []
    while True:
        entry = q.pop()
        if entry is None:
            break
        drained.append(vtime_at_push[entry[1]])
    assert drained == sorted(drained)


# ---------------------------------------------------------------------------
# NestMasks
# ---------------------------------------------------------------------------

_MASK_OPS = st.lists(
    st.tuples(st.sampled_from(("promote", "expand", "demote",
                               "admit", "evict")),
              st.integers(0, 7)),
    max_size=100)


@given(_MASK_OPS, st.integers(0, 4), st.booleans())
def test_mask_invariants_hold_under_any_op_sequence(ops, r_max, reserve_on):
    """Whatever sequence of transitions is attempted — legal ones
    applied, illegal ones raising — the §3.1 invariants always hold and
    an illegal transition never corrupts state."""
    m = NestMasks(r_max=r_max, reserve_enabled=reserve_on)
    for op, cpu in ops:
        before = (set(m.primary), set(m.reserve))
        try:
            if op == "promote":
                m.promote(cpu)
            elif op == "expand":
                m.expand(cpu)
            elif op == "demote":
                m.demote(cpu)
            elif op == "admit":
                m.admit_reserve(cpu)
            else:
                m.evict(cpu)
        except ValueError:
            assert (set(m.primary), set(m.reserve)) == before
        m.check()


@given(_MASK_OPS)
def test_illegal_transitions_always_raise(ops):
    """The specific illegality conditions are enforced exactly."""
    m = NestMasks(r_max=4)
    for op, cpu in ops:
        if op == "promote" and cpu not in m.reserve:
            with pytest.raises(ValueError):
                m.promote(cpu)
        elif op == "expand" and cpu in m.primary:
            with pytest.raises(ValueError):
                m.expand(cpu)
        elif op == "demote" and cpu not in m.primary:
            with pytest.raises(ValueError):
                m.demote(cpu)
        else:
            # Apply the legal version to keep exploring the state space.
            try:
                getattr(m, {"admit": "admit_reserve"}.get(op, op))(cpu)
            except ValueError:
                pass


# ---------------------------------------------------------------------------
# Full policy under random wake/sleep sequences
# ---------------------------------------------------------------------------

#: One simulated stimulus: fork a short task from a random cpu, occupy a
#: cpu with a hog, or report an exit-idle transition.
_POLICY_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("wake"), st.integers(0, N_CPUS - 1)),
        st.tuples(st.just("fork"), st.integers(0, N_CPUS - 1)),
        st.tuples(st.just("hog"), st.integers(0, N_CPUS - 1)),
        st.tuples(st.just("exit_idle"), st.integers(0, N_CPUS - 1)),
        st.tuples(st.just("run"), st.integers(1, 3)),
    ),
    max_size=40)


@pytest.mark.parametrize("policy_cls", [ScxNestPolicy, NestPolicy])
@settings(max_examples=25)
@given(_POLICY_OPS, st.integers(0, 3), st.integers(0, 3))
def test_policy_masks_stay_legal_under_random_sequences(policy_cls, ops,
                                                        r_max, r_impatient):
    """Random wake/sleep/exit sequences against a real kernel never
    break the mask invariants or the counter identities."""
    eng = Engine(0)
    policy = policy_cls(NestParams(r_max=r_max, r_impatient=r_impatient))
    kern = Kernel(eng, MACHINE, policy, PerformanceGovernor())
    tid = [0]

    def spawn(behaviour_us):
        def body(api):
            yield Compute(behaviour_us)
        tid[0] += 1
        return kern._new_task(body, f"t{tid[0]}", None)

    for op, arg in ops:
        if op == "wake":
            t = spawn(50)
            kern.enqueue(t, policy.select_cpu_wakeup(t, waker_cpu=arg))
        elif op == "fork":
            t = spawn(50)
            kern.enqueue(t, policy.select_cpu_fork(t, parent_cpu=arg))
        elif op == "hog":
            t = spawn(ms_of_work(5))
            kern.enqueue(t, arg)
        elif op == "exit_idle":
            policy.on_exit_idle(arg)
        else:
            eng.run(until=eng.now + arg * 1_000)
        policy._masks.check()
        policy.check_invariants()
    eng.run()
    policy._masks.check()
    policy.check_invariants()
