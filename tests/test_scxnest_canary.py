"""Mutation canaries for the scx_nest comparator (ISSUE-10 satellite).

Same discipline as tests/test_verify_canary.py: each canary
monkeypatches a real scx_nest branch into a subtly wrong one — a bug a
refactor could plausibly introduce — runs the real simulator, and
asserts the *external* oracle convicts it.  Both mutants survive
``ScxNestPolicy.check_invariants`` (counters stay consistent, the masks
stay disjoint), so the conviction proves that the policy families the
oracle applies to scx_nest (the shared ``nest.primary_replay`` and the
scxnest.* checks) have teeth of their own.
"""

from unittest import mock

from repro.experiments.parallel import RunSpec
from repro.obs import events as oev
from repro.sched.nestcore import NestMasks
from repro.sched.scxnest import ScxNestPolicy
from repro.verify import check_run, run_scenario

#: dacapo-h2 on the small box compacts and promotes continually (see
#: tests/test_scxnest.py's end-to-end counters), so both mutated
#: branches are guaranteed to execute.
CANARY_SCENARIO = RunSpec(
    workload="dacapo-h2", machine="ryzen_4650g", scheduler="scxnest",
    governor="schedutil", seed=3, scale=0.1)


def _convict(scenario=CANARY_SCENARIO):
    art = run_scenario(scenario)
    # The mutants must get past the policy's own self-check: a run that
    # died inside check_invariants would prove nothing about the oracle.
    assert art.error is None, art.error
    return {v.invariant for v in check_run(art)}


def test_unmutated_baseline_is_clean():
    assert _convict() == set()


def test_oracle_catches_silent_compaction():
    # Mutation: the compaction timer demotes the core and bumps the
    # counter but forgets to emit NEST_COMPACT — the event stream no
    # longer tells the truth about the mask.
    real = ScxNestPolicy._compaction_fired

    def silent(self, cpu, gen):
        obs = self._obs

        class _Gag:
            enabled = False

        self._obs = _Gag()
        try:
            real(self, cpu, gen)
        finally:
            self._obs = obs

    with mock.patch.object(ScxNestPolicy, "_compaction_fired", silent):
        names = _convict()
    assert names & {"scxnest.event_counter_match", "nest.primary_replay"}, \
        names


def test_oracle_catches_promotion_that_never_happens():
    # Mutation: the reserve-hit branch emits NEST_PROMOTE and counts
    # the hit, but the mask transition itself is dropped — the core
    # silently stays in the reserve.
    with mock.patch.object(NestMasks, "promote",
                           lambda self, cpu: None):
        names = _convict()
    assert "nest.primary_replay" in names, names


def test_mutants_do_not_trip_the_generic_families():
    # The convictions above must come from the policy families —
    # accounting stays internally consistent, so a suite without the
    # replay/event invariants would wave both mutants through.
    with mock.patch.object(NestMasks, "promote",
                           lambda self, cpu: None):
        names = _convict()
    assert all(n.startswith("scxnest.") or n == "nest.primary_replay"
               for n in names), names
