"""The committed bit-identity check (tests/equivalence_digest.py)."""

import equivalence_digest

SMALL = dict(scenarios=3, machines=("e78870_4s",), policies=("cfs", "nest"))


def test_a_small_digest_repeats():
    first = equivalence_digest.digest(seed=1, **SMALL)
    assert len(first) == 64
    assert equivalence_digest.digest(seed=1, **SMALL) == first


def test_the_digest_reads_the_runs():
    assert equivalence_digest.digest(seed=1, **SMALL) != \
        equivalence_digest.digest(seed=2, **SMALL)


def test_the_grid_covers_every_machine_and_policy():
    from repro.hw.machines import ALL_MACHINES
    from repro.sched.registry import available_policies
    specs = equivalence_digest.grid_specs()
    assert {(s.machine, s.scheduler) for s in specs} == {
        (m, p) for m in ALL_MACHINES for p in available_policies()}
