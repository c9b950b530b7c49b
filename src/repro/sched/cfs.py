"""Model of CFS core selection (Linux v5.9 ``select_task_rq_fair``).

Implements the behaviour the paper describes in §2.1:

**Fork** walks the scheduling domains from the highest level down.  At each
level it picks the least-loaded group — most idle cpus first, then lowest
recent load — and then the least-loaded cpu inside that group, scanning in
numerical order modulo the group size, starting from the forking cpu.
Because *recent load* (PELT) is part of the choice, an idle core that ran a
task a moment ago loses to a long-idle core: this is the anti-reuse bias
that Nest removes.

**Wakeup** picks a target (the task's previous cpu or the waker's), then
searches the target's die only: first for a physical core whose hyperthreads
are both idle, then a bounded linear scan for any idle cpu, then the
target's hyperthread, and finally settles on the target itself.  The scan is
in numerical order, so recently-used idle cores can be overlooked; recent
load is *not* consulted.  Wakeup is not work conserving: other dies are
never examined (Nest's fallback extends this, §3.4).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

from ..kernel.task import Task
from .base import SelectionPolicy

#: Upper bound on the wakeup path's linear scan for an idle cpu ("it only
#: makes a limited effort to find an idle core on that die", §2.1).
WAKEUP_SCAN_LIMIT = 8

#: Load quantum for comparisons: loads within one bucket are considered
#: equal (PELT noise), letting the numerical-order tiebreak decide — this is
#: how "the recent load's influence times out" (§5.2) and CFS returns to the
#: cores near the forking one.
LOAD_EPSILON = 32.0


class CfsPolicy(SelectionPolicy):
    """Linux CFS placement (the paper's baseline)."""

    selection_cost_us = 1

    def __init__(self, check_pending_default: bool = False) -> None:
        super().__init__()
        #: When used as Nest's fallback, the §3.4 placement flag applies to
        #: the fork path too; stock CFS leaves this off.
        self.check_pending_default = check_pending_default

    # ------------------------------------------------------------------
    # Fork path
    # ------------------------------------------------------------------

    def select_cpu_fork(self, task: Task, parent_cpu: int) -> int:
        kernel = self.kernel
        cpu = parent_cpu
        stack = kernel.domains.domains_of(cpu)
        # The walk reads a cpu's load once per domain level and changes
        # nothing, so loads are memoised (cpu -> load) for this placement.
        loads: Dict[int, float] = {}
        # Walk from the highest domain down to the lowest.
        for level in range(len(stack) - 1, -1, -1):
            dom = stack[level]
            group = self._find_idlest_group(dom.groups, cpu, loads)
            cpu = self._find_idlest_cpu(group, parent_cpu, loads)
            stack = kernel.domains.domains_of(cpu)
        return cpu

    def _find_idlest_group(self, groups: Sequence[Tuple[int, ...]],
                           current_cpu: int,
                           loads: Dict[int, float]) -> Tuple[int, ...]:
        """Linux v5.9 semantics: the local group (the one containing the
        forking cpu) wins unless another group has strictly more idle cpus;
        among the others, more idle cpus then less quantized load.

        Reads that cannot change the answer are skipped.  The local group
        is counted first and wins outright once its idle count reaches the
        largest other group's size.  A group's load is summed only to
        break a tie on (idle, running) among the others, so a lone rival
        group (the NUMA level of a 2-socket machine) never needs one.
        """
        kernel = self.kernel
        rqs = kernel.rqs
        cpus = kernel.cpus
        online = kernel.cpu_online
        local = None
        rivals = []
        largest = 0
        for group in groups:
            if current_cpu in group:
                local = group
            else:
                rivals.append(group)
                if len(group) > largest:
                    largest = len(group)
        if local is not None:
            local_idle = 0
            for c in local:
                if online[c] and cpus[c].current is None \
                        and rqs[c].nr_queued == 0:
                    local_idle += 1
            if local_idle >= largest:
                return local
        # One pass per rival gathers its idle count and its queued+running
        # count; the rivals tied on the best of those go on to loads.
        best_key = None
        tied = []
        for group in rivals:
            idle_cpus = 0
            running = 0
            n_online = 0
            for c in group:
                if not online[c]:
                    continue
                n_online += 1
                q = rqs[c].nr_queued
                if cpus[c].current is None:
                    if q == 0:
                        idle_cpus += 1
                    running += q
                else:
                    running += q + 1
            if n_online == 0:
                continue    # hotplugged-out group: not a placement target
            key = (-idle_cpus, running)
            if best_key is None or key < best_key:
                best_key = key
                tied = [group]
            elif key == best_key:
                tied.append(group)
        if best_key is None:
            return local
        if local is not None and local_idle >= -best_key[0]:
            return local
        if len(tied) == 1:
            return tied[0]
        now = kernel.engine.now
        best = None
        best_qload = None
        for group in tied:
            load = 0.0
            for c in group:
                if not online[c]:
                    continue
                c_load = loads.get(c)
                if c_load is None:
                    c_load = loads[c] = rqs[c].load_avg(now)
                load += c_load
            q = _qload(load)
            if best_qload is None or q < best_qload:
                best, best_qload = group, q
        return best

    def _find_idlest_cpu(self, group: Tuple[int, ...], from_cpu: int,
                         loads: Dict[int, float]) -> int:
        """Least-loaded cpu of the group, scanned in numerical order modulo
        the group, starting from the forking cpu's position.

        The scan stops at the first idle cpu whose quantized load is 0: its
        key ``(0, 0, 0, rank)`` is the smallest any later rank can reach.
        Once an idle cpu is found, busy cpus (keys ``(1, ...)``) can no
        longer win, so their loads are not read.
        """
        kernel = self.kernel
        now = kernel.engine.now
        rqs = kernel.rqs
        cpus = kernel.cpus
        online = kernel.cpu_online
        check_pending = self.check_pending_default
        best = None
        best_key = None
        idle_found = False
        for rank, c in enumerate(_rotate(group, from_cpu)):
            if not online[c]:
                continue
            rq = rqs[c]
            q = rq.nr_queued
            busy = cpus[c].current is not None
            if not busy and q == 0 \
                    and not (check_pending and rq.placement_pending > 0):
                # Idle cpus compete on recent load: CFS prefers the one
                # idle longest (smallest decayed load, quantized so that
                # fully-decayed cores tie and scan order decides).
                load = loads.get(c)
                if load is None:
                    load = loads[c] = rq.load_avg(now)
                qload = _qload(load)
                if qload == 0:
                    return c
                idle_found = True
                key = (0, 0, qload, rank)
            elif idle_found:
                continue
            else:
                load = loads.get(c)
                if load is None:
                    load = loads[c] = rq.load_avg(now)
                key = (1, q + (1 if busy else 0), _qload(load), rank)
            if best_key is None or key < best_key:
                best, best_key = c, key
        if best is None:
            # Every cpu of the group went offline mid-walk: fall back to
            # the machine-wide least loaded online cpu.
            return kernel.least_loaded_online(from_cpu)
        return best

    # ------------------------------------------------------------------
    # Wakeup path
    # ------------------------------------------------------------------

    def select_cpu_wakeup(self, task: Task, waker_cpu: int) -> int:
        prev = task.prev_cpu if task.prev_cpu is not None else waker_cpu
        target = self._wake_affine(task, prev, waker_cpu)
        return self.select_idle_sibling(target, all_dies=False,
                                        check_pending=False)

    def _wake_affine(self, task: Task, prev: int, waker: int) -> int:
        """Choose between the previous cpu and the waker's cpu.

        Mirrors v5.9 ``wake_affine``: if the waker's cpu is idle and shares
        a cache with prev, stay with whichever of the two is idle;
        otherwise compare effective loads (``wake_affine_weight``) with the
        kernel's ~117% imbalance margin.  Because the previous cpu carries
        the wakee's own decaying blocked footprint, a frequently-sleeping
        task can be pulled toward its (varying) wakers — the seed of the
        dispersal cascades that §3.3 describes.
        """
        kernel = self.kernel
        online = kernel.cpu_online
        if not online[prev]:
            # prev was hotplugged out; the waker's cpu (or, for timer
            # wakes from a dead cpu, an online fallback) takes its place.
            return waker if online[waker] else kernel.least_loaded_online(waker)
        if not online[waker]:
            return prev
        if prev == waker:
            return prev
        now = kernel.engine.now
        die_of = kernel.die_of
        if kernel.cpu_is_idle(waker) and die_of[prev] == die_of[waker]:
            return prev if kernel.cpu_is_idle(prev) else waker
        this_load = kernel.rqs[waker].load_avg(now) + task.util_est
        prev_load = kernel.rqs[prev].load_avg(now)
        if this_load * 1.17 < prev_load:
            return waker
        return prev

    def select_idle_sibling(self, target: int, all_dies: bool,
                            check_pending: bool) -> int:
        """The CFS idle search around ``target`` (``select_idle_sibling``).

        ``all_dies`` enables Nest's §3.4 wakeup work conservation: if the
        target die has no idle cpu, other dies are searched too.
        ``check_pending`` makes the search skip cpus with an in-flight
        placement (Nest's §3.4 placement flag).
        """
        kernel = self.kernel
        topo = kernel.topology

        if self._usable_idle(target, check_pending):
            return target

        die = kernel.domains.die_span(target)
        if not all_dies:
            cpu = self._search_die(die, target, check_pending)
            if cpu is not None:
                return cpu
        else:
            # Work-conserving variant (Nest §3.4): prefer a fully-idle
            # physical core on *any* die over a hyperthread sibling on the
            # local one — this is what lets a Nest burst scatter across the
            # machine instead of doubling up on hyperthreads (the paper's
            # rodinia observation).
            target_die = kernel.die_of[target]
            other_spans = [tuple(topo.cpus_in_socket(s))
                           for s in _rotate(tuple(range(topo.n_sockets)),
                                            target_die + 1)
                           if s != target_die]
            cpu = self._search_idle_core(die, target, check_pending)
            if cpu is not None:
                return cpu
            for span in other_spans:
                cpu = self._search_idle_core(span, span[0], check_pending)
                if cpu is not None:
                    return cpu
            cpu = self._search_any_idle(die, target, check_pending,
                                        unbounded=False)
            if cpu is not None:
                return cpu
            for span in other_spans:
                cpu = self._search_any_idle(span, span[0], check_pending,
                                            unbounded=True)
                if cpu is not None:
                    return cpu

        sib = topo.sibling_of(target)
        if sib != target and self._usable_idle(sib, check_pending):
            return sib
        if not kernel.cpu_online[target]:
            return kernel.least_loaded_online(target)
        return target

    def _search_die(self, die: Sequence[int], target: int,
                    check_pending: bool, unbounded: bool = False) -> Optional[int]:
        cpu = self._search_idle_core(die, target, check_pending)
        if cpu is not None:
            return cpu
        return self._search_any_idle(die, target, check_pending, unbounded)

    def _search_idle_core(self, die: Sequence[int], target: int,
                          check_pending: bool) -> Optional[int]:
        """Step 1: a physical core with every hyperthread idle."""
        kernel = self.kernel
        pc_of = kernel.pc_of
        siblings_of = kernel.smt_siblings_of
        seen_cores = set()
        for c in _rotate(tuple(die), target):
            pc = pc_of[c]
            if pc in seen_cores:
                continue
            seen_cores.add(pc)
            sibs = siblings_of[c]
            if all(self._usable_idle(s, check_pending) for s in sibs):
                return min(sibs)
        return None

    def _search_any_idle(self, die: Sequence[int], target: int,
                         check_pending: bool,
                         unbounded: bool = False) -> Optional[int]:
        """Step 2: bounded linear scan for any idle cpu."""
        ordered = _rotate(tuple(die), target)
        limit = len(ordered) if unbounded else min(len(ordered),
                                                   WAKEUP_SCAN_LIMIT)
        for c in ordered[:limit]:
            if self._usable_idle(c, check_pending):
                return c
        return None

    def _usable_idle(self, cpu: int, check_pending: bool) -> bool:
        kernel = self.kernel
        if not kernel.cpu_online[cpu]:
            return False
        if kernel.cpus[cpu].current is not None \
                or kernel.rqs[cpu].nr_queued != 0:
            return False
        if check_pending and kernel.rqs[cpu].placement_pending > 0:
            return False
        return True


def _qload(load: float) -> int:
    """Quantize a PELT load for comparisons (see LOAD_EPSILON)."""
    return int(load / LOAD_EPSILON)


@lru_cache(maxsize=4096)
def _rotate(seq: Tuple[int, ...], start: int) -> Tuple[int, ...]:
    """Return ``seq`` rotated so scanning starts at ``start`` (or just after
    its insertion point when ``start`` is not a member).

    Memoized: the wakeup path rotates the same die span for every placement,
    and there are only (spans x cpus) distinct rotations per machine.
    """
    ordered = sorted(seq)
    pivot = 0
    for i, v in enumerate(ordered):
        if v >= start:
            pivot = i
            break
    else:
        pivot = 0
    return tuple(ordered[pivot:] + ordered[:pivot])
