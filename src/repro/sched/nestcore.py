"""The mask core shared by Nest (``core/nest.py``) and scx_nest
(``sched/scxnest.py``).

Both policies keep the paper's two core sets (§3.1): the **primary**
nest, searched first, and the **reserve** nest, bounded at ``R_max``.
This module holds those sets (:class:`NestMasks`, whose transitions are
legality-checked) and what the two policies do with them alike
(:class:`NestCore`): the die-ordered primary and reserve scans, the
§3.4 idle test, demotion, and the hotplug repair.  Each subclass keeps
only its documented differences (DESIGN.md §11.3): how it compacts, how
impatience works, which core it prefers, where the reserve scan is
anchored, how it falls back on CFS, and Nest's spinning or scx_nest's
vtime queue.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from ..core.params import NestParams
from ..kernel.task import Task
from ..obs import events as oev
from ..obs.log import EventLog
from ..obs.metrics import MetricsRegistry
from .base import SelectionPolicy
from .cfs import CfsPolicy, _rotate

#: Bucket edges of both policies' placement-search-length histogram
#: (cores examined before a placement was decided) and primary-size
#: histogram, shared so their reports are directly comparable.
HISTOGRAM_EDGES = (0, 1, 2, 4, 8, 16, 32, 64, 128)


class NestMasks:
    """Primary/reserve core masks with legality-enforced transitions.

    The invariants (primary ∩ reserve = ∅, ``|reserve| ≤ r_max``) are the
    paper's §3.1 rules; every transition either preserves them or raises
    ``ValueError`` — the property suite drives random transition
    sequences through this class and asserts exactly that.
    """

    def __init__(self, r_max: int, reserve_enabled: bool = True) -> None:
        if r_max < 0:
            raise ValueError(f"negative r_max {r_max}")
        self.r_max = r_max
        self.reserve_enabled = reserve_enabled
        self.primary: Set[int] = set()
        self.reserve: Set[int] = set()

    def promote(self, cpu: int) -> None:
        """Reserve hit: the core moves reserve → primary."""
        if cpu not in self.reserve:
            raise ValueError(f"promote of cpu {cpu} not in reserve")
        self.reserve.discard(cpu)
        self.primary.add(cpu)

    def expand(self, cpu: int) -> None:
        """Impatient expansion: the core joins the primary directly."""
        if cpu in self.primary:
            raise ValueError(f"expand of cpu {cpu} already in primary")
        self.reserve.discard(cpu)
        self.primary.add(cpu)

    def demote(self, cpu: int) -> bool:
        """Compaction: primary → reserve (dropped entirely when the
        reserve is full or disabled).  Returns True if the core was
        parked in the reserve."""
        if cpu not in self.primary:
            raise ValueError(f"demote of cpu {cpu} not in primary")
        self.primary.discard(cpu)
        if self.reserve_enabled and len(self.reserve) < self.r_max:
            self.reserve.add(cpu)
            return True
        return False

    def admit_reserve(self, cpu: int) -> bool:
        """A CFS pick outside both masks enters the reserve if there is
        room (§3.1); no-op for members.  Returns True on admission."""
        if cpu in self.primary or cpu in self.reserve:
            return False
        if self.reserve_enabled and len(self.reserve) < self.r_max:
            self.reserve.add(cpu)
            return True
        return False

    def evict(self, cpu: int) -> bool:
        """Hotplug repair: the core leaves both masks unconditionally."""
        was_member = cpu in self.primary or cpu in self.reserve
        self.primary.discard(cpu)
        self.reserve.discard(cpu)
        return was_member

    def check(self) -> None:
        """Raise if the §3.1 invariants do not hold."""
        overlap = self.primary & self.reserve
        if overlap:
            raise AssertionError(
                f"masks overlap on {sorted(overlap)}")
        if self.reserve_enabled:
            if len(self.reserve) > self.r_max:
                raise AssertionError(
                    f"reserve {len(self.reserve)} exceeds r_max {self.r_max}")
        elif self.reserve:
            raise AssertionError(
                f"reserve disabled but holds {sorted(self.reserve)}")


class NestCore(SelectionPolicy):
    """What Nest and scx_nest share: the masks, their scans and repair.

    A subclass implements ``_select(task, start, is_fork, waker_cpu)``
    and registers its own counters, in the order its results serialize
    them; one is ``_c_compact``, which :meth:`_demote` increments.
    """

    def __init__(self, params: NestParams) -> None:
        super().__init__()
        self.params = params
        self._masks = NestMasks(params.r_max, params.reserve_enabled)
        self._cfs = CfsPolicy()
        # Placement statistics live in a metrics registry (obs/metrics.py);
        # the hot path increments counter objects directly.
        self.metrics = MetricsRegistry()
        self._h_search = self.metrics.histogram("search_len", HISTOGRAM_EDGES)
        self._h_size = self.metrics.histogram("primary_size", HISTOGRAM_EDGES)
        # Replaced with the engine's log on bind; a detached placeholder
        # lets unbound policies (unit tests) run with events disabled.
        self._obs = EventLog()

    def on_bind(self) -> None:
        self._cfs.kernel = self.kernel
        self._cfs.check_pending_default = self.params.placement_flag
        self._obs = self.kernel.engine.obs

    # Views of the masks (the verification oracle snapshots final
    # membership through these).
    @property
    def primary(self) -> Set[int]:
        return self._masks.primary

    @property
    def reserve(self) -> Set[int]:
        return self._masks.reserve

    # ------------------------------------------------------------------
    # The scans
    # ------------------------------------------------------------------

    def _idle(self, cpu: int) -> bool:
        """Idle and not targeted by an in-flight placement (§3.4 flag)."""
        if not self.kernel.cpu_is_idle(cpu):
            return False
        if self.params.placement_flag \
                and self.kernel.rqs[cpu].placement_pending > 0:
            return False
        return True

    def _scan_primary(self, start: int, prev: Optional[int],
                      stale_us: Optional[int]) -> Tuple[Optional[int], int]:
        """Idle-core search over the primary nest: ``prev`` first if it
        is primary, then ``start``'s die rotated from ``start``, then the
        other dies in cpu order.  With ``stale_us`` set, an idle core
        other than ``prev`` that has been unused that long is demoted as
        the scan passes it (Nest's compaction, §3.1).
        Returns (chosen cpu or None, candidates examined)."""
        primary = self._masks.primary
        if not primary:
            return None, 0
        kernel = self.kernel
        die_of = kernel.die_of
        start_die = die_of[start]
        same_die = [c for c in primary if die_of[c] == start_die]
        other = [c for c in primary if die_of[c] != start_die]
        candidates = list(_rotate(tuple(same_die), start)) + sorted(other)
        if prev is not None and prev in primary:
            candidates.insert(0, prev)
        now = kernel.engine.now
        examined = 0
        for cpu in candidates:
            examined += 1
            if not self._idle(cpu):
                continue
            if stale_us is not None and cpu != prev \
                    and now - kernel.cpu_last_used(cpu) >= stale_us:
                # §3.1: a task tried to use a stale core -> demote it.
                self._demote(cpu, oev.NEST_COMPACT)
                continue
            return cpu, examined
        return None, examined

    def _scan_reserve(self, start: int,
                      anchor: int) -> Tuple[Optional[int], int]:
        """Idle-core search over the reserve nest: ``start``'s die first,
        each die rotated from ``anchor``.
        Returns (chosen cpu or None, candidates examined)."""
        reserve = self._masks.reserve
        if not reserve:
            return None, 0
        die_of = self.kernel.die_of
        start_die = die_of[start]
        same_die = [c for c in reserve if die_of[c] == start_die]
        other = [c for c in reserve if die_of[c] != start_die]
        examined = 0
        for cpu in _rotate(tuple(same_die), anchor) \
                + _rotate(tuple(other), anchor):
            examined += 1
            if self._idle(cpu):
                return cpu, examined
        return None, examined

    # ------------------------------------------------------------------
    # Demotion and hotplug repair
    # ------------------------------------------------------------------

    def _demote(self, cpu: int, kind: str) -> None:
        """Move ``cpu`` out of the primary nest (into the reserve while
        it has room), count a compaction and emit ``kind``."""
        self._masks.demote(cpu)
        self._c_compact.value += 1
        obs = self._obs
        if obs.enabled:
            obs.emit(self.kernel.engine.now, kind, cpu=cpu,
                     value=len(self._masks.primary))

    def on_cpu_offline(self, cpu: int) -> None:
        """Repair for a hotplug fault: a vanished core leaves both nests
        at once, or the scans would keep tripping over it.  The eviction
        is not a compaction and touches no placement counter, so the
        accounting invariants are unaffected.  (The kernel scrubs task
        attachment histories.)"""
        self._forget_cpu(cpu)
        if self._masks.evict(cpu):
            # Lazily created so fault-free runs keep an identical metrics
            # dict (and identical cached results).
            self.metrics.counter("offline_evictions").value += 1
            obs = self._obs
            if obs.enabled:
                obs.emit(self.kernel.engine.now, oev.NEST_OFFLINE_EVICT,
                         cpu=cpu, value=len(self._masks.primary))

    def _forget_cpu(self, cpu: int) -> None:
        """Drop the subclass's own per-cpu state for an offline ``cpu``."""

    def select_cpu_offline_migration(self, task: Task,
                                     offline_cpu: int) -> Optional[int]:
        """Re-place a task orphaned by a hotplug fault through the normal
        search, so the move is counted like any other placement and the
        orphan lands back inside the (repaired) nest when possible."""
        return self._select(task, start=offline_cpu, is_fork=False,
                            waker_cpu=offline_cpu)
