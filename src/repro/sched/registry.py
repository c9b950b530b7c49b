"""Name → selection-policy registry: the policy SDK's single source of truth.

Extracted from the ad-hoc ``if name == ...`` chains so that every layer
(experiment runner, CLI, fuzzer, conformance suite, tests) resolves
scheduler names through one table, and new policies plug in with a
one-line registration instead of edits in three places.

Each entry is a :class:`PolicyInfo` carrying, beyond the factory itself,
the metadata the rest of the system derives its behaviour from:

* ``description`` — one line for ``repro list`` and the docs;
* ``invariant_groups`` — which policy-specific oracle families
  (``nest.*``, ``scxnest.*``, ``rt.*``) apply to runs of this policy;
  the oracle gates those checks through :func:`invariant_groups_of`;
* ``uses_nest_params`` — whether the factory consumes a
  :class:`~repro.core.params.NestParams` override;
* ``fuzz_weight`` — how many slots the policy occupies in the fuzz
  generator's scheduler pool (:func:`fuzz_scheduler_pool`).

Factories are lazy: each imports its policy module only when invoked, so
registering the built-ins does not pull ``core.nest`` (which itself
imports this package) at import time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, FrozenSet, List,
                    Optional, Tuple)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.params import NestParams
    from .base import SelectionPolicy

#: A factory takes the (possibly None) NestParams override and returns a
#: fresh policy instance.  Policies that take no parameters ignore it.
PolicyFactory = Callable[["Optional[NestParams]"], "SelectionPolicy"]


@dataclass(frozen=True)
class PolicyInfo:
    """One registry entry: the factory plus the SDK metadata."""

    name: str
    factory: PolicyFactory
    description: str = ""
    #: Policy-specific oracle invariant families that apply to this
    #: policy's runs (generic families always apply).
    invariant_groups: FrozenSet[str] = field(default_factory=frozenset)
    #: Whether the factory consumes the NestParams override.
    uses_nest_params: bool = False
    #: Slots in the fuzz generator's scheduler pool (0 = never fuzzed;
    #: the drift test forbids 0 for registered built-ins).
    fuzz_weight: int = 1


_REGISTRY: Dict[str, PolicyInfo] = {}


def register_policy(name: str, factory: PolicyFactory, *,
                    description: str = "",
                    invariant_groups: Tuple[str, ...] = (),
                    uses_nest_params: bool = False,
                    fuzz_weight: int = 1,
                    replace: bool = False) -> PolicyInfo:
    """Register ``factory`` under the (case-insensitive) short ``name``.

    Returns the stored :class:`PolicyInfo` so callers (tests, plug-ins)
    can inspect exactly what was recorded.
    """
    key = name.lower()
    if not replace and key in _REGISTRY:
        raise ValueError(f"policy {key!r} already registered")
    info = PolicyInfo(name=key, factory=factory, description=description,
                      invariant_groups=frozenset(invariant_groups),
                      uses_nest_params=uses_nest_params,
                      fuzz_weight=fuzz_weight)
    _REGISTRY[key] = info
    return info


def unregister_policy(name: str) -> None:
    """Remove a registered policy (test fixtures and plug-in teardown)."""
    _REGISTRY.pop(name.lower(), None)


def available_policies() -> List[str]:
    """The registered short names, sorted."""
    return sorted(_REGISTRY)


def policy_info(name: str) -> PolicyInfo:
    """The full registry entry for ``name``."""
    key = name.lower()
    try:
        return _REGISTRY[key]
    except KeyError:
        raise ValueError(f"unknown scheduler {name!r}; "
                         f"known: {available_policies()}") from None


def iter_policy_infos() -> List[PolicyInfo]:
    """Every registry entry, sorted by name."""
    return [_REGISTRY[k] for k in available_policies()]


def make_registered_policy(name: str,
                           nest_params: "Optional[NestParams]" = None
                           ) -> "SelectionPolicy":
    """Instantiate a registered policy by short name."""
    return policy_info(name).factory(nest_params)


def fuzz_scheduler_pool() -> Tuple[str, ...]:
    """The fuzz generator's weighted scheduler pool, derived from the
    registry: each name appears ``fuzz_weight`` times, in sorted-name
    order so the pool (and therefore the seeded scenario stream) is
    independent of registration order."""
    pool: List[str] = []
    for name in available_policies():
        pool.extend([name] * _REGISTRY[name].fuzz_weight)
    return tuple(pool)


def invariant_groups_of(name: str) -> FrozenSet[str]:
    """The policy-specific oracle families for ``name`` (empty when the
    name is unknown, so the oracle degrades to generic checks only)."""
    info = _REGISTRY.get(name.lower())
    return info.invariant_groups if info is not None else frozenset()


# ---------------------------------------------------------------------------
# Built-in policies.


def _nest_defaults() -> Any:
    from ..core.params import DEFAULT_PARAMS
    return DEFAULT_PARAMS


def _make_cfs(params: "Optional[NestParams]") -> "SelectionPolicy":
    from .cfs import CfsPolicy
    return CfsPolicy()


def _make_nest(params: "Optional[NestParams]") -> "SelectionPolicy":
    from ..core.nest import NestPolicy
    return NestPolicy(params or _nest_defaults())


def _make_smove(params: "Optional[NestParams]") -> "SelectionPolicy":
    from .smove import SmovePolicy
    return SmovePolicy()


def _make_ftrt(params: "Optional[NestParams]") -> "SelectionPolicy":
    from .ftrt import FtrtPolicy
    return FtrtPolicy()


def _make_scxnest(params: "Optional[NestParams]") -> "SelectionPolicy":
    from .scxnest import ScxNestPolicy
    return ScxNestPolicy(params or _nest_defaults())


register_policy(
    "cfs", _make_cfs,
    description="stock CFS idle-sibling core selection (the baseline)")
register_policy(
    "nest", _make_nest,
    description="the paper's Nest policy: primary/reserve nests, "
                "attachment, impatience, warm-core spinning (§3)",
    invariant_groups=("nest",),
    uses_nest_params=True, fuzz_weight=3)
register_policy(
    "smove", _make_smove,
    description="S_move (§2.2): frequency-gated child-on-waker-core "
                "placement with a migration timer")
register_policy(
    "ftrt", _make_ftrt,
    description="fault-tolerant RT: disjoint primary/backup deadline "
                "placement (DESIGN.md §10)",
    invariant_groups=("rt",))
register_policy(
    "scxnest", _make_scxnest,
    description="Meta's scx_nest variant: global vtime dispatch queue + "
                "Nest-style warm-core masks with timer-driven compaction",
    invariant_groups=("scxnest",),
    uses_nest_params=True)
