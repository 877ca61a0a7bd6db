"""Conflict-resolution policies (§1, §2.1).

Conflict *detection* is the metadata's job; *resolution* is policy:

* **Manual** resolution excludes conflicting replicas from the system until
  a human merges them (the revision-control style); the system records the
  conflict and stops synchronizing the pair.  BRV suffices for such
  systems.
* **Automatic** resolution (reconciliation) merges the concurrent values
  into a new version without excluding anything; it requires CRV/SRV (or
  the full-vector baseline) and is followed by the §2.2 self-increment.

Resolvers operate on replica *values*; deterministic, commutative merge
functions keep eventual consistency honest regardless of reconciliation
order, and the stock ones below all have that property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, FrozenSet

MergeFn = Callable[[Any, Any], Any]


@dataclass(frozen=True)
class ManualResolution:
    """Exclude conflicting replicas; no reconciliation (BRV territory)."""

    kind: str = "manual"


@dataclass(frozen=True)
class AutomaticResolution:
    """Reconcile with ``merge``; requires conflict-capable metadata."""

    merge: MergeFn
    kind: str = "automatic"


def union_merge(a: Any, b: Any) -> FrozenSet[Any]:
    """Set union — the classic convergent merge (shopping carts, tag sets)."""
    return frozenset(_as_set(a) | _as_set(b))


def _as_set(value: Any) -> FrozenSet[Any]:
    if isinstance(value, (set, frozenset)):
        return frozenset(value)
    return frozenset([value]) if value is not None else frozenset()


def deterministic_pick(a: Any, b: Any) -> Any:
    """Pick one value deterministically (order-independent tiebreak).

    A stand-in for application-specific resolution when values cannot be
    merged structurally; both sites reconciling the same pair choose the
    same winner.
    """
    return max((a, b), key=repr)

