"""Inactive-site pruning for rotating vectors (§7 / §2.2).

The paper notes that reducing vector size by removing inactive sites
(Ratner et al. 1997; Saito 2002) "is equivalent to the original version
vector plus a distributed membership manager", and that such techniques
"are orthogonal and can be easily applied to any of BRV, CRV, and SRV".
This module supplies that orthogonal piece:

* :class:`RetirementLog` — the membership manager's decision record: a
  monotonically growing set of (site, final value) retirements that every
  replica eventually learns (epoch-stamped, as a coordinated manager would
  distribute them);
* :func:`prune` — applies a retirement to one rotating vector, removing
  the element while keeping SRV segment structure coherent (the removal
  carries segment bits like a rotation does);
* :func:`is_prunable` — a retirement may only be applied once the local
  replica has fully covered the retired site's final value; applying it
  earlier would forge knowledge the replica does not have.

Safety contract (checked by the tests): if all replicas apply the same
retirement log — each when it becomes locally prunable — then COMPARE
verdicts and SYNC* results over the *remaining* sites are unchanged,
because a retired element is, from that point on, identical on every
replica and can never decide a comparison.  Pruning *asymmetrically*
(only some replicas, or before coverage) is exactly the "excessive
truncation" failure §2.2 warns about, and the tests demonstrate the false
verdicts it produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.core.rotating import BasicRotatingVector
from repro.errors import ReproError


@dataclass(frozen=True)
class Retirement:
    """One membership decision: ``site`` made its last update at ``final_value``."""

    site: str
    final_value: int
    epoch: int


@dataclass
class RetirementLog:
    """The membership manager's ordered record of site retirements."""

    _entries: List[Retirement] = field(default_factory=list)

    def retire(self, site: str, final_value: int) -> Retirement:
        """Record that ``site`` left the system after ``final_value`` updates."""
        if any(entry.site == site for entry in self._entries):
            raise ReproError(f"site {site!r} already retired")
        if final_value < 0:
            raise ReproError("final value must be >= 0")
        entry = Retirement(site, final_value, epoch=len(self._entries) + 1)
        self._entries.append(entry)
        return entry

    def entries(self) -> Tuple[Retirement, ...]:
        """All retirements, oldest epoch first."""
        return tuple(self._entries)

    def retired_sites(self) -> List[str]:
        """Names of every retired site."""
        return [entry.site for entry in self._entries]

    def __len__(self) -> int:
        return len(self._entries)


def is_prunable(vector: BasicRotatingVector, retirement: Retirement) -> bool:
    """True iff this replica already covers the retired site's final value."""
    return vector[retirement.site] >= retirement.final_value


def prune(vector: BasicRotatingVector, retirement: Retirement) -> bool:
    """Apply one retirement to a vector; returns True if an element left.

    Raises :class:`ReproError` when the replica has not yet covered the
    retired site's final value — pruning then would erase knowledge the
    replica still needs to *receive*, producing false conflict verdicts.
    """
    if not is_prunable(vector, retirement):
        raise ReproError(
            f"cannot prune {retirement.site!r} at value "
            f"{vector[retirement.site]} < final {retirement.final_value}")
    return vector.order.remove(retirement.site) is not None


def prune_all(vector: BasicRotatingVector, log: RetirementLog) -> int:
    """Apply every locally-prunable retirement; returns elements removed."""
    removed = 0
    for retirement in log.entries():
        if retirement.site in vector.order and is_prunable(vector, retirement):
            if prune(vector, retirement):
                removed += 1
    return removed
