"""Array-backed BRV/CRV/SRV — the flat fast path behind the registry.

These classes inherit every algorithm (COMPARE, conflict/segment-bit
helpers, the segment-partition cache) from the linked-list classes
and swap only the storage: :attr:`order_cls` points at
:class:`~repro.core.arrayorder.ArrayElementOrder`, and the hot
constructors/accessors are overridden with bulk array passes.

These are the classes the protocol registry instantiates.  The linked
base classes stay as the reference they must match — byte-identical
wire traffic, identical ``bench_fingerprint``s — which
``tests/core/test_array_model.py`` (hypothesis) and the tier-1
oracle test (``tests.helpers.linked_vectors``) both enforce.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.core.arrayorder import ArrayElementOrder
from repro.core.conflict import ConflictRotatingVector
from repro.core.rotating import BasicRotatingVector
from repro.core.skip import SkipRotatingVector
from repro.core.versionvector import VersionVector


class ArrayBasicRotatingVector(BasicRotatingVector):
    """BRV over parallel arrays; see §3.1 and :mod:`repro.core.arrayorder`."""

    order_cls = ArrayElementOrder

    __slots__ = ()

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[str, int]]
                   ) -> "ArrayBasicRotatingVector":
        """Bulk build: validate once, then append all rows in one pass."""
        rows: List[Tuple[str, int]] = []
        seen = set()
        for site, value in pairs:
            if value <= 0:
                raise ValueError(f"element {site!r} must have positive value")
            if site in seen:
                raise ValueError(f"duplicate site {site!r} in pairs")
            seen.add(site)
            rows.append((site, value))
        vector = cls()
        vector.order.extend_back(rows)
        return vector

    def record_update(self, site: str) -> int:
        """Local update via the order's single-pass fast path."""
        return self.order.record_update(site)

    def rotate_many(self, sites: List[str]) -> None:
        """Batch ROTATE: the last site ends up at the front (``⌊v⌋``)."""
        self.order.rotate_many(sites)

    def elements(self) -> List[Tuple[str, int]]:
        """``(site, value)`` pairs in ≺ order, straight off the arrays."""
        return self.order.pairs_in_order()

    def total_updates(self) -> int:
        """Sum of all element values (single array pass)."""
        return self.order.total_value()

    def to_version_vector(self) -> VersionVector:
        """The plain version vector this rotating vector represents."""
        return VersionVector(self.order.values_dict())


class ArrayConflictRotatingVector(ArrayBasicRotatingVector,
                                  ConflictRotatingVector):
    """CRV over parallel arrays (§3.2 conflict bits unchanged)."""

    kind = "crv"
    __slots__ = ()


class ArraySkipRotatingVector(ArrayConflictRotatingVector,
                              SkipRotatingVector):
    """SRV over parallel arrays (§4 segment bits and partition cache)."""

    kind = "srv"
    __slots__ = ()
