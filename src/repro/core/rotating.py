"""Basic rotating vectors (BRV) — §3.1 of the paper.

A basic rotating vector is a version vector paired with a total order ``≺``
of its elements.  Whenever site *i* updates the replica the *i*-th value is
incremented **and** the element is rotated to the front of the order.  The
order therefore records modification recency, which enables:

* :meth:`BasicRotatingVector.compare` — Algorithm 1, an O(1) comparison
  that inspects only the front element of each vector, and
* ``SYNCB`` (:mod:`repro.protocols.syncb`) — incremental synchronization
  that ships only the elements modified since the two replicas last met.

BRV supports systems with *manual* conflict resolution only: automatic
reconciliation distorts the rotation order and is handled by the CRV and
SRV subclasses.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Tuple

from repro.core.linkedorder import Element, ElementOrder
from repro.core.order import Ordering
from repro.core.versionvector import VersionVector


class BasicRotatingVector:
    """A version vector with a rotate-to-front total order of elements.

    >>> v = BasicRotatingVector.from_pairs([("C", 3), ("A", 2), ("B", 1)])
    >>> v.first().site, v.last().site
    ('C', 'B')
    >>> v.record_update("B")
    2
    >>> v.sites_in_order()
    ['B', 'C', 'A']
    """

    #: Human-readable tag used by wire accounting and reports.
    kind = "brv"

    #: The element-order implementation this class instantiates.  Array
    #: subclasses (:mod:`repro.core.arrayvec`) swap in the flat
    #: :class:`~repro.core.arrayorder.ArrayElementOrder` while inheriting
    #: every algorithm below unchanged.
    order_cls = ElementOrder

    __slots__ = ("order",)

    def __init__(self, order: Any = None) -> None:
        # ``order`` adopts an existing order (``copy`` hands over a fresh
        # one); by default the vector starts empty.
        self.order = self.order_cls() if order is None else order

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[str, int]]) -> "BasicRotatingVector":
        """Build a vector whose ``≺`` order equals the pair order given.

        The first pair becomes ``⌊v⌋``; values must be positive (zero-valued
        elements are never stored) and site names must be distinct — a
        repeated site would silently rotate the existing element to the
        later position, corrupting the order the caller spelled out.
        """
        vector = cls()
        previous: Optional[str] = None
        for site, value in pairs:
            if value <= 0:
                raise ValueError(f"element {site!r} must have positive value")
            if site in vector.order:
                raise ValueError(f"duplicate site {site!r} in pairs")
            vector.order.place_after(previous, site, value)
            previous = site
        return vector

    def copy(self) -> "BasicRotatingVector":
        """An independent deep copy (order, values, and bits)."""
        return type(self)(self.order.copy())

    # -- element access ----------------------------------------------------------

    def __getitem__(self, site: str) -> int:
        """``v[site]``; absent sites read as 0."""
        return self.order.value(site)

    def __len__(self) -> int:
        return len(self.order)

    def __contains__(self, site: str) -> bool:
        return site in self.order

    def first(self) -> Optional[Element]:
        """``⌊v⌋`` — the least element (most recent modification)."""
        return self.order.first()

    def last(self) -> Optional[Element]:
        """``⌈v⌉`` — the greatest element (oldest modification)."""
        return self.order.last()

    def sites_in_order(self) -> List[str]:
        """Site names in ascending ``≺`` order."""
        return self.order.sites_in_order()

    def elements(self) -> List[Tuple[str, int]]:
        """``(site, value)`` pairs in ascending ``≺`` order."""
        return [(e.site, e.value) for e in self.order]

    def total_updates(self) -> int:
        """Sum of all element values."""
        return sum(e.value for e in self.order)

    # -- updates ---------------------------------------------------------------

    def record_update(self, site: str) -> int:
        """Record one local update on ``site``: increment and rotate to front.

        Clears the element's conflict bit (§3.2: the bit "is reset whenever
        ``v[i]`` is incremented due to a replica update on site *i*") and its
        segment bit (a fresh update extends the vector's front segment, which
        is how consecutive single-parent nodes coalesce in the CRG).  Returns
        the new value.
        """
        element = self.order.rotate_front(site)
        element.value += 1
        element.conflict = False
        element.segment = False
        return element.value

    def rotate_many(self, sites: List[str]) -> None:
        """Batch ROTATE: each site moves to the front in turn.

        After the call the last listed site is at the front (``⌊v⌋``),
        matching a receiver replaying a sender's rotation sequence.  The
        array backend overrides this with a single contiguous pass.
        """
        order = self.order
        for site in sites:
            order.rotate_front(site)

    # -- comparison ----------------------------------------------------------

    def compare(self, other: "BasicRotatingVector") -> Ordering:
        """Algorithm 1 (COMPARE): O(1) comparison via the front elements.

        Correctness requires each vector's front element to be *fresh*, i.e.
        produced by a local update (``record_update``), not left over from a
        reconciliation merge.  Replication systems guarantee this because the
        hosting site increments its own element right after merging
        concurrent vectors (§2.2, Parker et al. §C); compare
        ``tests/core/test_compare.py::test_unincremented_merge_anomaly``.
        """
        mine, theirs = self.order.front(), other.order.front()
        if mine is None and theirs is None:
            return Ordering.EQUAL
        if mine is None:
            return Ordering.BEFORE
        if theirs is None:
            return Ordering.AFTER
        la, ua = mine
        lb, ub = theirs
        if ua == other[la] and self[lb] == ub:
            return Ordering.EQUAL
        if ua <= other[la]:
            return Ordering.BEFORE
        if ub <= self[lb]:
            return Ordering.AFTER
        return Ordering.CONCURRENT

    def compare_full(self, other: "BasicRotatingVector") -> Ordering:
        """Traditional elementwise comparison, as a reference oracle."""
        return self.to_version_vector().compare(other.to_version_vector())

    # -- conversions and equality ----------------------------------------------

    def to_version_vector(self) -> VersionVector:
        """The plain version vector this rotating vector represents."""
        return VersionVector({e.site: e.value for e in self.order})

    def same_values(self, other: "BasicRotatingVector") -> bool:
        """True iff both represent the same plain version vector."""
        return self.to_version_vector() == other.to_version_vector()

    def same_structure(self, other: "BasicRotatingVector") -> bool:
        """True iff order, values, and per-element bits all coincide."""
        return self.order.as_tuples() == other.order.as_tuples()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BasicRotatingVector):
            return NotImplemented
        return self.same_values(other)

    # Vectors are mutable containers: explicitly unhashable, so identity
    # bugs can't hide in sets or dict keys (``hash(v)`` raises TypeError).
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        inner = ", ".join(repr(e) for e in self.order)
        return f"{type(self).__name__}⟨{inner}⟩"
