"""Skip rotating vectors (SRV) — §4 of the paper.

CRV pays O(|Γ|) retransmission because a receiver cannot tell which tagged
elements it already knows.  SRV adds a *segment bit* per element that marks
segment boundaries: the segments of a vector are exactly the prefixing
segments of its coalesced replication graph (CRG) ancestry, and segments
have three properties (§4) that make them skippable wholesale:

i.   a segment has a unique set of elements — as soon as a value changes the
     element is rotated out into a new prefixing segment;
ii.  intra-segment order is persistent from vector to vector;
iii. segments never grow — they only shrink and eventually vanish.

Hence if the receiver knows the first element of a segment with an equal or
greater value, it knows the entire segment and ``SYNCS``
(:mod:`repro.protocols.syncs`) can skip it with a single O(1) ``SKIP``
message, giving O(|Δ|+γ) communication — optimal by Theorem 5.1.

A segment bit of one marks the **last** element of a segment; the end of
the vector is an implicit boundary.  New boundaries appear only during
reconciliation (when ``SYNCS`` observes a skip or halt), and local updates
extend the front segment — which is precisely how consecutive single-parent
CRG nodes coalesce.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.core.conflict import ConflictRotatingVector
from repro.core.linkedorder import Element

#: A parsed segment partition: ``((site, value), ...)`` runs, front first.
SegmentPartition = Tuple[Tuple[Tuple[str, int], ...], ...]


class SkipRotatingVector(ConflictRotatingVector):
    """A CRV with one segment bit per element.

    >>> v = SkipRotatingVector.from_segments([
    ...     [("C", 1)], [("H", 1)], [("G", 1), ("F", 1), ("E", 1)],
    ...     [("B", 1)], [("A", 1)]])
    >>> [[site for site, _ in seg] for seg in v.segments()]
    [['C'], ['H'], ['G', 'F', 'E'], ['B'], ['A']]
    """

    kind = "srv"

    __slots__ = ("_partition_cache", "_partition_version")

    def __init__(self, order: Any = None) -> None:
        super().__init__(order)
        # Cached parse of the segment partition, keyed on the order's
        # mutation version: repeated analytics (segment counts, storage
        # sizing, Π-bound checks) stop re-walking the linked list.
        self._partition_cache: Optional[SegmentPartition] = None
        self._partition_version = -1

    @classmethod
    def from_segments(
        cls, segments: List[List[Tuple[str, int]]]
    ) -> "SkipRotatingVector":
        """Build an SRV from explicit segments, front segment first.

        Sets the segment bit on the last element of every segment (also the
        final one, even though the vector end already implies a boundary —
        both encodings parse identically).
        """
        pairs = [pair for segment in segments for pair in segment]
        vector = cls.from_pairs(pairs)
        for segment in segments:
            if not segment:
                raise ValueError("segments must be non-empty")
            vector.order.set_segment(segment[-1][0])
        return vector

    # -- segment inspection -----------------------------------------------------

    def segment_bit(self, site: str) -> bool:
        """``v.s[site]``; absent elements read as unset."""
        element = self.order.get(site)
        return element.segment if element is not None else False

    def set_segment_bit(self, site: str, flag: bool = True) -> None:
        """Set or clear ``v.s[site]``; the element must exist."""
        self.order.set_segment(site, flag)

    def partition(self) -> SegmentPartition:
        """The cached segment partition, front segment first.

        Re-parsed only when the element order's mutation version moved
        since the last call; any rotation, removal, or declared field write
        (:meth:`~repro.core.linkedorder.ElementOrder.touch`) invalidates
        it.  The returned tuples are immutable and safe to share.
        """
        version = self.order.version
        if self._partition_version != version or self._partition_cache is None:
            self._partition_cache = tuple(
                tuple(segment) for segment in self.segments_uncached())
            self._partition_version = version
        return self._partition_cache

    def segments(self) -> List[List[Tuple[str, int]]]:
        """The vector parsed into segments, front to back.

        A segment is a maximal run of elements ending at one whose segment
        bit is set; the vector end is an implicit terminator.  Served from
        :meth:`partition`'s cache; the lists returned are fresh copies.
        """
        return [list(segment) for segment in self.partition()]

    def segments_uncached(self) -> List[List[Tuple[str, int]]]:
        """Reference parse that always walks the element order.

        The oracle the cached path is property-tested against.
        """
        result: List[List[Tuple[str, int]]] = []
        current: List[Tuple[str, int]] = []
        for element in self.order:
            current.append((element.site, element.value))
            if element.segment:
                result.append(current)
                current = []
        if current:
            result.append(current)
        return result

    def segment_count(self) -> int:
        """Number of segments currently present in the vector."""
        return len(self.partition())

    def segment_elements(self) -> List[List[Element]]:
        """Like :meth:`segments` but yielding the live elements."""
        result: List[List[Element]] = []
        current: List[Element] = []
        for element in self.order:
            current.append(element)
            if element.segment:
                result.append(current)
                current = []
        if current:
            result.append(current)
        return result
