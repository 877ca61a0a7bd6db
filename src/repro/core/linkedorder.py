"""Doubly-linked total order of vector elements with O(1) ROTATE.

The paper's rotating vectors pair a version vector with a total order ``≺``
of its elements.  The order is "front = most recently modified": whenever
site *i* updates the replica, ``ROTATE(φ, i)`` moves the *i*-th element to
the first position.  During synchronization the receiver re-anchors received
elements with ``ROTATE(prev, i)`` so its front mirrors the sender's.

Each element carries, besides its value, the *conflict bit* used by CRV
(§3.2) and the *segment bit* used by SRV (§4).  The paper's modified ROTATE
carries a set segment bit to the element's predecessor, because a segment
bit of one marks the **last** element of a segment: when that element
leaves, its predecessor becomes the segment's new last element.  The carry
is a no-op for BRV/CRV, whose segment bits are never set, so this class
implements it unconditionally.

Storage is O(n) (assumption (i) in §3.3 grants O(1) dictionary operations).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple


class Element:
    """One vector element: site name, value, conflict bit, segment bit.

    Elements are nodes of the doubly-linked order; ``prev``/``next`` point
    toward the front (least, most recent) and back (greatest, oldest)
    respectively.  Client code treats instances as read-mostly views and
    mutates them only through :class:`ElementOrder`.
    """

    __slots__ = ("site", "value", "conflict", "segment", "prev", "next")

    def __init__(self, site: str, value: int) -> None:
        self.site = site
        self.value = value
        self.conflict = False
        self.segment = False
        self.prev: Optional[Element] = None
        self.next: Optional[Element] = None

    def __repr__(self) -> str:
        bits = ("̅" if self.conflict else "") + ("|" if self.segment else "")
        return f"({self.site}:{self.value}{bits})"


class ElementOrder:
    """The total order ``≺`` over a vector's non-zero elements.

    Provides the operations the paper's algorithms need, all O(1) except
    iteration:

    * ``first()`` / ``last()`` — ``⌊v⌋`` and ``⌈v⌉``.
    * ``rotate_front(site)`` — ``ROTATE(φ, i)``.
    * ``rotate_after(prev_site, site)`` — ``ROTATE(p, i)``;
      ``place_after`` is the same plus the element's field writes.
    * ``rows()`` — the ``≺`` walk the SYNC* senders stream.
    * element lookup by site name.
    """

    __slots__ = ("_by_site", "_head", "_tail", "_version")

    def __init__(self) -> None:
        self._by_site: Dict[str, Element] = {}
        self._head: Optional[Element] = None
        self._tail: Optional[Element] = None
        self._version = 0

    # -- change tracking -------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic mutation counter; derived caches key on it.

        Every rotation/removal bumps it.  Code that writes element fields
        directly (protocol receivers re-anchoring elements, segment-boundary
        writes) must call :meth:`touch` so caches keyed on the version — the
        SRV segment-partition cache in :mod:`repro.core.skip` — never serve
        a stale parse.
        """
        return self._version

    def touch(self) -> None:
        """Declare an out-of-band mutation (direct element field write)."""
        self._version += 1

    # -- lookups -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._by_site)

    def __contains__(self, site: str) -> bool:
        return site in self._by_site

    def get(self, site: str) -> Optional[Element]:
        """The element for ``site``, or None if its value is zero."""
        return self._by_site.get(site)

    def value(self, site: str) -> int:
        """``v[site]``; absent elements read as 0."""
        element = self._by_site.get(site)
        return element.value if element is not None else 0

    def first(self) -> Optional[Element]:
        """``⌊v⌋`` — the least (front, most recently modified) element."""
        return self._head

    def front(self) -> Optional[Tuple[str, int]]:
        """``⌊v⌋`` as a ``(site, value)`` pair — all COMPARE reads of it."""
        head = self._head
        return None if head is None else (head.site, head.value)

    def last(self) -> Optional[Element]:
        """``⌈v⌉`` — the greatest (back, oldest) element."""
        return self._tail

    def __iter__(self) -> Iterator[Element]:
        """Elements in ascending ``≺`` order (front to back)."""
        node = self._head
        while node is not None:
            yield node
            node = node.next

    def sites_in_order(self) -> List[str]:
        """Site names in ascending ≺ order."""
        return [element.site for element in self]

    # -- linking primitives ----------------------------------------------------

    def _unlink(self, element: Element) -> None:
        """Detach ``element``, carrying a set segment bit to its predecessor.

        The carry implements the paper's modified ROTATE for SRV: the bit
        marks a segment's last element, so when that element leaves its
        position the previous element inherits the boundary.  A predecessor
        of ``None`` means the element was the front; the (single-element)
        segment simply vanishes with it.
        """
        if element.segment and element.prev is not None:
            element.prev.segment = True
        if element.prev is not None:
            element.prev.next = element.next
        else:
            self._head = element.next
        if element.next is not None:
            element.next.prev = element.prev
        else:
            self._tail = element.prev
        element.prev = element.next = None

    def _link_front(self, element: Element) -> None:
        element.prev = None
        element.next = self._head
        if self._head is not None:
            self._head.prev = element
        self._head = element
        if self._tail is None:
            self._tail = element

    def _link_after(self, anchor: Element, element: Element) -> None:
        element.prev = anchor
        element.next = anchor.next
        if anchor.next is not None:
            anchor.next.prev = element
        else:
            self._tail = element
        anchor.next = element

    def _obtain(self, site: str) -> Element:
        """The element for ``site``, creating a detached zero element if new."""
        element = self._by_site.get(site)
        if element is None:
            element = Element(site, 0)
            self._by_site[site] = element
        return element

    # -- ROTATE ---------------------------------------------------------------

    def rotate_front(self, site: str) -> Element:
        """``ROTATE(φ, site)``: move (or insert) the element to the front.

        This is the hottest mutation in the system (every local update and
        most receiver-side re-anchors call it), so the unlink/relink is
        inlined rather than routed through the helpers.  A non-head element
        found linked always has a predecessor (a linked ``prev is None``
        node *is* the head, which returned already).
        """
        self._version += 1
        element = self._by_site.get(site)
        if element is None:
            element = Element(site, 0)
            self._by_site[site] = element
        elif element is self._head:
            return element
        else:
            prev = element.prev
            if prev is not None:
                nxt = element.next
                if element.segment:
                    prev.segment = True
                prev.next = nxt
                if nxt is not None:
                    nxt.prev = prev
                else:
                    self._tail = prev
        head = self._head
        element.prev = None
        element.next = head
        if head is not None:
            head.prev = element
        self._head = element
        if self._tail is None:
            self._tail = element
        return element

    def remove(self, site: str) -> Optional[Element]:
        """Permanently drop an element (site retirement, §7 pruning).

        Carries a set segment bit to the predecessor exactly like a
        rotation, so SRV segment parsing stays coherent.  Returns the
        detached element, or None if the site had no element.
        """
        element = self._by_site.pop(site, None)
        if element is None:
            return None
        self._version += 1
        self._unlink(element)
        return element

    def rotate_after(self, prev_site: Optional[str], site: str) -> Element:
        """``ROTATE(prev_site, site)``: place the element right after ``prev``.

        ``prev_site=None`` stands for the paper's ``p = φ`` and is equivalent
        to :meth:`rotate_front`.  Rotating an element after itself is a
        structural no-op (it already occupies the requested slot); like
        any anchor, it must be present, or this raises ``KeyError``.
        """
        if prev_site is None:
            return self.rotate_front(site)
        self._version += 1
        anchor = self._by_site.get(prev_site)
        if anchor is None:
            raise KeyError(f"anchor element {prev_site!r} not in order")
        if prev_site == site:
            return anchor
        element = self._obtain(site)
        if anchor.next is element:
            return element
        if element.prev is not None or element is self._head:
            self._unlink(element)
        self._link_after(anchor, element)
        return element

    def place_after(self, prev_site: Optional[str], site: str, value: int,
                    conflict: bool = False, segment: bool = False) -> None:
        """``ROTATE(prev_site, site)`` and write the element, in one call."""
        element = self.rotate_after(prev_site, site)
        element.value = value
        element.conflict = conflict
        element.segment = segment

    def set_segment(self, site: str, flag: bool = True) -> None:
        """Write ``site``'s segment bit (a declared mutation: bumps version)."""
        element = self._by_site.get(site)
        if element is None:
            raise KeyError(f"no element for site {site!r}")
        element.segment = flag
        self._version += 1

    # -- snapshots -----------------------------------------------------------

    def copy(self) -> "ElementOrder":
        """A deep copy preserving order, values, and both per-element bits.

        Builds the clone's links directly instead of replaying rotations —
        the source order is already correct, so each node needs exactly one
        construction and one link, with no per-element dictionary probes or
        anchor checks.  Vector copies dominate workload replay and cluster
        benchmarks, which is why this path is flattened.
        """
        clone = ElementOrder()
        by_site = clone._by_site
        tail: Optional[Element] = None
        node = self._head
        while node is not None:
            copied = Element(node.site, node.value)
            copied.conflict = node.conflict
            copied.segment = node.segment
            by_site[copied.site] = copied
            if tail is None:
                clone._head = copied
            else:
                tail.next = copied
                copied.prev = tail
            tail = copied
            node = node.next
        clone._tail = tail
        return clone

    def rows(self) -> Iterator[Tuple[str, int, bool, bool]]:
        """Lazily walk ``(site, value, conflict, segment)`` rows in ``≺`` order."""
        for e in self:
            yield e.site, e.value, e.conflict, e.segment

    def as_tuples(self) -> List[Tuple[str, int, bool, bool]]:
        """``(site, value, conflict, segment)`` rows in ``≺`` order."""
        return list(self.rows())

    def __repr__(self) -> str:
        return "⟨" + ", ".join(repr(e) for e in self) + "⟩"
