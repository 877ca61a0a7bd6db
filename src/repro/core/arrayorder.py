"""Array-backed total order of vector elements with O(1) ROTATE.

Drop-in alternative to :class:`repro.core.linkedorder.ElementOrder`: the
same operations and semantics (including the segment-bit carry of the
paper's modified ROTATE), but flat storage.  Element fields live in
parallel Python lists (``site``/``value``/``conflict``/``segment``) and
the ``≺`` links are integer indices into two more lists — no per-element
node objects, no pointer chasing through the heap.

Why it is faster than the linked representation:

* ``copy()`` is six ``list.copy()`` calls plus one ``dict.copy()`` — all
  C-speed bulk copies — instead of allocating and re-linking one
  ``Element`` object per entry.  Vector snapshots dominate cluster
  benchmarks and chaos-mode session resume, which makes this the single
  biggest win.
* bulk construction (:meth:`extend_back`) appends whole rows without the
  per-element anchor checks ``rotate_after`` pays, so ``from_pairs`` and
  ``from_segments`` are one pass.
* batch walks (:meth:`as_tuples`, :meth:`pairs_in_order`,
  :meth:`values_dict`, :meth:`record_update`, :meth:`rotate_many`)
  read the arrays directly with the index hops inlined, instead of
  attribute-chasing node objects.

COMPARE and the SYNC* protocols run on five array-level methods and
never hold an element: COMPARE reads :meth:`ArrayElementOrder.front`,
senders stream :meth:`~ArrayElementOrder.rows`, receivers look up
:meth:`~ArrayElementOrder.value` and place each new element with one
:meth:`~ArrayElementOrder.place_after` call (ROTATE plus the field
writes), and SYNCS seals a run with
:meth:`~ArrayElementOrder.set_segment`.

Code that does want an element in hand (``first()``, ``get()``,
iteration) gets a lightweight :class:`ArrayElement` *view*: a slotted
handle onto one index whose properties read and write the arrays in
place.  Views are created on first request and cached per slot, so
identity is stable for the lifetime of the element; an order nobody asks
for a view allocates none.

Removal (§7 site retirement) unlinks the slot and drops it from the site
table but leaves the row in place — exactly like a detached linked-list
node, the returned element stays readable.  Dead rows are bounded by the
number of removals and vanish at the next :meth:`copy` (clones compact).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

#: One element as the protocols see it: ``(site, value, conflict, segment)``.
Row = Tuple[str, int, bool, bool]

#: Index sentinel for "no neighbor" (the linked ``None``).
_NIL = -1


class ArrayElement:
    """A view onto one slot of an :class:`ArrayElementOrder`.

    Implements the :class:`~repro.core.linkedorder.Element` surface —
    ``site``/``value``/``conflict``/``segment`` fields (the latter three
    writable) and ``prev``/``next`` traversal — as properties over the
    owning order's arrays.  Client code cannot tell the backends apart.
    """

    __slots__ = ("_order", "_index")

    def __init__(self, order: "ArrayElementOrder", index: int) -> None:
        self._order = order
        self._index = index

    @property
    def site(self) -> str:
        return self._order._sites[self._index]

    @property
    def value(self) -> int:
        return self._order._values[self._index]

    @value.setter
    def value(self, new: int) -> None:
        self._order._values[self._index] = new

    @property
    def conflict(self) -> bool:
        return self._order._conflicts[self._index]

    @conflict.setter
    def conflict(self, flag: bool) -> None:
        self._order._conflicts[self._index] = flag

    @property
    def segment(self) -> bool:
        return self._order._segments[self._index]

    @segment.setter
    def segment(self, flag: bool) -> None:
        self._order._segments[self._index] = flag

    @property
    def prev(self) -> Optional["ArrayElement"]:
        index = self._order._prv[self._index]
        return None if index == _NIL else self._order._view(index)

    @property
    def next(self) -> Optional["ArrayElement"]:
        index = self._order._nxt[self._index]
        return None if index == _NIL else self._order._view(index)

    def __repr__(self) -> str:
        bits = ("̅" if self.conflict else "") + ("|" if self.segment else "")
        return f"({self.site}:{self.value}{bits})"


class ArrayElementOrder:
    """The total order ``≺``, stored as parallel arrays with index links.

    API-compatible with :class:`~repro.core.linkedorder.ElementOrder`:
    every operation, error, and semantic detail (version counter,
    ``touch``, the segment-bit carry on unlink) matches, and the
    equivalence property suite (``tests/core/test_array_equivalence.py``)
    drives both backends through random interleavings to prove it.
    """

    __slots__ = ("_sites", "_values", "_conflicts", "_segments",
                 "_prv", "_nxt", "_by_site", "_head", "_tail",
                 "_views", "_version")

    def __init__(self) -> None:
        self._sites: List[str] = []
        self._values: List[int] = []
        self._conflicts: List[bool] = []
        self._segments: List[bool] = []
        self._prv: List[int] = []
        self._nxt: List[int] = []
        self._by_site: Dict[str, int] = {}
        self._head = _NIL
        self._tail = _NIL
        self._views: Optional[Dict[int, ArrayElement]] = None
        self._version = 0

    # -- change tracking -------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic mutation counter; derived caches key on it."""
        return self._version

    def touch(self) -> None:
        """Declare an out-of-band mutation (direct element field write)."""
        self._version += 1

    # -- views -----------------------------------------------------------------

    def _view(self, index: int) -> ArrayElement:
        views = self._views
        if views is None:
            views = self._views = {}
        view = views.get(index)
        if view is None:
            view = views[index] = ArrayElement(self, index)
        return view

    # -- lookups -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._by_site)

    def __contains__(self, site: str) -> bool:
        return site in self._by_site

    def get(self, site: str) -> Optional[ArrayElement]:
        """The element for ``site``, or None if its value is zero."""
        index = self._by_site.get(site)
        return None if index is None else self._view(index)

    def value(self, site: str) -> int:
        """``v[site]``; absent elements read as 0."""
        index = self._by_site.get(site)
        return 0 if index is None else self._values[index]

    def first(self) -> Optional[ArrayElement]:
        """``⌊v⌋`` — the least (front, most recently modified) element."""
        return None if self._head == _NIL else self._view(self._head)

    def front(self) -> Optional[Tuple[str, int]]:
        """``⌊v⌋`` as a ``(site, value)`` pair — all COMPARE reads of it."""
        head = self._head
        return None if head == _NIL else (self._sites[head],
                                          self._values[head])

    def last(self) -> Optional[ArrayElement]:
        """``⌈v⌉`` — the greatest (back, oldest) element."""
        return None if self._tail == _NIL else self._view(self._tail)

    def __iter__(self) -> Iterator[ArrayElement]:
        """Elements in ascending ``≺`` order (front to back)."""
        index = self._head
        nxt = self._nxt
        while index != _NIL:
            yield self._view(index)
            index = nxt[index]

    def sites_in_order(self) -> List[str]:
        """Site names in ascending ≺ order (direct array walk)."""
        result: List[str] = []
        index, sites, nxt = self._head, self._sites, self._nxt
        while index != _NIL:
            result.append(sites[index])
            index = nxt[index]
        return result

    def pairs_in_order(self) -> List[Tuple[str, int]]:
        """``(site, value)`` rows in ≺ order, no view objects involved."""
        result: List[Tuple[str, int]] = []
        index = self._head
        sites, values, nxt = self._sites, self._values, self._nxt
        while index != _NIL:
            result.append((sites[index], values[index]))
            index = nxt[index]
        return result

    def values_dict(self) -> Dict[str, int]:
        """``{site: value}`` over the *linked* elements only.

        Walks the links rather than dumping the site table, exactly like
        iterating the linked backend.
        """
        result: Dict[str, int] = {}
        index = self._head
        sites, values, nxt = self._sites, self._values, self._nxt
        while index != _NIL:
            result[sites[index]] = values[index]
            index = nxt[index]
        return result

    def total_value(self) -> int:
        """Sum of all linked element values (direct array walk)."""
        total = 0
        index, values, nxt = self._head, self._values, self._nxt
        while index != _NIL:
            total += values[index]
            index = nxt[index]
        return total

    # -- allocation ------------------------------------------------------------

    def _new_slot(self, site: str, value: int) -> int:
        index = len(self._sites)
        self._sites.append(site)
        self._values.append(value)
        self._conflicts.append(False)
        self._segments.append(False)
        self._prv.append(_NIL)
        self._nxt.append(_NIL)
        self._by_site[site] = index
        return index

    def _unlink(self, index: int) -> None:
        """Detach a linked slot, carrying a set segment bit backward."""
        prv, nxt = self._prv, self._nxt
        before, after = prv[index], nxt[index]
        if self._segments[index] and before != _NIL:
            self._segments[before] = True
        if before != _NIL:
            nxt[before] = after
        else:
            self._head = after
        if after != _NIL:
            prv[after] = before
        else:
            self._tail = before
        prv[index] = nxt[index] = _NIL

    def _link_front(self, index: int) -> None:
        head = self._head
        self._prv[index] = _NIL
        self._nxt[index] = head
        if head != _NIL:
            self._prv[head] = index
        self._head = index
        if self._tail == _NIL:
            self._tail = index

    # -- ROTATE ---------------------------------------------------------------

    def _front(self, site: str) -> int:
        """``ROTATE(φ, site)`` on the arrays; returns the slot index."""
        self._version += 1
        index = self._by_site.get(site)
        if index is None:
            index = self._new_slot(site, 0)
        elif index == self._head:
            return index
        elif self._prv[index] != _NIL:
            # Linked and not the head, mirroring the linked backend.
            self._unlink(index)
        self._link_front(index)
        return index

    def rotate_front(self, site: str) -> ArrayElement:
        """``ROTATE(φ, site)``: move (or insert) the element to the front."""
        return self._view(self._front(site))

    def record_update(self, site: str) -> int:
        """Local-update fast path: rotate front, increment, clear bits.

        One array pass instead of a rotation plus three view property
        writes; the semantics are exactly
        :meth:`~repro.core.rotating.BasicRotatingVector.record_update`.
        """
        self._version += 1
        index = self._by_site.get(site)
        if index is None:
            index = self._new_slot(site, 0)
            self._link_front(index)
        elif index != self._head:
            if self._prv[index] != _NIL:
                self._unlink(index)
            self._link_front(index)
        value = self._values[index] + 1
        self._values[index] = value
        self._conflicts[index] = False
        self._segments[index] = False
        return value

    def rotate_many(self, sites: List[str]) -> None:
        """Apply ``rotate_front`` for each site in order, one version bump.

        Equivalent to the sequential loop (the last site ends up at the
        front) with the per-call bookkeeping hoisted out and the
        unlink/relink surgery inlined over the hoisted arrays.
        """
        self._version += 1
        by_site = self._by_site
        prv, nxt, segments = self._prv, self._nxt, self._segments
        head, tail = self._head, self._tail
        for site in sites:
            index = by_site.get(site)
            if index is None:
                index = self._new_slot(site, 0)
            elif index == head:
                continue
            else:
                before = prv[index]
                if before != _NIL:
                    # Linked mid-list: splice out, carrying the segment
                    # bit to the predecessor (same as ``_unlink``).
                    after = nxt[index]
                    if segments[index]:
                        segments[before] = True
                    nxt[before] = after
                    if after != _NIL:
                        prv[after] = before
                    else:
                        tail = before
            prv[index] = _NIL
            nxt[index] = head
            if head != _NIL:
                prv[head] = index
            head = index
            if tail == _NIL:
                tail = index
        self._head, self._tail = head, tail

    def remove(self, site: str) -> Optional[ArrayElement]:
        """Permanently drop an element (site retirement, §7 pruning).

        The slot is unlinked (with the segment-bit carry) and removed
        from the site table; the row itself stays readable through the
        returned view, like a detached linked node.  Dead rows compact
        away on the next :meth:`copy`.
        """
        index = self._by_site.pop(site, None)
        if index is None:
            return None
        self._version += 1
        view = self._view(index)
        if self._prv[index] != _NIL or index == self._head:
            self._unlink(index)
        return view

    def _place(self, prev_site: Optional[str], site: str) -> int:
        """``ROTATE(prev_site, site)`` on the arrays; returns the slot index."""
        if prev_site is None:
            return self._front(site)
        self._version += 1
        by_site = self._by_site
        anchor = by_site.get(prev_site)
        if anchor is None:
            raise KeyError(f"anchor element {prev_site!r} not in order")
        if prev_site == site:
            return anchor
        index = by_site.get(site)
        if index is None:
            index = self._new_slot(site, 0)
        prv, nxt = self._prv, self._nxt
        if nxt[anchor] == index:
            return index
        if prv[index] != _NIL or index == self._head:
            self._unlink(index)
        # Link after the anchor.
        after = nxt[anchor]
        prv[index] = anchor
        nxt[index] = after
        if after != _NIL:
            prv[after] = index
        else:
            self._tail = index
        nxt[anchor] = index
        return index

    def rotate_after(self, prev_site: Optional[str], site: str
                     ) -> ArrayElement:
        """``ROTATE(prev_site, site)``: place the element after ``prev``."""
        return self._view(self._place(prev_site, site))

    def place_after(self, prev_site: Optional[str], site: str, value: int,
                    conflict: bool = False, segment: bool = False) -> None:
        """``ROTATE(prev_site, site)`` and write the element, in one call.

        The receive-side primitive of the SYNC* protocols: exactly
        :meth:`rotate_after` (front placement on ``prev_site=None``,
        self-anchor and already-adjacent no-ops, the segment-bit carry on
        unlink, one version bump) followed by the three field writes,
        without handing out a view.
        """
        index = self._place(prev_site, site)
        self._values[index] = value
        self._conflicts[index] = conflict
        self._segments[index] = segment

    def set_segment(self, site: str, flag: bool = True) -> None:
        """Write ``site``'s segment bit (a declared mutation: bumps version)."""
        index = self._by_site.get(site)
        if index is None:
            raise KeyError(f"no element for site {site!r}")
        self._segments[index] = flag
        self._version += 1

    # -- bulk construction -----------------------------------------------------

    def extend_back(self, rows: List[Tuple[str, int]]) -> None:
        """Append ``(site, value)`` rows at the back, in order, one pass.

        The bulk body of ``from_pairs``: rows must name sites not already
        present (the caller validates — this is the unchecked fast path).
        """
        if not rows:
            return
        self._version += 1
        base = len(self._sites)
        by_site = self._by_site
        for offset, (site, value) in enumerate(rows):
            by_site[site] = base + offset
            self._sites.append(site)
            self._values.append(value)
        count = len(rows)
        self._conflicts.extend([False] * count)
        self._segments.extend([False] * count)
        self._prv.extend(range(base - 1, base + count - 1))
        self._nxt.extend(range(base + 1, base + count + 1))
        self._nxt[-1] = _NIL
        if self._tail != _NIL:
            self._nxt[self._tail] = base
            self._prv[base] = self._tail
        else:
            self._head = base
            self._prv[base] = _NIL
        self._tail = base + count - 1

    # -- snapshots -----------------------------------------------------------

    def copy(self) -> "ArrayElementOrder":
        """A deep copy: bulk array copies, no per-element allocation.

        When no slots are dead the arrays are copied verbatim (C-speed
        ``list.copy``); a removal-scarred order is compacted into fresh
        contiguous arrays instead.
        """
        clone = ArrayElementOrder.__new__(ArrayElementOrder)
        clone._version = 0
        clone._views = None
        if len(self._by_site) == len(self._sites):
            clone._sites = self._sites.copy()
            clone._values = self._values.copy()
            clone._conflicts = self._conflicts.copy()
            clone._segments = self._segments.copy()
            clone._prv = self._prv.copy()
            clone._nxt = self._nxt.copy()
            clone._by_site = self._by_site.copy()
            clone._head = self._head
            clone._tail = self._tail
            return clone
        # Compacting path: walk the links once, emitting rows in ≺ order.
        sites: List[str] = []
        values: List[int] = []
        conflicts: List[bool] = []
        segments: List[bool] = []
        index = self._head
        nxt = self._nxt
        while index != _NIL:
            sites.append(self._sites[index])
            values.append(self._values[index])
            conflicts.append(self._conflicts[index])
            segments.append(self._segments[index])
            index = nxt[index]
        count = len(sites)
        clone._sites = sites
        clone._values = values
        clone._conflicts = conflicts
        clone._segments = segments
        clone._prv = list(range(-1, count - 1))
        clone._nxt = list(range(1, count + 1))
        if count:
            clone._nxt[-1] = _NIL
        clone._by_site = {site: position
                          for position, site in enumerate(sites)}
        clone._head = 0 if count else _NIL
        clone._tail = count - 1 if count else _NIL
        return clone

    def rows(self) -> Iterator[Row]:
        """Lazily walk ``(site, value, conflict, segment)`` rows in ``≺`` order.

        The send-side primitive of the SYNC* protocols: the same hop as an
        ``element.next`` chain, taken on the arrays.  Each row is read when
        the walk reaches it, so the order must not be written while a walk
        is in flight — every driver already guarantees that of a sender's
        vector for the length of a session (busy-site deferral in the
        cluster runner, key holds in the store).
        """
        index = self._head
        sites, values = self._sites, self._values
        conflicts, segments, nxt = self._conflicts, self._segments, self._nxt
        while index != _NIL:
            yield sites[index], values[index], conflicts[index], segments[index]
            index = nxt[index]

    def as_tuples(self) -> List[Row]:
        """``(site, value, conflict, segment)`` rows in ``≺`` order."""
        return list(self.rows())

    def __repr__(self) -> str:
        return "⟨" + ", ".join(repr(e) for e in self) + "⟩"
