"""Per-site key-value tables with one rotating vector per key.

The paper's vectors exist to serve replicated *data*; this module is the
data.  A :class:`SiteStore` maps each key to a :class:`KeyRecord` holding
the key's own rotating vector (any class from the protocol registry) and
its current *siblings* — the set of values written concurrently and not
yet superseded.  The client semantics follow the Dotted-Version-Vector
workload shape (Preguiça et al.; see also the ``SimDataStore`` design in
SNIPPETS.md):

* ``get`` returns every live sibling plus a *causal context* — a plain
  ``{site: count}`` snapshot of the key's vector at read time.
* ``put`` with a context that **covers** the key's current vector is a
  causal overwrite: it supersedes every sibling the client has seen.  A
  put with a stale (or absent) context is *concurrent* with the current
  state and lands as an additional sibling — no write is ever silently
  lost.
* ``delete`` is a put of the :data:`TOMBSTONE` sentinel; a key whose
  only sibling is the tombstone reads as absent (but its vector — and
  therefore its causal history — remains).

Every client write calls ``vector.record_update(site)``, so per-key
vectors evolve exactly like the paper's per-replica vectors and the
unmodified SYNC* protocols synchronize them key by key.  Sibling sets are
kept in a canonical sort order and merged by set union, which is
order-insensitive and idempotent — the convergence argument for
anti-entropy (see :mod:`repro.store.cluster`) rests on it.

Knowledge vector and stamps
---------------------------

One level up, the *keyspace* is synchronized the way the paper
synchronizes a vector: by sending only what the peer lacks.  Every state
change of a key is an *event* with a :data:`Dot` ``(origin, counter)``:
a local put/delete or a concurrent merge mints the next dot of this
site, and adopting a dominating peer state copies the peer's dot along
with the state — so one dot names one state of one key, fleet-wide.  A
record's ``stamp`` is the dot of its current state, and
:attr:`SiteStore.knowledge` is ``{origin: counter}`` with the invariant
anti-entropy rests on: for every event ``(o, n)`` with
``n <= knowledge[o]``, this site's vector for that event's key dominates
the vector the key had right after the event.  A per-origin index of the
stamps, sorted by counter, answers "which keys does a peer with
knowledge ``K`` lack" (:meth:`SiteStore.keys_beyond`) in time
proportional to the answer, never to the table.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.order import Ordering
from repro.core.rotating import BasicRotatingVector


class _Tombstone:
    """Singleton delete marker; sorts after every real value."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<deleted>"


#: The delete marker stored as a sibling value.
TOMBSTONE = _Tombstone()

#: A causal context: a plain ``{site: count}`` vector snapshot.
CausalContext = Dict[str, int]

#: One key-state event's identity: ``(origin site, origin's counter)``.
Dot = Tuple[str, int]


def _sort_key(value: Any) -> Tuple[int, str]:
    # Tombstones last, everything else by its string form: a canonical
    # order over arbitrary (possibly mixed-type) sibling values.
    return (1 if value is TOMBSTONE else 0, str(value))


def merge_siblings(*groups: Iterable[Any]) -> Tuple[Any, ...]:
    """Set union of sibling groups, in canonical order.

    Union is commutative, associative, and idempotent, so any two sites
    that have exchanged the same writes end up with the identical tuple
    regardless of delivery order — the CRDT-style property the store's
    convergence check relies on.

    Must stay linear in the total input: hot keys grow sibling sets of a
    hundred and more, and how many depends on the interleaving, so
    anything superlinear here makes a run's cost swing severalfold with
    the seed.  Only unhashable values are compared pairwise.
    """
    merged: List[Any] = []
    seen: set = set()
    for group in groups:
        for value in group:
            try:
                if value in seen:
                    continue
                seen.add(value)
            except TypeError:
                if any(value is other or value == other for other in merged):
                    continue
            merged.append(value)
    merged.sort(key=_sort_key)
    return tuple(merged)


def context_covers(context: Optional[CausalContext],
                   vector: BasicRotatingVector) -> bool:
    """Whether ``context`` dominates every element of ``vector``.

    A covering context proves the writer observed (a superset of) the
    key's current causal history, so its put may supersede the siblings.
    """
    if context is None:
        return False
    return all(context.get(site, 0) >= count
               for site, count in vector.elements())


@dataclass
class ReadResult:
    """What one ``get`` observed.

    ``values`` excludes tombstones; ``context`` is the causal context to
    thread into the next ``put`` of this key; ``as_of`` is the newest
    client-write time this replica has absorbed for the key (the
    staleness reference), and ``exists`` is False for missing or fully
    deleted keys.
    """

    key: str
    values: Tuple[Any, ...]
    context: CausalContext
    as_of: float = 0.0

    @property
    def exists(self) -> bool:
        return bool(self.values)


@dataclass
class KeyRecord:
    """One key's replicated state at one site."""

    vector: BasicRotatingVector
    siblings: Tuple[Any, ...] = ()
    #: Newest client-write simulated time reflected here (local writes
    #: and writes absorbed via anti-entropy alike) — the staleness clock.
    updated_at: float = 0.0
    #: Dot of the event that produced this state; ``None`` only for a
    #: never-written placeholder (which has nothing to offer a peer).
    stamp: Optional[Dot] = None

    def live_values(self) -> Tuple[Any, ...]:
        """The sibling values a client sees: tombstones filtered out."""
        return tuple(v for v in self.siblings if v is not TOMBSTONE)


class SiteStore:
    """One site's key→record table.

    The store is deliberately passive: it validates and applies client
    operations against local state only.  Cross-site movement — sibling
    exchange, read-repair, anti-entropy — is the cluster scheduler's job
    (:mod:`repro.store.cluster`), which synchronizes the records' vectors
    with the stock SYNC* coroutines and merges siblings by verdict.
    """

    def __init__(self, site: str, vector_cls: type = BasicRotatingVector
                 ) -> None:
        self.site = site
        self.vector_cls = vector_cls
        self.table: Dict[str, KeyRecord] = {}
        #: ``{origin: events seen}`` — see the module docstring.
        self.knowledge: Dict[str, int] = {}
        #: origin → ``(counter, key)`` of every current stamp, sorted.
        self._stamped: Dict[str, List[Tuple[int, str]]] = {}

    # -- local state -------------------------------------------------------

    def keys(self) -> List[str]:
        """Known keys, sorted (deterministic iteration everywhere)."""
        return sorted(self.table)

    def record(self, key: str) -> KeyRecord:
        """The key's record, created empty on first touch."""
        record = self.table.get(key)
        if record is None:
            record = self.table[key] = KeyRecord(vector=self.vector_cls())
        return record

    def context_of(self, key: str) -> CausalContext:
        """The key's current causal context ({} for an absent key)."""
        record = self.table.get(key)
        if record is None:
            return {}
        return dict(record.vector.elements())

    def sibling_population(self) -> int:
        """Total stored sibling values across keys, tombstones included
        (the consistency observatory's divergence gauge)."""
        return sum(len(record.siblings) for record in self.table.values())

    # -- knowledge and stamps ----------------------------------------------

    def _stamp(self, key: str, record: KeyRecord,
               dot: Optional[Dot]) -> None:
        """Move ``key`` to ``dot`` in the per-origin index."""
        old = record.stamp
        if old == dot:
            return
        if old is not None:
            entries = self._stamped[old[0]]
            del entries[bisect_left(entries, (old[1], key))]
        if dot is not None:
            # Own dots only grow, so a mint appends; an adopted dot can
            # arrive in any order (read-repair runs ahead of knowledge).
            insort(self._stamped.setdefault(dot[0], []), (dot[1], key))
        record.stamp = dot

    def _mint(self, key: str, record: KeyRecord) -> None:
        """Stamp ``key`` with this site's next dot."""
        counter = self.knowledge.get(self.site, 0) + 1
        self.knowledge[self.site] = counter
        self._stamp(key, record, (self.site, counter))

    def keys_beyond(self, knowledge: Mapping[str, int]) -> List[str]:
        """Keys whose stamp ``knowledge`` does not cover, sorted.

        The keys a peer that has seen ``knowledge`` may lack.  Costs one
        binary search per origin plus the selected keys — the table is
        never walked.
        """
        selected: List[str] = []
        for origin, entries in self._stamped.items():
            start = bisect_left(entries, (knowledge.get(origin, 0) + 1,))
            selected += [key for _, key in entries[start:]]
        selected.sort()
        return selected

    def learn(self, knowledge: Mapping[str, int]) -> None:
        """Raise :attr:`knowledge` to the element-wise max with a peer's.

        Only sound once every key :meth:`keys_beyond` selected at that
        peer has been synchronized here — the caller's obligation.
        """
        own = self.knowledge
        for origin, counter in knowledge.items():
            if counter > own.get(origin, 0):
                own[origin] = counter

    # -- client operations -------------------------------------------------

    def get(self, key: str) -> ReadResult:
        """Read every live sibling plus the key's causal context."""
        record = self.table.get(key)
        if record is None:
            return ReadResult(key=key, values=(), context={})
        return ReadResult(key=key, values=record.live_values(),
                          context=dict(record.vector.elements()),
                          as_of=record.updated_at)

    def put(self, key: str, value: Any, *,
            context: Optional[CausalContext] = None,
            now: float = 0.0) -> ReadResult:
        """Write ``value``; supersede siblings iff ``context`` covers.

        Returns the post-write read (whose context lets a session-sticky
        client chain causal writes without an intervening get).
        """
        record = self.record(key)
        if context_covers(context, record.vector) or not record.siblings:
            siblings: Tuple[Any, ...] = (value,)
        else:
            # Concurrent with state this writer has not seen: keep both.
            siblings = merge_siblings(record.siblings, (value,))
        record.vector.record_update(self.site)
        record.siblings = siblings
        record.updated_at = max(record.updated_at, now)
        self._mint(key, record)
        return ReadResult(key=key, values=record.live_values(),
                          context=dict(record.vector.elements()),
                          as_of=record.updated_at)

    def delete(self, key: str, *,
               context: Optional[CausalContext] = None,
               now: float = 0.0) -> ReadResult:
        """Write the tombstone; covered deletes empty the sibling set."""
        return self.put(key, TOMBSTONE, context=context, now=now)

    # -- anti-entropy ------------------------------------------------------

    def absorb(self, key: str, verdict: Ordering,
               src_siblings: Tuple[Any, ...], src_updated_at: float,
               src_stamp: Optional[Dot] = None) -> bool:
        """Fold a completed sync session's outcome into ``key``.

        The session already synchronized the *vectors* (the cluster
        installed the copy the SYNC* coroutines merged into); this
        applies the matching sibling rule, keyed on the pre-session
        verdict:

        * ``BEFORE`` — the sender strictly dominated: adopt its siblings
          and, with them, its stamp (the same state carries the same dot
          everywhere; without a ``src_stamp`` a fresh one is minted,
          which is safe and merely re-offers the key to peers).
        * concurrent — the receiver merged the vectors: union the
          sibling sets (no write from either side is dropped).  The
          merged state is new, so it gets a fresh dot of this site.
        * ``AFTER``/``EQUAL`` — the receiver knew everything: no change.

        Returns True when the sibling set (or staleness clock) moved.
        """
        record = self.record(key)
        if verdict is Ordering.BEFORE:
            changed = record.siblings != src_siblings
            record.siblings = src_siblings
            if src_stamp is None:
                self._mint(key, record)
            else:
                self._stamp(key, record, src_stamp)
        elif verdict.is_concurrent:
            merged = merge_siblings(record.siblings, src_siblings)
            changed = record.siblings != merged
            record.siblings = merged
            self._mint(key, record)
        else:
            return False
        if src_updated_at > record.updated_at:
            record.updated_at = src_updated_at
            changed = True
        return changed
