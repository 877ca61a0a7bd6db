"""Hash histories (Kang, Wilensky & Kubiatowicz, ICDCS 2003).

An alternative conflict-detection scheme the paper cites (§2.2): each
replica keeps a dag of *version hashes* — one per version, linked to its
parents — and dominance is decided by head-hash membership.  Site-count
independence is traded for storage that grows with the total number of
versions, which is exactly the comparison experiment E7 measures against
vectors (Observation 2.1: vectors have the minimal storage among accurate
schemes).

Hashes here are deterministic 128-bit values derived from the version's
lineage (BLAKE2b), so two replicas that converge on the same history agree
on every hash without coordination.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Set, Tuple

from repro.core.order import Ordering

#: Size of one stored/transmitted version hash.
HASH_BITS = 128


def _digest(*parts: str) -> str:
    joined = "\x1f".join(parts)
    return hashlib.blake2b(joined.encode("utf-8"), digest_size=16).hexdigest()


class HashHistory:
    """A replica's version-hash dag with a single current head."""

    __slots__ = ("_parents", "_head")

    def __init__(self) -> None:
        self._parents: Dict[str, Tuple[str, ...]] = {}
        self._head: Optional[str] = None

    # -- construction ------------------------------------------------------------

    @classmethod
    def create(cls, site: str) -> "HashHistory":
        """A new object's history: one root version."""
        history = cls()
        root = _digest("root", site)
        history._parents[root] = ()
        history._head = root
        return history

    def copy(self) -> "HashHistory":
        """An independent deep copy."""
        clone = HashHistory()
        clone._parents = dict(self._parents)
        clone._head = self._head
        return clone

    @property
    def head(self) -> str:
        if self._head is None:
            raise ValueError("empty hash history")
        return self._head

    def __len__(self) -> int:
        return len(self._parents)

    def __contains__(self, version: str) -> bool:
        return version in self._parents

    # -- updates -------------------------------------------------------------------

    def record_update(self, site: str) -> str:
        """A local update: new version hashed from (head, site)."""
        version = _digest("update", self.head, site)
        self._parents[version] = (self.head,)
        self._head = version
        return version

    def merge(self, other: "HashHistory", site: str) -> str:
        """Reconcile with a concurrent history: union + a merge version."""
        for version, parents in other._parents.items():
            self._parents.setdefault(version, parents)
        left, right = sorted((self.head, other.head))
        version = _digest("merge", left, right, site)
        self._parents[version] = (left, right)
        self._head = version
        return version

    def fast_forward(self, other: "HashHistory") -> None:
        """Adopt a dominating history's versions and head."""
        if self.compare(other) is not Ordering.BEFORE:
            raise ValueError("fast_forward requires self ≺ other")
        for version, parents in other._parents.items():
            self._parents.setdefault(version, parents)
        self._head = other._head

    # -- comparison -----------------------------------------------------------------

    def compare(self, other: "HashHistory") -> Ordering:
        """Dominance by mutual head membership (the scheme's O(1) check)."""
        i_know = other.head in self._parents
        they_know = self.head in other._parents
        if i_know and they_know:
            return Ordering.EQUAL
        if they_know:
            return Ordering.BEFORE
        if i_know:
            return Ordering.AFTER
        return Ordering.CONCURRENT

    # -- accounting ---------------------------------------------------------------------

    def storage_bits(self) -> int:
        """Stored metadata: every version hash plus its parent links."""
        total = 0
        for version, parents in self._parents.items():
            total += HASH_BITS + len(parents) * HASH_BITS
        return total

    def missing_versions(self, other: "HashHistory") -> Set[str]:
        """Versions of ``other`` this history lacks (sync difference)."""
        return {v for v in other._parents if v not in self._parents}

    def parents_of(self, version: str) -> Tuple[str, ...]:
        """The (≤2) parent hashes of ``version``."""
        return self._parents[version]

    def install(self, version: str, parents: Tuple[str, ...]) -> None:
        """Insert one version record (used by the exchange protocol)."""
        self._parents.setdefault(version, parents)

    def adopt_head(self, version: str) -> None:
        """Move the head to a version already in the history."""
        if version not in self._parents:
            raise ValueError(f"unknown version {version}")
        self._head = version


def exchange_hash_histories(a: "HashHistory", b: "HashHistory",
                            *, site: str) -> Tuple[int, int]:
    """Kang et al.'s synchronization: ship the version-hash difference.

    Brings *a* up to date from *b* (fast-forward or merge-at-``site``) and
    returns ``(versions transferred, bits transferred)``.  Unlike the
    rotating-vector protocols there is no incremental termination trick:
    without a recency structure the parties must identify the difference,
    which the original system does by exchanging the *entire* hash set (or
    Bloom filters over it) — we charge the honest full-set exchange one
    way plus the missing records back, each hash at
    :data:`HASH_BITS` and each parent link likewise.
    """
    from repro.core.order import Ordering as _Ordering

    verdict = a.compare(b)
    # a announces its full version set; b answers with what a lacks.
    announce_bits = len(a) * HASH_BITS
    missing = a.missing_versions(b)
    transfer_bits = sum(HASH_BITS + len(b.parents_of(v)) * HASH_BITS
                        for v in missing)
    for version in missing:
        a.install(version, b.parents_of(version))
    if verdict is _Ordering.BEFORE:
        a.adopt_head(b.head)
    elif verdict is _Ordering.CONCURRENT:
        a.merge(b, site)
    return len(missing), announce_bits + transfer_bits
