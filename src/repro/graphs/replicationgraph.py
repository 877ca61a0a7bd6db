"""Replication graphs (§4): the system-wide history of replica versions.

A replication graph of an object is a dag in which each node represents a
class of *identical replicas* and records their (rotating) vector.  Nodes
with one parent result from a single update on the parent version; nodes
with two parents result from conflict reconciliation.  The graph has a
single source (the initial replica); once the system quiesces into eventual
consistency it also has a single sink.

This structure is *analytic*: no site stores it (storing it would violate
the O(n) bound of Theorem 5.1 — that is exactly the theorem's point).  The
reproduction builds it alongside scripted and generated workloads to

* reproduce Figure 1 node-for-node,
* coalesce it into the CRG of Figure 2 (:mod:`repro.graphs.crg`), and
* evaluate the Π sets that bound the measured γ of SYNCS sessions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import GraphError

#: A structural snapshot of a rotating vector: ``(site, value)`` pairs in
#: ascending ≺ order (front first).  Plain version vectors use a canonical
#: sorted order instead.
VectorSnapshot = Tuple[Tuple[str, int], ...]


@dataclass
class VersionNode:
    """One replica-version class in the replication graph."""

    node_id: int
    vector: VectorSnapshot
    left_parent: Optional[int] = None
    right_parent: Optional[int] = None
    #: Sites currently hosting a replica of this exact version (labels in
    #: Figure 1); informational only.
    sites: Set[str] = field(default_factory=set)

    @property
    def parents(self) -> Tuple[int, ...]:
        return tuple(p for p in (self.left_parent, self.right_parent)
                     if p is not None)

    @property
    def is_merge(self) -> bool:
        return self.left_parent is not None and self.right_parent is not None

    @property
    def is_source(self) -> bool:
        return self.left_parent is None and self.right_parent is None

    def values(self) -> Dict[str, int]:
        """The vector as a plain ``{site: value}`` map."""
        return dict(self.vector)


class ReplicationGraph:
    """The evolving version dag of one replicated object."""

    def __init__(self) -> None:
        self._nodes: Dict[int, VersionNode] = {}
        self._children: Dict[int, List[int]] = {}
        self._next_id = 1

    # -- construction -------------------------------------------------------------

    def _new_node(self, vector: Sequence[Tuple[str, int]],
                  left: Optional[int], right: Optional[int],
                  node_id: Optional[int]) -> VersionNode:
        if node_id is None:
            node_id = self._next_id
        if node_id in self._nodes:
            raise GraphError(f"node id {node_id} already used")
        self._next_id = max(self._next_id, node_id) + 1
        for parent in (left, right):
            if parent is not None and parent not in self._nodes:
                raise GraphError(f"parent {parent} not in graph")
        node = VersionNode(node_id, tuple(vector), left, right)
        self._nodes[node_id] = node
        self._children[node_id] = []
        for parent in node.parents:
            self._children[parent].append(node_id)
        return node

    def add_initial(self, vector: Sequence[Tuple[str, int]], *,
                    node_id: Optional[int] = None) -> VersionNode:
        """The source node: the object's initial replica version."""
        if self._nodes:
            raise GraphError("replication graph already has a source")
        return self._new_node(vector, None, None, node_id)

    def add_update(self, parent: int, vector: Sequence[Tuple[str, int]], *,
                   node_id: Optional[int] = None) -> VersionNode:
        """A version produced by a single update on ``parent``."""
        return self._new_node(vector, parent, None, node_id)

    def add_merge(self, left: int, right: int,
                  vector: Sequence[Tuple[str, int]], *,
                  node_id: Optional[int] = None) -> VersionNode:
        """A version produced by reconciling two concurrent versions."""
        if left == right:
            raise GraphError("merge parents must differ")
        return self._new_node(vector, left, right, node_id)

    # -- lookups --------------------------------------------------------------------

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, node_id: int) -> VersionNode:
        """The version node ``node_id``; raises GraphError if absent."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise GraphError(f"no node {node_id}") from None

    def nodes(self) -> List[VersionNode]:
        """All version nodes, by ascending id (parents before children)."""
        return [self._nodes[i] for i in sorted(self._nodes)]

    def children(self, node_id: int) -> List[int]:
        """Ids of the node's children, in creation order."""
        return list(self._children.get(node_id, ()))

    def source(self) -> VersionNode:
        """The unique source (initial replica) node."""
        sources = [n for n in self._nodes.values() if n.is_source]
        if len(sources) != 1:
            raise GraphError(f"expected 1 source, found {len(sources)}")
        return sources[0]

    def sinks(self) -> List[int]:
        """Ids of childless nodes (current frontier versions)."""
        return sorted(i for i in self._nodes if not self._children[i])

    def ancestors(self, node_id: int) -> Set[int]:
        """All proper ancestors of ``node_id``."""
        result: Set[int] = set()
        stack = list(self.node(node_id).parents)
        while stack:
            current = stack.pop()
            if current in result:
                continue
            result.add(current)
            stack.extend(self._nodes[current].parents)
        return result

    def label(self, node_id: int, site: str) -> None:
        """Record that ``site`` currently hosts this version."""
        for node in self._nodes.values():
            node.sites.discard(site)
        self.node(node_id).sites.add(site)
