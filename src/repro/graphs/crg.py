"""Coalesced replication graphs (CRG), prefixing segments, and Π sets (§4).

A CRG is a replication graph in which consecutive single-parent nodes, each
with at most one child, merge into one node whose vector is the youngest of
the chain.  In a CRG every single-parent node *prefixes* its parent's
vector with a unique run of elements — its **prefixing segment** — and a
vector is nothing but a series of such segments.  Segments have the three
properties (§4) that justify SYNCS's skipping:

i.   element sets are unique across segments,
ii.  intra-segment order persists from vector to vector,
iii. segments only ever shrink.

``Π_v`` is the set of non-merge CRG nodes among v's node and its ancestors;
the segments of v (including vanished ones) map bijectively onto ``Π_v``,
and Theorem 5.1's lower bound — as well as the γ of any concrete
``SYNCS_b(a)`` run, which satisfies ``γ ≤ |Π_a ∩ Π_b|`` — is stated in
terms of it.  The benchmark for experiment E6 checks that inequality on
live sessions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import GraphError
from repro.graphs.replicationgraph import (ReplicationGraph, VectorSnapshot,
                                           VersionNode)


@dataclass
class CRGNode:
    """One coalesced node: a maximal chain of single-parent versions."""

    #: Original replication-graph node ids, oldest first.
    members: Tuple[int, ...]
    #: Vector of the youngest member (the chain's final version).
    vector: VectorSnapshot
    left_parent: Optional[int] = None   # id = youngest member of parent node
    right_parent: Optional[int] = None
    is_merge: bool = False

    @property
    def node_id(self) -> int:
        """Canonical id: the youngest member."""
        return self.members[-1]

    @property
    def parents(self) -> Tuple[int, ...]:
        return tuple(p for p in (self.left_parent, self.right_parent)
                     if p is not None)


class CoalescedGraph:
    """The CRG of a replication graph, with segment analytics."""

    def __init__(self, nodes: Dict[int, CRGNode],
                 member_map: Dict[int, int]) -> None:
        self._nodes = nodes
        #: original node id -> canonical id of its coalesced node
        self._member_map = member_map
        # Per-instance memos: a CoalescedGraph never mutates after
        # construction, so Π sets and prefixing segments are computed at
        # most once per node.
        self._pi_memo: Dict[int, FrozenSet[int]] = {}
        self._seg_memo: Dict[int, Tuple[Tuple[str, int], ...]] = {}

    # -- lookups ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def node(self, node_id: int) -> CRGNode:
        """The CRG node with canonical id ``node_id``."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise GraphError(f"no CRG node {node_id}") from None

    def nodes(self) -> List[CRGNode]:
        """All CRG nodes, by canonical id."""
        return [self._nodes[i] for i in sorted(self._nodes)]

    def canonical(self, original_id: int) -> int:
        """The CRG node a replication-graph node coalesced into."""
        try:
            return self._member_map[original_id]
        except KeyError:
            raise GraphError(f"no such original node {original_id}") from None

    # -- segments -------------------------------------------------------------------

    def prefixing_segment(self, node_id: int) -> List[Tuple[str, int]]:
        """The segment a single-parent node prefixes its parent with.

        The run of front elements of the node's vector whose (site, value)
        pair differs from the parent's vector; for the source, the whole
        vector.  Merge nodes create no segments and raise.
        """
        cached = self._seg_memo.get(node_id)
        if cached is not None:
            return list(cached)
        node = self.node(node_id)
        if node.is_merge:
            raise GraphError(f"CRG node {node_id} is a merge: no segment")
        if node.left_parent is None:
            segment = list(node.vector)
        else:
            parent_values = dict(self.node(node.left_parent).vector)
            segment = []
            for site, value in node.vector:
                if parent_values.get(site) == value:
                    break
                segment.append((site, value))
        self._seg_memo[node_id] = tuple(segment)
        return segment

    def pi_set(self, node_id: int) -> Set[int]:
        """``Π_v``: the node (if non-merge) plus its non-merge ancestors.

        The segments of v's vector — including vanished ones — map
        bijectively onto this set (§4.1).  Memoized per node: ancestors'
        Π sets are shared sub-results, so a sweep over the whole graph is
        linear in arcs instead of quadratic.
        """
        memo = self._pi_memo
        cached = memo.get(node_id)
        if cached is None:
            self.node(node_id)  # raise early on unknown ids
            stack: List[int] = [node_id]
            while stack:
                current = stack[-1]
                if current in memo:
                    stack.pop()
                    continue
                node = self.node(current)
                pending = [p for p in node.parents if p not in memo]
                if pending:
                    stack.extend(pending)
                    continue
                stack.pop()
                result: Set[int] = set()
                for parent in node.parents:
                    result |= memo[parent]
                if not node.is_merge:
                    result.add(current)
                memo[current] = frozenset(result)
            cached = memo[node_id]
        return set(cached)

    def pi_set_uncached(self, node_id: int) -> Set[int]:
        """Reference Π computation by plain ancestor walk (the memo's oracle)."""
        start = self.node(node_id)
        result: Set[int] = set()
        stack: List[int] = [start.node_id]
        seen: Set[int] = set()
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            node = self.node(current)
            if not node.is_merge:
                result.add(current)
            stack.extend(node.parents)
        return result

    def gamma_upper_bound(self, a_node: int, b_node: int) -> int:
        """``|Π_a ∩ Π_b|``: Theorem 5.1's cap on SYNCS_b(a) skips."""
        return len(self.pi_set(a_node) & self.pi_set(b_node))


def coalesce(graph: ReplicationGraph) -> CoalescedGraph:
    """Coalesce consecutive single-parent, single-child runs (Figure 2)."""
    # Identify chain heads: a node starts a coalesced node unless it is a
    # single-parent node whose parent is also single-child (then it extends
    # the parent's chain).
    def extends_parent(node: VersionNode) -> bool:
        # Strictly per §4: chains contain single-parent nodes only (not the
        # source, not merges), each member with at most one child.
        if node.is_merge or node.is_source:
            return False
        if len(graph.children(node.node_id)) > 1:
            return False
        parent_id = node.left_parent
        assert parent_id is not None
        if len(graph.children(parent_id)) != 1:
            return False
        parent = graph.node(parent_id)
        return not (parent.is_merge or parent.is_source)

    chains: Dict[int, List[int]] = {}   # head id -> member ids oldest-first
    head_of: Dict[int, int] = {}
    for node in graph.nodes():          # ids ascend, parents precede children
        if extends_parent(node):
            head = head_of[node.left_parent]  # type: ignore[index]
            chains[head].append(node.node_id)
            head_of[node.node_id] = head
        else:
            chains[node.node_id] = [node.node_id]
            head_of[node.node_id] = node.node_id

    nodes: Dict[int, CRGNode] = {}
    member_map: Dict[int, int] = {}
    for head, members in chains.items():
        youngest = graph.node(members[-1])
        oldest = graph.node(members[0])

        def canonical_parent(parent_id: Optional[int]) -> Optional[int]:
            if parent_id is None:
                return None
            parent_head = head_of[parent_id]
            return chains[parent_head][-1]

        crg_node = CRGNode(
            members=tuple(members),
            vector=youngest.vector,
            left_parent=canonical_parent(oldest.left_parent),
            right_parent=canonical_parent(oldest.right_parent),
            is_merge=oldest.is_merge,
        )
        nodes[crg_node.node_id] = crg_node
        for member in members:
            member_map[member] = crg_node.node_id
    return CoalescedGraph(nodes, member_map)
