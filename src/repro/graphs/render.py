"""ASCII rendering of replication and causal graphs.

The paper's figures are dags; these helpers draw them as indented text
trees so benchmark reports, examples, and debugging sessions can *show*
the structures they verify (Figure 1's replication graph, Figure 3's
causal graphs), not just assert on them.

Rendering walks the dag top-down from the sources; a node with several
parents is drawn under its first parent and referenced by ``(↑ id)``
markers under the others, keeping the output linear in the graph size.
"""

from __future__ import annotations

from typing import Callable, Hashable, List, Optional, Sequence, Set

from repro.graphs.causalgraph import CausalGraph
from repro.graphs.replicationgraph import ReplicationGraph


def _render_dag(roots: Sequence[Hashable],
                children_of: Callable[[Hashable], List[Hashable]],
                label_of: Callable[[Hashable], str],
                short_label_of: Optional[Callable[[Hashable], str]] = None
                ) -> str:
    """Indented tree rendering with back-references for extra parents."""
    lines: List[str] = []
    drawn: Set[Hashable] = set()
    short = short_label_of or label_of

    def walk(node: Hashable, prefix: str, is_last: bool, is_root: bool) -> None:
        connector = "" if is_root else ("└─ " if is_last else "├─ ")
        if node in drawn:
            lines.append(f"{prefix}{connector}(↑ {short(node)})")
            return
        drawn.add(node)
        lines.append(f"{prefix}{connector}{label_of(node)}")
        child_prefix = prefix + ("" if is_root else
                                 ("   " if is_last else "│  "))
        children = children_of(node)
        for index, child in enumerate(children):
            walk(child, child_prefix, index == len(children) - 1, False)

    for index, root in enumerate(roots):
        walk(root, "", index == len(roots) - 1, True)
    return "\n".join(lines)


def render_causal_graph(graph: CausalGraph,
                        label: Optional[Callable[[Hashable], str]] = None
                        ) -> str:
    """Draw a causal graph from its sources down to the sinks.

    >>> from repro.graphs.causalgraph import build_graph
    >>> print(render_causal_graph(build_graph([(None, 1), (1, 2), (1, 3)])))
    1
    ├─ 2
    └─ 3
    """
    label_fn = label or (lambda node_id: str(node_id))

    def children_of(node_id: Hashable) -> List[Hashable]:
        return sorted(graph.children(node_id), key=repr)

    return _render_dag(graph.sources(), children_of, label_fn)


def render_replication_graph(graph: ReplicationGraph, *,
                             show_vectors: bool = True,
                             show_sites: bool = True) -> str:
    """Draw a replication graph with its vectors and host labels.

    Merge nodes (the figures' gray nodes) are marked ``[merge]``; host
    labels render as ``@{sites}``.
    """
    def label_of(node_id: Hashable) -> str:
        node = graph.node(node_id)  # type: ignore[arg-type]
        parts = [str(node.node_id)]
        if node.is_merge:
            parts.append("[merge]")
        if show_vectors:
            inner = ", ".join(f"{site}:{value}" for site, value in node.vector)
            parts.append(f"⟨{inner}⟩")
        if show_sites and node.sites:
            parts.append("@{" + ",".join(sorted(node.sites)) + "}")
        return " ".join(parts)

    def children_of(node_id: Hashable) -> List[Hashable]:
        return graph.children(node_id)  # type: ignore[arg-type]

    return _render_dag([graph.source().node_id], children_of, label_of,
                       short_label_of=str)

