"""Graph substrates: causal graphs, replication graphs, and CRGs.

* :mod:`repro.graphs.causalgraph` — per-replica operation dags (§6).
* :mod:`repro.graphs.replicationgraph` — the system-wide replication graph
  whose nodes are identical-replica classes (§4).
* :mod:`repro.graphs.crg` — coalesced replication graphs, prefixing
  segments, Π sets, and the analytic γ used by Theorem 5.1.
"""

from repro import _lazy_surface

__getattr__, __dir__ = _lazy_surface(__name__, {
    "causalgraph": ("CausalGraph", "GraphNode", "build_graph"),
    "crg": ("CoalescedGraph", "CRGNode", "coalesce"),
    "render": ("render_causal_graph", "render_replication_graph"),
    "replicationgraph": ("ReplicationGraph", "VersionNode"),
})

__all__ = [
    "CRGNode",
    "CausalGraph",
    "CoalescedGraph",
    "GraphNode",
    "ReplicationGraph",
    "VersionNode",
    "build_graph",
    "coalesce",
    "render_causal_graph",
    "render_replication_graph",
]
