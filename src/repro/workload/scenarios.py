"""Scripted scenarios, including the paper's worked examples.

The functions here rebuild, executably, the exact artifacts of the paper:

* :func:`figure1_graph` — the 9-node replication graph of Figure 1 with
  its vectors (reconciliations are shown pre-increment, as in the figure);
* :func:`figure1_vectors` — the θ₁…θ₉ rotating vectors produced by driving
  the real SYNCC/SYNCS protocols through the same history (footnote 1:
  θ₇ := SYNCC_θ₆(θ₂) and θ₉ := SYNCC_θ₃(θ₈));
* :func:`figure3_graphs` — the causal graphs of sites A and C from
  Figure 3, used by the SYNCG reproduction.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Type

from repro.core.conflict import ConflictRotatingVector
from repro.core.rotating import BasicRotatingVector
from repro.core.skip import SkipRotatingVector
from repro.errors import ReproError
from repro.graphs.causalgraph import CausalGraph, build_graph
from repro.graphs.replicationgraph import ReplicationGraph
from repro.protocols.syncc import sync_crv
from repro.protocols.syncs import sync_srv

#: Figure 1's nine vectors as plain ``{site: value}`` maps, keyed by node id.
FIGURE1_VECTORS: Dict[int, Dict[str, int]] = {
    1: {"A": 1},
    2: {"B": 1, "A": 1},
    3: {"C": 1, "B": 1, "A": 1},
    4: {"E": 1, "A": 1},
    5: {"F": 1, "E": 1, "A": 1},
    6: {"G": 1, "F": 1, "E": 1, "A": 1},
    7: {"G": 1, "F": 1, "E": 1, "B": 1, "A": 1},
    8: {"H": 1, "G": 1, "F": 1, "E": 1, "B": 1, "A": 1},
    9: {"C": 1, "H": 1, "G": 1, "F": 1, "E": 1, "B": 1, "A": 1},
}

#: Figure 1's element orders (ascending ≺, front first), keyed by node id.
FIGURE1_ORDERS: Dict[int, List[str]] = {
    1: ["A"],
    2: ["B", "A"],
    3: ["C", "B", "A"],
    4: ["E", "A"],
    5: ["F", "E", "A"],
    6: ["G", "F", "E", "A"],
    7: ["G", "F", "E", "B", "A"],
    8: ["H", "G", "F", "E", "B", "A"],
    9: ["C", "H", "G", "F", "E", "B", "A"],
}


def figure1_graph() -> ReplicationGraph:
    """The replication graph of Figure 1, node ids and vectors included."""
    graph = ReplicationGraph()
    order = FIGURE1_ORDERS

    def snapshot(node: int) -> List[Tuple[str, int]]:
        return [(site, FIGURE1_VECTORS[node][site]) for site in order[node]]

    graph.add_initial(snapshot(1), node_id=1)
    graph.add_update(1, snapshot(2), node_id=2)
    graph.add_update(2, snapshot(3), node_id=3)
    graph.add_update(1, snapshot(4), node_id=4)
    graph.add_update(4, snapshot(5), node_id=5)
    graph.add_update(5, snapshot(6), node_id=6)
    graph.add_merge(2, 6, snapshot(7), node_id=7)
    graph.add_update(7, snapshot(8), node_id=8)
    graph.add_merge(8, 3, snapshot(9), node_id=9)
    # Figure 1 labels: node 7 is hosted on D and A; node 9 on B.
    graph.label(7, "D")
    graph.label(7, "A")
    graph.label(9, "B")
    return graph


def figure1_vectors(
    cls: Type[BasicRotatingVector] = ConflictRotatingVector,
) -> Dict[int, BasicRotatingVector]:
    """θ₁…θ₉ built by replaying Figure 1's history through real protocols.

    Reconciliations follow footnote 1 — ``θ₇ := SYNCC_θ₆(θ₂)`` and
    ``θ₉ := SYNCC_θ₃(θ₈)`` (or their SYNCS counterparts for SRV) — and,
    matching the figure, the post-reconciliation self-increment is *not*
    applied, so the vectors are exactly the printed ones.
    """
    if issubclass(cls, SkipRotatingVector):
        def reconcile(a, b):
            sync_srv(a, b, reconcile=True)
    elif issubclass(cls, ConflictRotatingVector):
        def reconcile(a, b):
            sync_crv(a, b, reconcile=True)
    else:
        raise ReproError(
            "Figure 1 contains reconciliations; BRV cannot replay it (§3.1)")

    theta: Dict[int, BasicRotatingVector] = {}
    theta[1] = cls()
    theta[1].record_update("A")
    theta[2] = theta[1].copy()
    theta[2].record_update("B")
    theta[3] = theta[2].copy()
    theta[3].record_update("C")
    theta[4] = theta[1].copy()
    theta[4].record_update("E")
    theta[5] = theta[4].copy()
    theta[5].record_update("F")
    theta[6] = theta[5].copy()
    theta[6].record_update("G")
    theta[7] = theta[2].copy()
    reconcile(theta[7], theta[6])
    theta[8] = theta[7].copy()
    theta[8].record_update("H")
    theta[9] = theta[8].copy()
    reconcile(theta[9], theta[3])
    return theta


def figure3_graphs() -> Tuple[CausalGraph, CausalGraph]:
    """The causal graphs of site A and site C from Figure 3.

    Site A holds operations {1, 2, 4, 5, 6, 7} (7 merges branches 2 and 6);
    site C holds {1, 4, 5, 6}.  Parent sides follow the paper's traversal:
    node 7's left parent is 6, so the 7→6→…→1 branch is visited first.
    """
    site_a = build_graph([(None, 1), (1, 2), (1, 4), (4, 5), (5, 6),
                          (6, 7), (2, 7)])
    site_c = build_graph([(None, 1), (1, 4), (4, 5), (5, 6)])
    return site_a, site_c


# -- structured traces reused by benchmarks -----------------------------------------
