"""Replica records for the operation-transfer system (§6).

An operation-transfer replica keeps a log of :class:`Operation` bodies plus
the causal graph relating them.  Replica *state* is never shipped — it is
materialized locally by folding the operations in a deterministic
causal-respecting order, so two replicas with the same graph always
materialize the same state (which is what makes a structural merge node
sufficient for convergence).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple

from repro.graphs.causalgraph import CausalGraph, NodeId

#: Operation identifiers: ``(site, per-site sequence number)`` — globally
#: unique without coordination.
OpId = Tuple[str, int]

#: Folds one operation into the state: ``apply(state, op) -> new state``.
Applier = Callable[[Any, "Operation"], Any]


@dataclass(frozen=True)
class Operation:
    """One logged operation: who issued it and its application payload."""

    op_id: OpId
    site: str
    payload: Any
    #: Merge operations are structural (they join two lineages); appliers
    #: usually treat them as no-ops unless the payload says otherwise.
    is_merge: bool = False


@dataclass
class OpReplica:
    """One site's operation-transfer replica of one object.

    ``archived`` and ``baseline_state`` support *hybrid transfer* (§6,
    :mod:`repro.replication.hybrid`): operation bodies folded into the
    baseline snapshot are dropped from ``ops``; the causal graph — the
    concurrency-control metadata — is always kept whole.
    """

    site: str
    object_id: str
    graph: CausalGraph
    ops: Dict[NodeId, Operation] = field(default_factory=dict)
    conflicted: bool = False
    #: Nodes whose payloads were folded into ``baseline_state``.
    archived: frozenset = frozenset()
    #: The state equivalent to folding the archived prefix; None when no
    #: truncation happened yet (the system's initial state applies).
    baseline_state: Any = None

    def sinks(self) -> list:
        """Current head operations (two while a merge is pending)."""
        return self.graph.sinks()

    def has_single_sink(self) -> bool:
        """True unless a reconciliation is pending."""
        return len(self.graph.sinks()) == 1

    def materialize(self, applier: Applier, initial: Any) -> Any:
        """Fold operations in deterministic topological order.

        Determinism: :meth:`CausalGraph.topological_order` breaks ties by
        ``repr`` of the node id, so any two replicas holding the same graph
        compute identical states regardless of how the graph was reached.
        Archived nodes are skipped — their effect lives in the baseline —
        and because the archived set is a canonical-order prefix of the
        common causal past, baseline + live fold equals the full fold.
        """
        state = self.baseline_state if self.archived else initial
        for node_id in self.graph.topological_order():
            if node_id in self.archived:
                continue
            state = applier(state, self.ops[node_id])
        return state


def log_applier(state: Any, op: Operation) -> Any:
    """Stock applier: an append-only log of operation payloads."""
    if op.is_merge or op.payload is None:
        return state
    return state + (op.payload,)


def kv_applier(state: Any, op: Operation) -> Any:
    """Stock applier: last-writer-in-order wins per key.

    Payloads are ``(key, value)`` pairs; the deterministic fold order makes
    concurrent writes to one key resolve identically everywhere.
    """
    if op.is_merge or op.payload is None:
        return state
    key, value = op.payload
    new_state = dict(state)
    new_state[key] = value
    return new_state

