"""SYNCG (Algorithm 5): incremental synchronization of causal graphs.

``SYNCG_b(a)`` makes graph *a* the union of graphs *a* and *b*, regardless
of their causal relation, transmitting O(|V_b∖V_a| + |A_b∖A_a|) — the
optimal difference (§6.1).

The sender runs a depth-first search over *b* starting at the sink and
walking arcs backwards, sending each unvisited node with its (≤2) parent
identifiers.  Children therefore arrive before parents.  Because a graph is
ancestor-closed, as soon as the receiver sees a node it already has, the
whole remainder of that DFS branch is old news; it answers with the
identifier of the next branch start it still needs, and the sender rewinds
its stack to that node.

The receiver learns future branch starts by *mirroring* the sender's stack:
for every received new node it pushes the right parent — but only if that
parent is unknown ("s′ only keeps nodes not existing in the receiver's
graph").  Left parents never need mirroring because the sender explores
them immediately (or a rewind it requested discards them, in which case
they were ancestors of a node the receiver already had).

Pipelining details (§6.1 and DESIGN.md):

* A ``skipto`` naming an already-visited node raced past the sender's
  progress and is ignored; the receiver's ``skipping`` flag prevents
  duplicate redirections while the overshoot of the aborted branch drains.
* Stale mirror entries (a pushed right parent that arrived later via
  another branch) are lazily dropped before being offered as a redirection.
* When an existing node arrives and the mirror stack holds nothing unknown,
  no branch the receiver needs remains anywhere in the sender's stack, so
  the receiver sends ``ABORT`` and the sender halts — covering the
  ``b ⪯ a`` corner without walking *b*'s known ancestry (the paper
  sidesteps this case by comparing sinks first; we support either order).
"""

from __future__ import annotations

from typing import Any, Generator, List

from repro.errors import ProtocolError
from repro.graphs.causalgraph import CausalGraph, GraphNode, NodeId
from repro.net.wire import DEFAULT_ENCODING, Encoding
from repro.obs import trace as obs
from repro.obs.trace import Tracer
from repro.protocols.effects import POLL, RECV, Send
from repro.protocols.messages import (AbortMsg, GraphNodeMsg, Halt, Message,
                                      SkipToMsg)
from repro.protocols.reports import GraphReceiverReport, GraphSenderReport
from repro.protocols.session import SessionResult, run_session

_HALT_BITS = 1


def syncg_sender(b: CausalGraph, *, tracer: Tracer | None = None
                 ) -> Generator[Any, Any, GraphSenderReport]:
    """The sending side of ``SYNCG_b(a)``: reverse DFS with rewinds."""
    report = GraphSenderReport()
    visited: set = set()
    stack: List[NodeId] = list(reversed(b.sinks()))
    while stack:
        # Drain redirections (and a possible abort) before the next step.
        while True:
            incoming = yield POLL
            if not incoming:
                break
            if isinstance(incoming, (AbortMsg, Halt)):
                if tracer is not None:
                    tracer.event(obs.CONTROL, party="sender",
                                 signal="abort_received")
                report.aborted_by_peer = True
                yield Send(Halt(_HALT_BITS))
                return report
            assert isinstance(incoming, SkipToMsg)
            if incoming.node not in visited:
                skipped_before = report.nodes_skipped
                while stack and stack[-1] != incoming.node:
                    stack.pop()
                    report.nodes_skipped += 1
                if not stack:
                    raise ProtocolError(
                        f"skipto target {incoming.node!r} not on DFS stack")
                report.rewinds += 1
                if tracer is not None:
                    tracer.event(obs.GAMMA_SKIP, party="sender",
                                 target=incoming.node,
                                 skipped=report.nodes_skipped - skipped_before)
            elif tracer is not None:
                tracer.event(obs.CONTROL, party="sender",
                             signal="stale_skipto", target=incoming.node)
            # else: stale — the branch already streamed past that node.
        node_id = stack.pop()
        if node_id in visited:
            continue
        visited.add(node_id)
        node = b.node(node_id)
        yield Send(GraphNodeMsg(node_id, node.left_parent, node.right_parent))
        report.nodes_sent += 1
        if node.right_parent is not None:
            stack.append(node.right_parent)
        if node.left_parent is not None:
            stack.append(node.left_parent)
    yield Send(Halt(_HALT_BITS))
    return report


def syncg_receiver(a: CausalGraph, *, enable_redirect: bool = True,
                   enable_abort: bool = True,
                   tracer: Tracer | None = None
                   ) -> Generator[Any, Any, GraphReceiverReport]:
    """The receiving side of ``SYNCG_b(a)``; grows ``a`` to the union.

    Arrivals are *staged* and committed into ``a`` only when the sender's
    HALT confirms the session completed.  The reverse DFS delivers children
    before parents, so a graph mutated mid-session would not be
    ancestor-closed — and ancestor-closure of the pre-session graph is
    exactly the invariant the skip logic relies on.  Staging makes an
    interrupted session a no-op that a retry completes (see the failure
    injection tests).

    ``enable_redirect=False`` and ``enable_abort=False`` disable the
    mirroring-stack redirections and the exhausted-stack abort — both
    correct but letting the sender walk known territory; the ablation
    benchmark quantifies what each mechanism saves.
    """
    report = GraphReceiverReport()
    mirror: List[NodeId] = []
    staged: List[GraphNode] = []
    staged_ids: set = set()
    skipping = False

    def known(node_id: NodeId) -> bool:
        return node_id in a or node_id in staged_ids

    while True:
        message: Message = yield RECV
        if isinstance(message, Halt):
            for node in staged:
                a.install(node)
            if tracer is not None:
                tracer.event(obs.CONTROL, party="receiver",
                             signal="halt_received", committed=len(staged))
            return report
        assert isinstance(message, GraphNodeMsg)
        node_id = message.node
        if known(node_id):
            report.overlap_nodes += 1
            if tracer is not None:
                tracer.event(obs.GAMMA_RETRANSMIT, party="receiver",
                             node=node_id)
            if skipping:
                continue
            skipping = True
            # Drop mirror entries that became known via other branches.
            while mirror and known(mirror[-1]):
                mirror.pop()
            if mirror:
                if enable_redirect:
                    target = mirror.pop()
                    yield Send(SkipToMsg(target))
                    report.skiptos_sent += 1
                    if tracer is not None:
                        tracer.event(obs.CONTROL, party="receiver",
                                     signal="skipto_sent", target=target)
            elif enable_abort:
                yield Send(AbortMsg())
                report.sent_abort = True
                if tracer is not None:
                    tracer.event(obs.CONTROL, party="receiver",
                                 signal="abort_sent")
                # The sender acknowledges with HALT; keep consuming till then.
        else:
            skipping = False
            if mirror and mirror[-1] == node_id:
                mirror.pop()
            node = GraphNode(node_id, message.left_parent, message.right_parent)
            staged.append(node)
            staged_ids.add(node_id)
            report.nodes_added += 1
            report.arcs_added += len(node.parents)
            if tracer is not None:
                tracer.event(obs.DELTA_ELEMENT, party="receiver",
                             node=node_id)
            if (message.right_parent is not None
                    and not known(message.right_parent)):
                mirror.append(message.right_parent)


def sync_graph(a: CausalGraph, b: CausalGraph, *,
               encoding: Encoding = DEFAULT_ENCODING,
               tracer: Tracer | None = None) -> SessionResult:
    """Run ``SYNCG_b(a)`` under the instant driver, mutating ``a``.

    Postcondition: ``a`` contains the union of both node and arc sets and
    is ancestor-closed again.  Works for any causal relation between the
    graphs (the two must share their source, as replicas of one object do);
    after synchronizing concurrent replicas the caller performs
    reconciliation by adding a merge node over the two sinks.
    """
    return run_session(syncg_sender(b, tracer=tracer),
                       syncg_receiver(a, tracer=tracer),
                       encoding=encoding, tracer=tracer, span_name="SYNCG")
