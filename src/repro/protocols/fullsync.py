"""Traditional full-transfer baselines the paper's algorithms improve on.

State transfer traditionally ships the *entire* version vector on every
synchronization (§3: "synchronizing two version vectors involves O(n)
network transmission"); operation transfer traditionally ships the entire
causal graph (§6: "Traditionally, the entire graph is sent").  These two
protocols implement exactly that, priced by the same encoding as the
incremental algorithms, so every benchmark can report the paper's
baseline-vs-proposed comparison.
"""

from __future__ import annotations

from typing import Any, Generator, Union

from repro.core.rotating import BasicRotatingVector
from repro.core.versionvector import VersionVector
from repro.graphs.causalgraph import CausalGraph, GraphNode
from repro.net.wire import DEFAULT_ENCODING, Encoding
from repro.protocols.effects import RECV, Send
from repro.protocols.messages import FullGraphMsg, FullVectorMsg
from repro.protocols.session import SessionResult, run_session

AnyVector = Union[VersionVector, BasicRotatingVector]


def full_vector_sender(b: AnyVector) -> Generator[Any, Any, int]:
    """Ship the whole vector in one message; returns the element count."""
    if isinstance(b, BasicRotatingVector):
        pairs = tuple(b.elements())
    else:
        pairs = tuple(sorted(b.items()))
    yield Send(FullVectorMsg(pairs))
    return len(pairs)


def full_vector_receiver(a: AnyVector) -> Generator[Any, Any, int]:
    """Merge the received vector elementwise; returns elements overwritten."""
    message = yield RECV
    assert isinstance(message, FullVectorMsg)
    overwritten = 0
    if isinstance(a, BasicRotatingVector):
        # Keep the rotating representation coherent: adopt the sender's
        # front-to-back order for every element it wins.
        prev: str | None = None
        for site, value in message.pairs:
            if value > a[site]:
                a.order.place_after(prev, site, value)
                overwritten += 1
                prev = site
            else:
                prev = site if site in a.order else prev
    else:
        for site, value in message.pairs:
            if value > a[site]:
                a[site] = value
                overwritten += 1
    return overwritten


def sync_full_vector(a: AnyVector, b: AnyVector, *,
                     encoding: Encoding = DEFAULT_ENCODING) -> SessionResult:
    """The traditional baseline: send all of ``b``; merge into ``a``."""
    return run_session(full_vector_sender(b), full_vector_receiver(a),
                       encoding=encoding)


def full_graph_sender(b: CausalGraph) -> Generator[Any, Any, int]:
    """Ship the whole causal graph in one message; returns the node count."""
    rows = tuple(sorted(((n.node_id, n.left_parent, n.right_parent)
                         for n in b.nodes()), key=repr))
    yield Send(FullGraphMsg(rows))
    return len(rows)


def full_graph_receiver(a: CausalGraph) -> Generator[Any, Any, int]:
    """Install every received node; returns how many were new."""
    message = yield RECV
    assert isinstance(message, FullGraphMsg)
    added = 0
    for node_id, left, right in message.nodes:
        if node_id not in a:
            a.install(GraphNode(node_id, left, right))
            added += 1
    return added


def sync_full_graph(a: CausalGraph, b: CausalGraph, *,
                    encoding: Encoding = DEFAULT_ENCODING) -> SessionResult:
    """The traditional baseline: send all of ``b``; union into ``a``."""
    return run_session(full_graph_sender(b), full_graph_receiver(a),
                       encoding=encoding)
