"""Causal analysis of traces: convergence critical path and attribution.

The tracer records *what* happened; this module reconstructs *why the run
converged when it did*.  From a flat event list (or a live stream — feed
events to :meth:`CausalGraph.feed`, e.g. via ``tracer.subscribe``) it
builds the happens-before DAG:

* **transmit edges** — every ``deliver`` links back to the ``message``
  event whose copy landed (``fields["sent_seq"]``, emitted by the wire
  drivers).  Acyclic by construction: the send was recorded strictly
  earlier.
* **program edges** — per-(site, session) order among wire events, and a
  per-site lifecycle order among updates, reconciles, and session
  start/commit (each synchronizes *both* endpoints; a session's end
  after its commit only closes the ack drain, and a trace without
  commits synchronizes at the end).
* **queue edges** — each ``session_start`` links to its
  ``session_request``, matched FIFO per (src, dst) pair, exactly the
  order the cluster scheduler dispatches them.

On that DAG :func:`analyze_events` replays the paper's knowledge model —
each update or §2.2 reconcile self-increment is an item; a session's
commit merges the source's item set (snapshotted at session start) into
the destination — to locate the **convergence event**: the first event after
which every site holds every item.  The **critical path** is the backward
chain of *binding predecessors* (the latest-finishing cause, ties broken
by trace order) from that event down to the update or root that seeded
it.  In a time-weighted DAG every path between two events spans the same
elapsed time; the binding walk selects the chain that was actually tight.

Each hop is attributed to the :data:`CATEGORIES`: channel ``latency``,
bandwidth ``serialization`` (a pipelined session's inter-deliver spacing
*is* serialization), fault-injected ``fault_delay``, ARQ ``arq`` time
(timeouts, retries, aborts, resumes), ``queueing`` behind sessions
holding the same objects, and residual ``processing``.  A hop's channel
constants are its session's own (a cluster ``session_start`` carries
them, so each region pair of a topology fleet bills its own link), else
its span's.  Trace times are whole nanoseconds in seconds, read back
exactly with :func:`~repro.net.simulator.to_ns`, so every hop's and
path's categories sum to its elapsed ns by integer addition; the
document reports seconds.

Per-session / per-site / per-protocol summaries attribute *all* causal
hops, not just the critical path's; because pipelined hops overlap in
time, those sums may legitimately exceed a session's wall duration.
Sampled traces (see :class:`~repro.obs.trace.SamplingPolicy`) analyze
fine — dropped wire events cost transmit edges, counted in
``dropped_links``, and every summary carries the coverage fraction from
the tracer's ``sampling`` accounting events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from collections import deque

from repro.net.channel import serialization_ns
from repro.net.simulator import to_ns, to_seconds
from repro.obs import trace as obs

SCHEMA_ID = "repro.obs.causal/1"

#: Attribution categories, in canonical (summation) order.
CATEGORIES = ("latency", "serialization", "fault_delay", "arq",
              "queueing", "processing")

#: Wire-level node kinds that live in per-(site, session) program order.
_WIRE_KINDS = frozenset({obs.MESSAGE, obs.DELIVER, obs.RETRY, obs.TIMEOUT,
                         obs.SESSION_ABORT, obs.CONTROL, obs.RECONCILE})
#: Program-edge endpoints that mark ARQ recovery time.
_ARQ_KINDS = frozenset({obs.RETRY, obs.TIMEOUT, obs.SESSION_ABORT,
                        obs.CONTROL})


@dataclass
class Node:
    """One causally-relevant trace event in the graph."""

    seq: int
    kind: str
    time: float
    #: ``time`` in the simulator's integer nanoseconds.
    ns: int = 0
    party: Optional[str] = None
    #: The other endpoint for session request/start/end events (the
    #: source site ``dst`` pulls from).
    peer: Optional[str] = None
    message: Optional[str] = None
    bits: int = 0
    span_id: Optional[int] = None
    session: Optional[Any] = None
    #: Wire direction (``"forward"``/``"backward"``) for message events.
    direction: Optional[str] = None
    #: In-edges as ``(source_seq, edge_kind)``; edge kinds are
    #: ``"program"``, ``"transmit"``, ``"queue"``.
    preds: List[Tuple[int, str]] = field(default_factory=list)

    def brief(self) -> Dict[str, Any]:
        """The node as a small JSON-able endpoint reference."""
        doc: Dict[str, Any] = {"seq": self.seq, "kind": self.kind,
                               "time": self.time}
        if self.party is not None:
            doc["party"] = self.party
        if self.message is not None:
            doc["message"] = self.message
        if self.session is not None:
            doc["session"] = self.session
        return doc


@dataclass(frozen=True)
class ChannelInfo:
    """Channel constants recovered from a ``span_start`` event or a
    cluster's ``session_start`` event."""

    latency: float
    bandwidth: float
    protocol: Optional[str] = None


class CausalGraph:
    """Streaming happens-before graph builder over trace events.

    Feed events in emission order (``graph.feed`` works directly as a
    ``Tracer.subscribe`` callback); untimed events and non-causal kinds
    are ignored.  All edges point from an earlier ``seq`` to a later one,
    so the graph is acyclic by construction — :meth:`is_acyclic` verifies
    the invariant rather than trusting it.
    """

    def __init__(self) -> None:
        self.nodes: Dict[int, Node] = {}
        self.order: List[int] = []
        self.edges = 0
        #: Transmit edges lost because the matching send was sampled out.
        self.dropped_links = 0
        self.channels: Dict[int, ChannelInfo] = {}
        #: Per-session link constants, which override the span's.
        self.session_channels: Dict[Any, ChannelInfo] = {}
        self.session_start: Dict[Any, Node] = {}
        self.coverage: Dict[Any, Tuple[int, int]] = {}
        self._updates: List[int] = []
        self._items: List[int] = []
        self._wire_tail: Dict[Tuple[Optional[str], Any], int] = {}
        self._life_tail: Dict[str, int] = {}
        #: Committed sessions whose end is still to come -> commit seq.
        self._commits: Dict[Any, int] = {}
        self._queue: Dict[Tuple[str, str], Deque[int]] = {}

    # -- construction ---------------------------------------------------------------

    def feed(self, event: Any) -> Optional[Node]:
        """Incorporate one trace event; returns its node, if it made one."""
        kind = event.kind
        fields = event.fields
        if kind == obs.SPAN_START:
            if "latency" in fields and "bandwidth" in fields:
                protocol = fields.get("protocol")
                if protocol is None:
                    name = fields.get("name", "")
                    protocol = name.rsplit(":", 1)[-1] or None
                self.channels[event.span_id] = ChannelInfo(
                    latency=fields["latency"],
                    bandwidth=fields["bandwidth"], protocol=protocol)
            return None
        if kind == obs.SAMPLING:
            seen, kept = fields.get("seen", 0), fields.get("kept", 0)
            old = self.coverage.get(fields.get("session"), (0, 0))
            self.coverage[fields.get("session")] = (old[0] + seen,
                                                    old[1] + kept)
            return None
        if event.time is None:
            return None
        if kind == obs.CONTROL and fields.get("signal") != "session_resume":
            return None
        session = fields.get("session")
        if kind in _WIRE_KINDS:
            node = self._add(event, session)
            self._link_wire(node)
            if kind == obs.DELIVER:
                sent_seq = fields.get("sent_seq")
                if sent_seq is None or sent_seq not in self.nodes:
                    # Either a pre-instrumentation trace or the send was
                    # sampled out; the program edge still anchors the node.
                    self.dropped_links += 1
                else:
                    self._edge(sent_seq, node, "transmit")
            if kind == obs.RECONCILE:
                self._link_lifecycle(node, node.party)
                self._items.append(node.seq)
            return node
        if kind == obs.UPDATE:
            node = self._add(event, session)
            self._link_lifecycle(node, node.party)
            self._updates.append(node.seq)
            self._items.append(node.seq)
            return node
        if kind == obs.SESSION_REQUEST:
            node = self._add(event, session)
            pair = (fields.get("peer"), node.party)
            self._queue.setdefault(pair, deque()).append(node.seq)
            return node
        if kind == obs.SESSION_START:
            node = self._add(event, session)
            src, dst = fields.get("peer"), node.party
            waiting = self._queue.get((src, dst))
            if waiting:
                self._edge(waiting.popleft(), node, "queue")
            self._link_lifecycle(node, dst)
            self._link_lifecycle(node, src)
            if session is not None:
                self.session_start[session] = node
                if "latency" in fields and "bandwidth" in fields:
                    span = self.channels.get(event.span_id)
                    self.session_channels[session] = ChannelInfo(
                        latency=fields["latency"],
                        bandwidth=fields["bandwidth"],
                        protocol=None if span is None else span.protocol)
                self._wire_tail[(dst, session)] = node.seq
                self._wire_tail[(src, session)] = node.seq
            return node
        if kind in (obs.SESSION_COMMIT, obs.SESSION_END):
            node = self._add(event, session)
            src, dst = fields.get("peer"), node.party
            for site in (dst, src):
                tail = self._wire_tail.get((site, session))
                if tail is not None:
                    self._edge(tail, node, "program")
            # A commit releases both endpoints; the end after it only
            # closes the drain.  A trace without commits releases at
            # the end.
            commit = (self._commits.pop(session, None)
                      if kind == obs.SESSION_END else None)
            if commit is not None:
                self._edge(commit, node, "program")
            elif not node.preds and session in self.session_start:
                self._edge(self.session_start[session].seq, node, "program")
            if kind == obs.SESSION_COMMIT:
                self._commits[session] = node.seq
            if commit is None:
                for site in (dst, src):
                    if site is not None:
                        self._life_tail[site] = node.seq
            if kind == obs.SESSION_END:
                for site in (dst, src):
                    self._wire_tail.pop((site, session), None)
            return node
        return None

    def feed_all(self, events: Any) -> "CausalGraph":
        """Feed every event in order; returns ``self`` for chaining."""
        for event in events:
            self.feed(event)
        return self

    def _add(self, event: Any, session: Any) -> Node:
        node = Node(seq=event.seq, kind=event.kind, time=event.time,
                    ns=to_ns(event.time), party=event.party,
                    peer=event.fields.get("peer"), message=event.message,
                    bits=event.bits, span_id=event.span_id, session=session,
                    direction=event.fields.get("direction"))
        self.nodes[node.seq] = node
        self.order.append(node.seq)
        return node

    def _edge(self, source_seq: int, target: Node, kind: str) -> None:
        if any(source == source_seq for source, _ in target.preds):
            return
        target.preds.append((source_seq, kind))
        self.edges += 1

    def _link_wire(self, node: Node) -> None:
        key = (node.party, node.session)
        tail = self._wire_tail.get(key)
        if tail is None and node.session in self.session_start:
            tail = self.session_start[node.session].seq
        if tail is not None:
            self._edge(tail, node, "program")
        self._wire_tail[key] = node.seq

    def _link_lifecycle(self, node: Node, site: Optional[str]) -> None:
        if site is None:
            return
        tail = self._life_tail.get(site)
        if tail is not None:
            self._edge(tail, node, "program")
        self._life_tail[site] = node.seq

    # -- queries --------------------------------------------------------------------

    def channel_for(self, node: Node) -> Optional[ChannelInfo]:
        """The link model of ``node``'s session, else of its span, if
        known."""
        channel = self.session_channels.get(node.session)
        if channel is not None or node.span_id is None:
            return channel
        return self.channels.get(node.span_id)

    def is_acyclic(self) -> bool:
        """Every edge points from an earlier seq to a later one."""
        return all(source < seq
                   for seq, node in self.nodes.items()
                   for source, _ in node.preds)

    @property
    def updates(self) -> List[Node]:
        return [self.nodes[seq] for seq in self._updates]

    @property
    def items(self) -> List[int]:
        """Knowledge items (update + reconcile seqs), in creation order."""
        return list(self._items)


# ---------------------------------------------------------------------------
# Hop categorization.
# ---------------------------------------------------------------------------


def _is_arq(source: Node, target: Node) -> bool:
    return (target.kind in _ARQ_KINDS
            or source.kind in (obs.TIMEOUT, obs.RETRY, obs.SESSION_ABORT,
                               obs.CONTROL))


def _categorize(source: Node, target: Node, edge_kind: str,
                channel: Optional[ChannelInfo]) -> Dict[str, int]:
    """Split one hop's elapsed ns over the attribution categories; the
    values sum to ``target.ns - source.ns`` exactly."""
    dt = target.ns - source.ns
    if edge_kind == "queue":
        return {"queueing": dt}
    if edge_kind == "transmit":
        latency = None if channel is None else to_ns(channel.latency)
        if latency is None or latency > dt:
            # No channel constants (foreign trace) — the whole hop is
            # propagation as far as we can tell.
            return {"latency": dt}
        serialization = dt - latency
        ideal = (serialization_ns(source.bits, channel.bandwidth)
                 if channel.bandwidth else serialization)
        if serialization > ideal:
            # The fault injector held this copy back (reorder delay).
            return {"latency": latency, "serialization": ideal,
                    "fault_delay": serialization - ideal}
        return {"latency": latency, "serialization": serialization}
    # program edges
    if _is_arq(source, target):
        return {"arq": dt}
    if source.kind == obs.DELIVER and target.kind == obs.DELIVER:
        # Pipelined FIFO spacing between consecutive deliveries *is* the
        # next message's serialization time.
        return {"serialization": dt}
    if source.kind == obs.MESSAGE and target.kind == obs.MESSAGE:
        ideal = (serialization_ns(source.bits, channel.bandwidth)
                 if channel is not None and channel.bandwidth else dt)
        if dt > ideal:
            # Stop-and-wait: the sender stalled for the round trip after
            # serializing; the stall is propagation (plus the ack's bits).
            return {"serialization": ideal, "latency": dt - ideal}
        return {"serialization": dt}
    return {"processing": dt}


def _in_seconds(parts: Dict[str, int]) -> Dict[str, float]:
    """Every category, in canonical order, in seconds."""
    return {category: to_seconds(parts.get(category, 0))
            for category in CATEGORIES}


# ---------------------------------------------------------------------------
# Convergence and the critical path.
# ---------------------------------------------------------------------------


def _find_convergence(graph: CausalGraph) -> Optional[Node]:
    """First event after which every site holds every knowledge item.

    Replays the paper's knowledge model over the trace: each update or
    reconcile creates an item at its site; a session's commit (its end,
    in a trace without commits) merges the source's item set — snapshotted at session start (and re-snapshotted
    at each transactional resume, whose rebuilt coroutines read current
    state) — into the destination's.
    """
    sites = set()
    for seq in graph.order:
        node = graph.nodes[seq]
        if node.kind in (obs.UPDATE, obs.RECONCILE, obs.SESSION_REQUEST,
                         obs.SESSION_START, obs.SESSION_COMMIT,
                         obs.SESSION_END):
            sites.add(node.party)
            sites.add(node.peer)
    sites.discard(None)
    total = len(graph.items)
    if not total or not sites:
        return None
    knowledge: Dict[str, set] = {site: set() for site in sites}
    snapshots: Dict[Any, frozenset] = {}
    peers: Dict[Any, Optional[str]] = {}
    emitted = 0
    for seq in graph.order:
        node = graph.nodes[seq]
        changed: Optional[str] = None
        if node.kind in (obs.UPDATE, obs.RECONCILE):
            knowledge.setdefault(node.party, set()).add(seq)
            emitted += 1
            changed = node.party
        elif node.kind == obs.SESSION_START:
            peers[node.session] = node.peer
            snapshots[node.session] = frozenset(
                knowledge.get(node.peer, ()))
        elif node.kind == obs.CONTROL and node.session in peers:
            # Transactional resume rebuilds coroutines from the source's
            # *current* state; refresh what this session will deliver.
            snapshots[node.session] = frozenset(
                knowledge.get(peers[node.session], ()))
        elif node.kind in (obs.SESSION_COMMIT, obs.SESSION_END):
            # The commit delivers; an end after it finds nothing left.
            merged = snapshots.pop(node.session, frozenset())
            knowledge.setdefault(node.party, set()).update(merged)
            changed = node.party
        if changed is None or emitted < total:
            continue
        if all(len(held) == total for held in knowledge.values()):
            return node
    return None


def _binding_predecessor(graph: CausalGraph,
                         node: Node) -> Tuple[Node, str]:
    """The latest-finishing cause of ``node`` (ties broken by seq)."""
    source_seq, edge_kind = max(
        node.preds, key=lambda edge: (graph.nodes[edge[0]].ns, edge[0]))
    return graph.nodes[source_seq], edge_kind


def _critical_path(graph: CausalGraph,
                   anchor: Node) -> Dict[str, Any]:
    """Backward binding-predecessor walk from ``anchor`` to its seed."""
    hops: List[Dict[str, Any]] = []
    parts: Dict[str, int] = {}
    rounds = 0
    cursor = anchor
    while cursor.preds and cursor.kind != obs.UPDATE:
        source, edge_kind = _binding_predecessor(graph, cursor)
        channel = graph.channel_for(cursor) or graph.channel_for(source)
        categories = _categorize(source, cursor, edge_kind, channel)
        hops.append({
            "from": source.brief(), "to": cursor.brief(),
            "edge": edge_kind,
            "elapsed": to_seconds(cursor.ns - source.ns),
            "categories": {category: to_seconds(categories[category])
                           for category in CATEGORIES
                           if category in categories},
        })
        if edge_kind == "transmit":
            rounds += 1
        for category, value in categories.items():
            parts[category] = parts.get(category, 0) + value
        cursor = source
    hops.reverse()
    return {
        "start": cursor.brief(), "end": anchor.brief(),
        "elapsed": to_seconds(anchor.ns - cursor.ns), "hops": hops,
        "rounds": rounds, "attribution": _in_seconds(parts),
    }


# ---------------------------------------------------------------------------
# Aggregate summaries.
# ---------------------------------------------------------------------------


def _fraction(counts: Tuple[int, int]) -> float:
    seen, kept = counts
    return kept / seen if seen else 1.0


def _session_summaries(graph: CausalGraph) -> List[Dict[str, Any]]:
    grouped: Dict[Any, List[Node]] = {}
    for seq in graph.order:
        node = graph.nodes[seq]
        if node.session is not None:
            grouped.setdefault(node.session, []).append(node)
    summaries: List[Dict[str, Any]] = []
    for session in sorted(grouped, key=lambda key: (str(type(key)), key)):
        members = grouped[session]
        start = next((node for node in members
                      if node.kind == obs.SESSION_START), None)
        end = next((node for node in members
                    if node.kind == obs.SESSION_END), None)
        channel = graph.channel_for(start or members[0])
        requested: Optional[Node] = None
        if start is not None:
            for source_seq, edge_kind in start.preds:
                if edge_kind == "queue":
                    requested = graph.nodes[source_seq]
        directions = [node.direction for node in members
                      if node.kind == obs.MESSAGE and node.message != "Ack"
                      and node.direction is not None]
        rounds = (1 + sum(1 for previous, current
                          in zip(directions, directions[1:])
                          if previous != current)) if directions else 0
        parts: Dict[str, int] = {}
        for node in members:
            for source_seq, edge_kind in node.preds:
                source = graph.nodes[source_seq]
                if edge_kind == "program" and not _is_arq(source, node):
                    # Non-ARQ program edges overlap transmit edges in
                    # time (pipelining); counting both would double-bill
                    # serialization.
                    continue
                for category, value in _categorize(
                        source, node, edge_kind, channel).items():
                    parts[category] = parts.get(category, 0) + value
        summary: Dict[str, Any] = {
            "session": session,
            "src": start.peer if start is not None else None,
            "dst": start.party if start is not None else None,
            "protocol": channel.protocol if channel is not None else None,
            "messages": sum(1 for node in members
                            if node.kind == obs.MESSAGE),
            "rounds": rounds,
            "retries": sum(1 for node in members
                           if node.kind == obs.RETRY),
            "timeouts": sum(1 for node in members
                            if node.kind == obs.TIMEOUT),
            "resumes": sum(1 for node in members
                           if node.kind == obs.CONTROL),
            "aborts": sum(1 for node in members
                          if node.kind == obs.SESSION_ABORT),
            "attribution": _in_seconds(parts),
            "coverage": _fraction(graph.coverage.get(session, (0, 0))),
        }
        if start is not None:
            requested = requested or start
            summary["started"] = start.time
            summary["requested"] = requested.time
            summary["queue_wait"] = to_seconds(start.ns - requested.ns)
        if end is not None:
            summary["bits"] = end.bits
            summary["ended"] = end.time
            if start is not None:
                summary["duration"] = to_seconds(end.ns - start.ns)
        summaries.append(summary)
    return summaries


def _aggregate(summaries: List[Dict[str, Any]],
               key: str) -> Dict[str, Dict[str, Any]]:
    """Roll session summaries up by destination site or protocol."""
    rollup: Dict[str, Dict[str, Any]] = {}
    for summary in summaries:
        label = summary.get(key)
        if label is None:
            continue
        bucket = rollup.setdefault(label, {
            "sessions": 0, "bits": 0, "messages": 0, "rounds": 0,
            "retries": 0, "queue_wait": 0.0, "busy": 0.0,
            "attribution": {category: 0.0 for category in CATEGORIES},
        })
        bucket["sessions"] += 1
        bucket["bits"] += summary.get("bits", 0)
        bucket["messages"] += summary["messages"]
        bucket["rounds"] += summary["rounds"]
        bucket["retries"] += summary["retries"]
        bucket["queue_wait"] += summary.get("queue_wait", 0.0)
        bucket["busy"] += summary.get("duration", 0.0)
        for category in CATEGORIES:
            bucket["attribution"][category] += \
                summary["attribution"][category]
    return rollup


# ---------------------------------------------------------------------------
# The analysis entry point.
# ---------------------------------------------------------------------------


@dataclass
class Analysis:
    """Everything the causal analyzer derived from one trace."""

    graph: CausalGraph
    mode: str
    converged: bool
    convergence: Optional[Node]
    origin: Optional[Node]
    critical_path: Optional[Dict[str, Any]]
    sessions: List[Dict[str, Any]]
    sites: Dict[str, Dict[str, Any]]
    protocols: Dict[str, Dict[str, Any]]

    def to_dict(self) -> Dict[str, Any]:
        """The schema-stable JSON document (``repro.obs.causal/1``)."""
        seen = sum(counts[0] for counts in self.graph.coverage.values())
        kept = sum(counts[1] for counts in self.graph.coverage.values())
        document: Dict[str, Any] = {
            "schema": SCHEMA_ID,
            "mode": self.mode,
            "nodes": len(self.graph.nodes),
            "edges": self.graph.edges,
            "dropped_links": self.graph.dropped_links,
            "acyclic": self.graph.is_acyclic(),
            "converged": self.converged,
            "sessions": self.sessions,
            "sites": self.sites,
            "protocols": self.protocols,
            "coverage": {
                "sampled": bool(self.graph.coverage),
                "seen": seen, "kept": kept,
                "fraction": kept / seen if seen else 1.0,
            },
        }
        if self.convergence is not None:
            document["convergence"] = self.convergence.brief()
        if self.origin is not None:
            document["origin"] = self.origin.brief()
        if self.critical_path is not None:
            document["critical_path"] = self.critical_path
        return document


def analyze_events(events: Any) -> Analysis:
    """Build the causal graph over ``events`` and analyze it.

    ``events`` is any iterable of :class:`~repro.obs.trace.TraceEvent`
    (a tracer's retained list, or rows loaded back from JSONL).  Cluster
    traces get the full convergence treatment; a standalone timed-wire
    trace falls back to ``mode="wire"``, anchoring the critical path at
    the last recorded event.
    """
    graph = CausalGraph().feed_all(events)
    cluster = bool(graph.session_start) or bool(graph.updates)
    convergence = _find_convergence(graph) if cluster else None
    anchor = convergence
    if anchor is None and graph.order:
        anchor = graph.nodes[graph.order[-1]]
    origin = graph.updates[0] if graph.updates else None
    sessions = _session_summaries(graph)
    return Analysis(
        graph=graph,
        mode="cluster" if cluster else "wire",
        converged=convergence is not None,
        convergence=convergence,
        origin=origin,
        critical_path=(_critical_path(graph, anchor)
                       if anchor is not None else None),
        sessions=sessions,
        sites=_aggregate(sessions, "dst"),
        protocols=_aggregate(sessions, "protocol"),
    )


def analyze_tracer(tracer: Any) -> Analysis:
    """Analyze a live tracer's retained events (flushes sampling first)."""
    tracer.flush_sampling()
    return analyze_events(tracer.events)


# ---------------------------------------------------------------------------
# The JSON document contract.
# ---------------------------------------------------------------------------

_NODE_BRIEF_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["seq", "kind", "time"],
    "properties": {
        "seq": {"type": "integer", "minimum": 0},
        "kind": {"type": "string"},
        "time": {"type": "number"},
        "party": {"type": "string"},
        "message": {"type": "string"},
    },
}

_ATTRIBUTION_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": list(CATEGORIES),
    "properties": {category: {"type": "number"} for category in CATEGORIES},
}

#: Embedded source of truth for ``schemas/repro.obs.causal.schema.json``
#: (a test pins the checked-in file to this dict).  Uses the same
#: dependency-free subset :func:`repro.obs.otlp_schema.validate` checks.
CAUSAL_SCHEMA: Dict[str, Any] = {
    "$id": "repro.obs.causal.schema.json",
    "title": "repro causal analysis document",
    "type": "object",
    "required": ["schema", "mode", "nodes", "edges", "dropped_links",
                 "acyclic", "converged", "sessions", "sites", "protocols",
                 "coverage"],
    "properties": {
        "schema": {"type": "string", "pattern": r"^repro\.obs\.causal/1$"},
        "mode": {"type": "string", "enum": ["cluster", "wire"]},
        "nodes": {"type": "integer", "minimum": 0},
        "edges": {"type": "integer", "minimum": 0},
        "dropped_links": {"type": "integer", "minimum": 0},
        "acyclic": {"type": "boolean"},
        "converged": {"type": "boolean"},
        "convergence": _NODE_BRIEF_SCHEMA,
        "origin": _NODE_BRIEF_SCHEMA,
        "critical_path": {
            "type": "object",
            "required": ["start", "end", "elapsed", "hops", "rounds",
                         "attribution"],
            "properties": {
                "start": _NODE_BRIEF_SCHEMA,
                "end": _NODE_BRIEF_SCHEMA,
                "elapsed": {"type": "number", "minimum": 0},
                "rounds": {"type": "integer", "minimum": 0},
                "attribution": _ATTRIBUTION_SCHEMA,
                "hops": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["from", "to", "edge", "elapsed",
                                     "categories"],
                        "properties": {
                            "from": _NODE_BRIEF_SCHEMA,
                            "to": _NODE_BRIEF_SCHEMA,
                            "edge": {"type": "string",
                                     "enum": ["program", "transmit",
                                              "queue"]},
                            "elapsed": {"type": "number"},
                            "categories": {"type": "object"},
                        },
                    },
                },
            },
        },
        "sessions": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["session", "messages", "rounds", "retries",
                             "timeouts", "resumes", "aborts",
                             "attribution", "coverage"],
                "properties": {
                    "messages": {"type": "integer", "minimum": 0},
                    "rounds": {"type": "integer", "minimum": 0},
                    "retries": {"type": "integer", "minimum": 0},
                    "timeouts": {"type": "integer", "minimum": 0},
                    "resumes": {"type": "integer", "minimum": 0},
                    "aborts": {"type": "integer", "minimum": 0},
                    "requested": {"type": "number"},
                    "started": {"type": "number"},
                    "ended": {"type": "number"},
                    "queue_wait": {"type": "number"},
                    "duration": {"type": "number"},
                    "bits": {"type": "integer", "minimum": 0},
                    "attribution": _ATTRIBUTION_SCHEMA,
                    "coverage": {"type": "number", "minimum": 0},
                },
            },
        },
        "sites": {"type": "object"},
        "protocols": {"type": "object"},
        "coverage": {
            "type": "object",
            "required": ["sampled", "seen", "kept", "fraction"],
            "properties": {
                "sampled": {"type": "boolean"},
                "seen": {"type": "integer", "minimum": 0},
                "kept": {"type": "integer", "minimum": 0},
                "fraction": {"type": "number", "minimum": 0},
            },
        },
    },
}


def validate_analysis(document: Any) -> List[str]:
    """Validate an analysis document against :data:`CAUSAL_SCHEMA`."""
    from repro.obs.otlp_schema import validate
    return validate(document, CAUSAL_SCHEMA)
