"""A complete state-transfer optimistic replication system (§2.1).

Sites hold at most one replica per object; any site may update its replica;
synchronization is a directional *pull* that overwrites the whole object
(state transfer).  Conflict detection is syntactic, through pluggable
metadata — plain version vectors (the traditional baseline, whole-vector
exchange), BRV, CRV, or SRV (the paper's incremental schemes) — and
resolution is either manual (exclude the pair) or automatic
(reconcile-and-increment, §2.2).

Every synchronization accounts its traffic in bits, split into metadata
(COMPARE + SYNC*) and payload (the object value), so the benchmark harness
can reproduce the paper's communication comparisons end to end.  When
``track_graph`` is on, the system also maintains the analytic replication
graph of every object (§4), which the CRG module coalesces to evaluate
Π sets and γ bounds against live SYNCS sessions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.core.order import Ordering
from repro.core.rotating import BasicRotatingVector
from repro.core.versionvector import VersionVector
from repro.errors import ConflictDetected, ReproError
from repro.graphs.replicationgraph import ReplicationGraph
from repro.net.stats import TransferStats
from repro.net.wire import Encoding
from repro.obs.metrics import MetricsRegistry, observe_session
from repro.obs.trace import Tracer
from repro.protocols import registry as protocols
from repro.protocols.comparep import compare_remote
from repro.protocols.fullsync import sync_full_vector
from repro.protocols.messages import PayloadMsg
from repro.protocols.reports import VectorReceiverReport, VectorSenderReport
from repro.protocols.session import SessionResult, run_session
from repro.replication.membership import SiteRegistry
from repro.replication.replica import (METADATA_KINDS, StateReplica,
                                       make_metadata)
from repro.replication.resolver import (AutomaticResolution, ManualResolution,
                                        deterministic_pick)

Resolution = Union[ManualResolution, AutomaticResolution]


def default_payload_size(value: Any) -> int:
    """Payload size estimate in bytes: the repr's UTF-8 length."""
    return len(repr(value).encode("utf-8"))


@dataclass
class SyncOutcome:
    """Everything one directional synchronization did and cost."""

    object_id: str
    src_site: str
    dst_site: str
    verdict: Ordering
    #: "none" (dst current), "pull" (dst overwritten), "reconcile"
    #: (automatic merge + increment), or "conflict" (manual exclusion).
    action: str
    metadata_bits: int = 0
    payload_bits: int = 0
    compare_session: Optional[SessionResult] = None
    sync_session: Optional[SessionResult] = None

    @property
    def total_bits(self) -> int:
        return self.metadata_bits + self.payload_bits

    @property
    def receiver_report(self) -> Optional[VectorReceiverReport]:
        if self.sync_session is None:
            return None
        report = self.sync_session.receiver_result
        return report if isinstance(report, VectorReceiverReport) else None

    @property
    def sender_report(self) -> Optional[VectorSenderReport]:
        if self.sync_session is None:
            return None
        report = self.sync_session.sender_result
        return report if isinstance(report, VectorSenderReport) else None


class StateTransferSystem:
    """Sites, objects, and pull-style synchronization over simulated wires.

    Args:
        metadata: one of ``"vv"``, ``"brv"``, ``"crv"``, ``"srv"``.
        resolution: :class:`ManualResolution` or :class:`AutomaticResolution`;
            defaults to automatic with a deterministic value pick.  BRV only
            supports manual resolution (§3.1) — combining it with automatic
            resolution raises at construction time.
        registry: shared site registry; created fresh when omitted.
        encoding: wire field widths; derived from the registry when omitted
            (after all sites are registered, or pass one explicitly for
            stable pricing).
        track_graph: maintain the analytic replication graph per object.
        payload_size: value → payload bytes estimate for state transfer.
        tracer: optional :class:`~repro.obs.trace.Tracer` threaded into
            every COMPARE and SYNC* session the system runs (one span per
            session, per-element semantic events).  ``None`` (default) is
            the zero-overhead off switch.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`
            receiving per-session instruments (bits-per-session histogram,
            messages-by-type counters) keyed by the metadata kind.
    """

    def __init__(self, *, metadata: str = "srv",
                 resolution: Optional[Resolution] = None,
                 registry: Optional[SiteRegistry] = None,
                 encoding: Optional[Encoding] = None,
                 track_graph: bool = True,
                 payload_size: Callable[[Any], int] = default_payload_size,
                 strict_conflicts: bool = False,
                 verify_wire: bool = False,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if metadata not in METADATA_KINDS:
            raise ValueError(f"unknown metadata kind {metadata!r}")
        if resolution is None:
            resolution = AutomaticResolution(deterministic_pick)
        if (metadata != "vv" and not protocols.get(metadata).reconciles
                and isinstance(resolution, AutomaticResolution)):
            raise ReproError(
                "BRV supports manual conflict resolution only (§3.1); "
                "use CRV or SRV for automatic reconciliation")
        self.metadata_kind = metadata
        self.resolution = resolution
        self.registry = registry if registry is not None else SiteRegistry()
        self._encoding = encoding
        self.track_graph = track_graph
        self.payload_size = payload_size
        self.strict_conflicts = strict_conflicts
        #: When set, every protocol session's messages are physically
        #: serialized through :class:`repro.net.codec.Codec` (encode →
        #: bits → decode) and the bit lengths are asserted against the
        #: priced traffic — end-to-end validation that the reported
        #: numbers are realizable wire formats.
        self.verify_wire = verify_wire
        self.tracer = tracer
        self.metrics = metrics

        self._replicas: Dict[Tuple[str, str], StateReplica] = {}
        self._graphs: Dict[str, ReplicationGraph] = {}
        self.traffic = TransferStats()
        self.outcomes: List[SyncOutcome] = []
        self.conflicts: List[Tuple[str, str, str]] = []  # (object, dst, src)

    # -- configuration ------------------------------------------------------------

    @property
    def encoding(self) -> Encoding:
        if self._encoding is not None:
            return self._encoding
        return self.registry.encoding()

    def freeze_encoding(self, max_updates_per_site: int = 2 ** 16) -> Encoding:
        """Fix the wire widths from the current membership (call after setup)."""
        self._encoding = self.registry.encoding(max_updates_per_site)
        return self._encoding

    # -- object and replica management ----------------------------------------------

    def create_object(self, site: str, object_id: str,
                      value: Any) -> StateReplica:
        """Create an object on ``site``; creation counts as the first update."""
        self.registry.add(site)
        key = (site, object_id)
        if key in self._replicas:
            raise ReproError(f"{site} already hosts {object_id!r}")
        meta = make_metadata(self.metadata_kind)
        replica = StateReplica(site, object_id, value, meta)
        self._record_update_metadata(replica)
        self._replicas[key] = replica
        if self.track_graph:
            graph = ReplicationGraph()
            node = graph.add_initial(self._snapshot(replica))
            graph.label(node.node_id, site)
            replica.node_id = node.node_id
            self._graphs[object_id] = graph
        return replica

    def replica(self, site: str, object_id: str) -> StateReplica:
        """The replica ``site`` hosts for ``object_id``."""
        try:
            return self._replicas[(site, object_id)]
        except KeyError:
            raise ReproError(f"{site} hosts no replica of {object_id!r}") from None

    def replicas_of(self, object_id: str) -> List[StateReplica]:
        """Every replica of ``object_id``, ordered by site name."""
        return [r for (_, obj), r in sorted(self._replicas.items())
                if obj == object_id]

    def sites(self) -> List[str]:
        """All registered site names."""
        return self.registry.names()

    def graph(self, object_id: str) -> ReplicationGraph:
        """The analytic replication graph recorded for ``object_id``."""
        if not self.track_graph:
            raise ReproError("replication-graph tracking is disabled")
        return self._graphs[object_id]

    # -- updates -----------------------------------------------------------------------

    def update(self, site: str, object_id: str, value: Any) -> StateReplica:
        """Overwrite ``site``'s replica value with a local update."""
        replica = self.replica(site, object_id)
        if replica.conflicted:
            raise ConflictDetected(
                f"replica of {object_id!r} at {site} is excluded pending "
                f"manual resolution", site_a=site)
        replica.value = value
        self._record_update_metadata(replica)
        if self.track_graph:
            graph = self._graphs[object_id]
            node = graph.add_update(replica.node_id, self._snapshot(replica))
            graph.label(node.node_id, site)
            replica.node_id = node.node_id
        return replica

    def _record_update_metadata(self, replica: StateReplica) -> None:
        replica.updates += 1
        if isinstance(replica.meta, VersionVector):
            replica.meta.record_update(replica.site)
        else:
            replica.meta.record_update(replica.site)

    def _snapshot(self, replica: StateReplica) -> Tuple[Tuple[str, int], ...]:
        if isinstance(replica.meta, BasicRotatingVector):
            return tuple(replica.meta.elements())
        return tuple(sorted(replica.meta.items()))

    # -- synchronization ------------------------------------------------------------------

    def clone_replica(self, src_site: str, dst_site: str,
                      object_id: str) -> StateReplica:
        """First-time replication of an object onto a new site.

        Ships the full value plus metadata via the regular pull path after
        installing an empty replica (an empty vector precedes everything).
        """
        self.registry.add(dst_site)
        key = (dst_site, object_id)
        if key in self._replicas:
            raise ReproError(f"{dst_site} already hosts {object_id!r}")
        source = self.replica(src_site, object_id)
        replica = StateReplica(dst_site, object_id, None,
                               make_metadata(self.metadata_kind))
        if self.track_graph:
            replica.node_id = source.node_id  # provisional; pull confirms
        self._replicas[key] = replica
        self.pull(dst_site, src_site, object_id)
        return replica

    def pull(self, dst_site: str, src_site: str,
             object_id: str) -> SyncOutcome:
        """Synchronize: bring ``dst``'s replica up to date from ``src``."""
        dst = self.replica(dst_site, object_id)
        src = self.replica(src_site, object_id)
        if dst.conflicted or src.conflicted:
            raise ConflictDetected(
                f"replica pair ({dst_site}, {src_site}) of {object_id!r} is "
                f"excluded pending manual resolution",
                site_a=dst_site, site_b=src_site)
        if self.metadata_kind == "vv":
            outcome = self._pull_full_vector(dst, src)
        else:
            outcome = self._pull_rotating(dst, src)
        self.outcomes.append(outcome)
        if outcome.compare_session is not None:
            self.traffic.merge(outcome.compare_session.stats)
        if outcome.sync_session is not None:
            self.traffic.merge(outcome.sync_session.stats)
        if outcome.payload_bits:
            self.traffic.forward.record("PayloadMsg", outcome.payload_bits)
        if self.metrics is not None and outcome.sync_session is not None:
            observe_session(self.metrics, outcome.sync_session.stats,
                            protocol=self.metadata_kind)
        return outcome

    def sync_bidirectional(self, site_a: str, site_b: str,
                           object_id: str) -> Tuple[SyncOutcome, SyncOutcome]:
        """Anti-entropy exchange: pull a←b, then b←a."""
        first = self.pull(site_a, site_b, object_id)
        second = self.pull(site_b, site_a, object_id)
        return first, second

    # -- pull implementations --------------------------------------------------------------

    def _pull_full_vector(self, dst: StateReplica,
                          src: StateReplica) -> SyncOutcome:
        """Traditional baseline: whole vector ships; verdict computed locally.

        The full vector is transmitted in every case — that is what enables
        the receiver-side comparison — but it is only *merged* into the
        local metadata when the pull proceeds (a manual system excludes the
        conflicting pair without merging anything).
        """
        verdict = dst.meta.compare(src.meta)  # type: ignore[union-attr]
        manual_conflict = (verdict is Ordering.CONCURRENT
                           and isinstance(self.resolution, ManualResolution))
        if manual_conflict:
            session = None
            metadata_bits = self.encoding.full_vector_bits(len(src.meta))
            self.traffic.forward.record("FullVectorMsg", metadata_bits)
        else:
            session = sync_full_vector(dst.meta, src.meta,
                                       encoding=self.encoding)
            metadata_bits = session.stats.total_bits
        return self._apply_verdict(dst, src, verdict, session,
                                   metadata_bits=metadata_bits)

    def _pull_rotating(self, dst: StateReplica,
                       src: StateReplica) -> SyncOutcome:
        verdict, compare_session = compare_remote(dst.meta, src.meta,
                                                  encoding=self.encoding,
                                                  tracer=self.tracer)
        sync_session: Optional[SessionResult] = None
        if verdict in (Ordering.BEFORE, Ordering.CONCURRENT):
            if (verdict is Ordering.CONCURRENT
                    and isinstance(self.resolution, ManualResolution)):
                # Manual systems never reconcile metadata on the wire.
                sync_session = None
            else:
                sync_session = self._run_vector_sync(dst, src, verdict)
        metadata_bits = compare_session.stats.total_bits
        if sync_session is not None:
            metadata_bits += sync_session.stats.total_bits
        outcome = self._apply_verdict(dst, src, verdict, sync_session,
                                      metadata_bits=metadata_bits)
        outcome.compare_session = compare_session
        return outcome

    def _run_vector_sync(self, dst: StateReplica, src: StateReplica,
                         verdict: Ordering) -> SessionResult:
        kind = self.metadata_kind
        tracer = self.tracer
        sender, receiver, _ = protocols.get(kind).build(
            src.meta, dst.meta, verdict, tracer=tracer)
        if self.verify_wire:
            # The serialized path stays untraced: its codec pipeline does
            # its own bit-level asserts and is a validation harness, not a
            # measurement path.
            from repro.net.codec import Codec, run_session_serialized
            codec = Codec(self.encoding, self.registry)
            return run_session_serialized(
                sender, receiver, codec=codec,
                forward_channel=f"{kind}_fwd", backward_channel=f"{kind}_bwd")
        return run_session(sender, receiver, encoding=self.encoding,
                           tracer=tracer, span_name=f"SYNC{kind[0].upper()}")

    def _apply_verdict(self, dst: StateReplica, src: StateReplica,
                       verdict: Ordering,
                       sync_session: Optional[SessionResult], *,
                       metadata_bits: int) -> SyncOutcome:
        outcome = SyncOutcome(dst.object_id, src.site, dst.site, verdict,
                              action="none", metadata_bits=metadata_bits,
                              sync_session=sync_session)
        if verdict in (Ordering.EQUAL, Ordering.AFTER):
            return outcome
        if verdict is Ordering.BEFORE:
            outcome.action = "pull"
            dst.value = src.value
            outcome.payload_bits = PayloadMsg(
                self.payload_size(src.value)).bits(self.encoding)
            if self.track_graph:
                graph = self._graphs[dst.object_id]
                graph.label(src.node_id, dst.site)
                dst.node_id = src.node_id
            return outcome
        # CONCURRENT
        if isinstance(self.resolution, ManualResolution):
            outcome.action = "conflict"
            dst.conflicted = True
            src.conflicted = True
            self.conflicts.append((dst.object_id, dst.site, src.site))
            if self.strict_conflicts:
                raise ConflictDetected(
                    f"concurrent updates on {dst.object_id!r}",
                    site_a=dst.site, site_b=src.site)
            return outcome
        outcome.action = "reconcile"
        merged = self.resolution.merge(dst.value, src.value)
        dst.value = merged
        outcome.payload_bits = PayloadMsg(
            self.payload_size(src.value)).bits(self.encoding)
        merge_parents = (dst.node_id, src.node_id)
        # §2.2: the hosting site increments its own element as a separate
        # update right after reconciliation, restoring COMPARE's fresh-front
        # precondition.
        self._record_update_metadata(dst)
        if self.track_graph:
            graph = self._graphs[dst.object_id]
            left, right = merge_parents
            assert left is not None and right is not None
            pre_increment = self._pre_increment_snapshot(dst)
            merge_node = graph.add_merge(left, right, pre_increment)
            node = graph.add_update(merge_node.node_id, self._snapshot(dst))
            graph.label(node.node_id, dst.site)
            dst.node_id = node.node_id
        return outcome

    def _pre_increment_snapshot(self, replica: StateReplica
                                ) -> Tuple[Tuple[str, int], ...]:
        """The merge-node vector: the post-sync, pre-increment snapshot."""
        snapshot = list(self._snapshot(replica))
        for index, (site, value) in enumerate(snapshot):
            if site == replica.site:
                if value == 1:
                    del snapshot[index]
                else:
                    # The increment rotated the element to the front; the
                    # merge vector had it one update older, in an unknown
                    # old position — front is the closest faithful spot.
                    snapshot[index] = (site, value - 1)
                break
        return tuple(snapshot)

    # -- manual resolution ----------------------------------------------------------------

    def resolve_manually(self, site: str, object_id: str,
                         merged_value: Any) -> StateReplica:
        """A human merges an excluded pair: install the merged value at
        ``site``, max-merge the metadata out of band, and readmit every
        replica of the object that was excluded with it."""
        replica = self.replica(site, object_id)
        peers = [r for r in self.replicas_of(object_id) if r.conflicted]
        if not replica.conflicted:
            raise ReproError(f"replica at {site} is not conflicted")
        merged_vector = VersionVector()
        for peer in peers:
            merged_vector.merge(VersionVector(dict(self._snapshot(peer))))
        if isinstance(replica.meta, VersionVector):
            replica.meta = merged_vector
        else:
            rebuilt = make_metadata(self.metadata_kind)
            previous = None
            for peer_site, value in sorted(merged_vector.items()):
                rebuilt.order.place_after(previous, peer_site, value)  # type: ignore[union-attr]
                previous = peer_site
            replica.meta = rebuilt
        replica.value = merged_value
        for peer in peers:
            peer.conflicted = False
        self._record_update_metadata(replica)
        if self.track_graph and len(peers) >= 2:
            graph = self._graphs[object_id]
            others = [p for p in peers if p is not replica]
            merge_node = graph.add_merge(replica.node_id, others[0].node_id,
                                         self._pre_increment_snapshot(replica))
            node = graph.add_update(merge_node.node_id, self._snapshot(replica))
            graph.label(node.node_id, site)
            replica.node_id = node.node_id
        return replica

    # -- consistency checks ---------------------------------------------------------------

    def is_consistent(self, object_id: str) -> bool:
        """True iff every (non-excluded) replica agrees on value and vector."""
        replicas = [r for r in self.replicas_of(object_id) if not r.conflicted]
        if len(replicas) <= 1:
            return True
        head = replicas[0]
        return all(r.value == head.value
                   and r.values_snapshot() == head.values_snapshot()
                   for r in replicas[1:])

    def values_consistent(self, object_id: str) -> bool:
        """True iff every replica agrees on the *value* (§2.1's semantic
        equivalence), regardless of vector state.

        Distinct from :meth:`is_consistent` because increment-on-merge can
        keep vectors churning after the values have long converged — e.g.
        two reconciliation waves chasing each other around a perfectly
        symmetric deterministic gossip ring (see
        ``tests/replication/test_antientropy.py::TestIncrementOscillation``).
        """
        replicas = [r for r in self.replicas_of(object_id) if not r.conflicted]
        if len(replicas) <= 1:
            return True
        head = replicas[0]
        return all(r.value == head.value for r in replicas[1:])

    def total_metadata_bits(self) -> int:
        """Metadata traffic accumulated over every synchronization."""
        return sum(o.metadata_bits for o in self.outcomes)
