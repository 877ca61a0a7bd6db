"""Cluster-scale timed execution: many pairwise sessions on one clock.

The timed runner (:mod:`repro.net.runner`) measures a *single* session;
the paper's metadata-cost claims, however, are about fleets — n sites
gossiping concurrently, sessions queueing behind busy peers, updates
landing mid-schedule.  :class:`ClusterRunner` executes a precomputed
workload (:mod:`repro.workload.cluster`) by interleaving every session's
sender/receiver processes on a single :class:`~repro.net.simulator.Simulator`:

* **Per-site session queues.**  A site participates in at most ``fanout``
  sessions at a time (default 1 — strictly serialized per site).  Requests
  that find an endpoint busy queue up and start, oldest first, as capacity
  frees.  Queue waits are observable (``cluster.queue_wait_seconds``).
* **Deferred updates.**  A local update arriving while its site is mid-
  session applies the instant the site frees — mutating a vector that a
  live coroutine is iterating would corrupt the session.
* **Scheduling-independent accounting.**  With ``fanout=1`` each vector is
  touched by one session at a time, so every session's traffic depends
  only on the two endpoint states at its start — never on what else is in
  flight.  :func:`replay_sequential` re-executes a run's realized
  execution log one session at a time and must reproduce the concurrent
  run's bit counts exactly; the paired benchmark asserts it.  (With
  ``fanout > 1`` a vector may be shared between overlapping sessions and
  the guarantee is forfeit — useful for throughput realism, not for
  regression accounting.)

Tracing and metrics reuse the PR 1 instruments: pass a
:class:`~repro.obs.trace.Tracer` for clock-stamped per-site events and a
:class:`~repro.obs.metrics.MetricsRegistry` for the standard
``observe_session`` instruments plus cluster-level counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.order import Ordering
from repro.core.rotating import BasicRotatingVector
from repro.errors import SimulationError
from repro.net.channel import ChannelSpec
from repro.net.faults import RetryPolicy, derive_seed
from repro.net.runner import (SessionOptions, TimedSessionResult, launch,
                              run_timed)
from repro.net.sharding import ShardMap, build_shard_map
from repro.net.simulator import Simulator
from repro.net.stats import TransferStats
from repro.net.topology import TopologySpec
from repro.net.wire import DEFAULT_ENCODING, Encoding
from repro.obs.metrics import MetricsRegistry, observe_session
from repro.obs.trace import Tracer
from repro.protocols import registry
from repro.workload.cluster import SessionRequest, UpdateRequest


@dataclass(frozen=True)
class ClusterConfig:
    """Parameters of one cluster run.

    Attributes:
        protocol: metadata scheme and sync protocol — ``brv`` (SYNCB),
            ``crv`` (SYNCC), or ``srv`` (SYNCS).
        channel: link model applied to every session.
        encoding: wire pricing for every message.
        fanout: concurrent sessions a site may participate in (≥ 1).
        stop_and_wait: per-item ack baseline instead of pipelining.
        proc_time: per-received-message processing cost.
        increment_on_merge: apply §2.2's post-reconciliation self-increment
            on the pulling site, keeping COMPARE's freshness precondition.
        max_steps: per-session effect budget (livelock guard).
        n_objects: replicated objects per site; a session synchronizes
            *all* of them between its pair.
        batch_size: objects coalesced into one framed wire session
            (:mod:`repro.protocols.batch`).  1 — the default — runs each
            object through the plain per-object machinery, bit-for-bit
            the historical single-object path.
        retry: ARQ knobs (timeouts, backoff, retry and resume budgets)
            applied to every session when the channel's fault spec is
            enabled; inert on a perfect link.
        topology: optional :class:`~repro.net.topology.TopologySpec`.
            When set, every session prices its wire hop over the channel
            of its endpoints' region pair (``topology.channel_for``)
            instead of the single shared ``channel``; ``None`` — the
            default — keeps the historical one-channel fleet
            byte-identical.
    """

    protocol: str = "srv"
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    encoding: Encoding = DEFAULT_ENCODING
    fanout: int = 1
    stop_and_wait: bool = False
    proc_time: float = 0.0
    increment_on_merge: bool = True
    max_steps: int = 10_000_000
    n_objects: int = 1
    batch_size: int = 1
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    topology: Optional[TopologySpec] = None

    def __post_init__(self) -> None:
        registry.get(self.protocol)  # a typo'd protocol fails at config time
        if self.fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {self.fanout}")
        if self.n_objects < 1:
            raise ValueError(f"n_objects must be >= 1, got {self.n_objects}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, "
                             f"got {self.batch_size}")
        faulted = self.channel.faults.enabled if self.topology is None \
            else self.topology.has_faults
        if faulted and self.fanout > 1:
            raise ValueError(
                "faulted channels require fanout=1: session resume "
                "restores the receiver's pre-session snapshot, which is "
                "only sound when no other session writes the same site "
                "concurrently")


@dataclass
class ClusterSessionRecord:
    """One executed session, in cluster start order.

    ``verdict``/``reconciled`` describe object 0 (the full history for
    single-object clusters); ``verdicts``/``reconciled_objects`` carry
    the per-object detail when ``n_objects > 1``.
    """

    index: int
    src: str
    dst: str
    requested_at: float
    started_at: float
    verdict: Ordering
    reconciled: bool
    result: Optional[TimedSessionResult] = None
    verdicts: Tuple[Ordering, ...] = ()
    reconciled_objects: Tuple[bool, ...] = ()
    #: Object ids this session synchronized, aligned with ``verdicts``/
    #: ``reconciled_objects``.  ``(0, …, n_objects-1)`` on the historical
    #: unsharded path; the pair's shared-shard subset otherwise.
    objects: Tuple[int, ...] = ()

    @property
    def queue_wait(self) -> float:
        """Seconds the request sat behind busy endpoints."""
        return self.started_at - self.requested_at


#: Execution-log entries: ``("update", site)`` (object 0),
#: ``("update", site, obj)`` for a non-zero object index,
#: ``("session", src, dst)``, or — on sharded fleets only —
#: ``("session", src, dst, objs)`` carrying the synchronized object ids,
#: in realized execution order.  Reconciliation self-increments are *not*
#: logged — they are derived deterministically from each session's
#: verdicts, by the runner and by :func:`replay_sequential` alike.
LogEntry = Tuple[Any, ...]


@dataclass
class ClusterResult:
    """What one cluster run measured.

    ``vectors`` is every site's object-0 vector (the whole state for
    single-object clusters); ``objects`` holds the full per-site object
    lists (``objects[site][0] is vectors[site]``).
    """

    records: List[ClusterSessionRecord]
    log: List[LogEntry]
    totals: TransferStats
    completion_time: float
    updates_applied: int
    updates_deferred: int
    reconciliations: int
    vectors: Dict[str, BasicRotatingVector]
    objects: Dict[str, Any] = field(default_factory=dict)
    #: Set on sharded runs: the object→replica-group assignment, which
    #: scopes :meth:`consistent` to each object's own replica group
    #: (``objects[site]`` is then a dict keyed by hosted object id).
    shards: Optional[ShardMap] = None
    #: Sessions dropped before start because the pair shared no objects.
    skipped_sessions: int = 0

    @property
    def sessions(self) -> int:
        return len(self.records)

    @property
    def total_bits(self) -> int:
        return self.totals.total_bits

    @property
    def max_queue_wait(self) -> float:
        return max((r.queue_wait for r in self.records), default=0.0)

    def consistent(self) -> bool:
        """True iff every replica agrees on the values of every object.

        Unsharded fleets compare all sites; sharded fleets compare each
        object across its own replica group — the only sites that hold
        it.
        """
        if self.shards is not None:
            for obj, group in enumerate(self.shards.replicas):
                reference = self.objects[group[0]][obj]
                if not all(self.objects[site][obj].same_values(reference)
                           for site in group[1:]):
                    return False
            return True
        if self.objects:
            site_lists = list(self.objects.values())
            first = site_lists[0]
            return all(site_list[k].same_values(first[k])
                       for site_list in site_lists[1:]
                       for k in range(len(first)))
        vectors = list(self.vectors.values())
        return all(v.same_values(vectors[0]) for v in vectors[1:])

    def per_session_bits(self) -> List[int]:
        """Total bits of each session, in start order."""
        return [r.result.stats.total_bits for r in self.records]


class ClusterRunner:
    """Schedules many concurrent pairwise sessions on one simulator.

    One-shot: construct, :meth:`run` once, read the result.  The runner
    owns one rotating vector per site (``config.protocol`` picks the
    class); sessions mutate them in place exactly as a real fleet would.
    """

    def __init__(self, sites: Iterable[str], config: ClusterConfig, *,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 monitor: Optional[Any] = None,
                 shards: Optional[ShardMap] = None) -> None:
        self.sites = list(sites)
        if len(set(self.sites)) != len(self.sites):
            raise ValueError("duplicate site names in cluster")
        self.config = config
        if monitor is not None and tracer is None:
            # The monitor feeds on the trace stream; a run launched
            # without a tracer adopts the monitor's private one so there
            # are reliability events to observe.
            tracer = monitor.tracer
        self.tracer = tracer
        self.metrics = metrics
        self.monitor = monitor
        self.shards = shards
        self.topology = config.topology
        spec = registry.get(config.protocol)
        vector_cls = spec.vector_cls
        self._reconciles = spec.reconciles
        self._site_set = set(self.sites)
        if shards is not None:
            if shards.n_objects != config.n_objects:
                raise ValueError(
                    f"shard map covers {shards.n_objects} objects but the "
                    f"config declares {config.n_objects}")
            unknown = set(shards.hosted) - self._site_set
            if unknown:
                raise ValueError(
                    f"shard map names sites outside the cluster: "
                    f"{sorted(unknown)}")
            # Sharded fleets host only their assigned objects, keyed by
            # object id (site→dict); the unsharded list layout below
            # stays untouched — position is the id there.
            self.objects = {
                site: {obj: vector_cls()
                       for obj in shards.hosted.get(site, ())}
                for site in self.sites}
            self.vectors = {}
        else:
            self.objects = {
                site: [vector_cls() for _ in range(config.n_objects)]
                for site in self.sites}
            #: Object-0 view, the whole state for single-object clusters.
            self.vectors = {
                site: self.objects[site][0] for site in self.sites}
        self._sim: Optional[Simulator] = None
        self._usage: Dict[str, int] = {site: 0 for site in self.sites}
        self._deferred: Dict[str, List[UpdateRequest]] = {
            site: [] for site in self.sites}
        # Pending (request, requested-at) entries keyed by arrival
        # sequence (insertion-ordered), with a per-site index of waiting
        # sequence numbers so a finish only rescans requests touching the
        # freed endpoints.
        self._pending: Dict[int, Tuple[SessionRequest, float]] = {}
        self._pending_by_site: Dict[str, List[int]] = {
            site: [] for site in self.sites}
        self._next_seq = 0
        self._records: List[ClusterSessionRecord] = []
        self._log: List[LogEntry] = []
        self._totals = TransferStats()
        self._updates_applied = 0
        self._updates_deferred = 0
        self._reconciliations = 0
        self._skipped_sessions = 0
        self._finished = False

    def hosted_objects(self, site: str) -> Tuple[int, ...]:
        """Object ids ``site`` replicates (all of them when unsharded)."""
        if self.shards is None:
            return tuple(range(self.config.n_objects))
        return self.shards.hosted.get(site, ())

    def _channel_for(self, src: str, dst: str) -> ChannelSpec:
        """The channel one session uses — region-pair aware when a
        topology is set, the single shared channel otherwise."""
        if self.topology is None:
            return self.config.channel
        return self.topology.channel_for(src, dst)

    # -- scheduling ------------------------------------------------------------

    def run(self, sessions: Iterable[SessionRequest],
            updates: Iterable[UpdateRequest] = ()) -> ClusterResult:
        """Execute the schedule to completion; returns the measurements."""
        if self._finished:
            raise SimulationError("ClusterRunner instances are one-shot")
        self._finished = True
        sim = self._sim = Simulator()
        tracer = self.tracer
        previous_clock = tracer.clock if tracer is not None else None
        span = None
        if tracer is not None:
            tracer.clock = lambda: sim.now
            # The channel parameters on the span let the causal analyzer
            # decompose every send→deliver hop exactly (latency +
            # bits/bandwidth + fault-injected delay, zero residual).
            span = tracer.span(f"cluster:{self.config.protocol}",
                               sites=len(self.sites),
                               fanout=self.config.fanout,
                               protocol=self.config.protocol,
                               latency=self.config.channel.latency,
                               bandwidth=self.config.channel.bandwidth)
        if self.monitor is not None:
            self.monitor.attach(self)
        try:
            for request in sessions:
                self._check_sites(request.src, request.dst)
                if request.src == request.dst:
                    raise ValueError(
                        f"session {request} pairs a site with itself")
                sim.call_at(request.at,
                            lambda r=request: self._on_session_request(r))
            for update in updates:
                self._check_sites(update.site)
                obj = getattr(update, "obj", 0)
                if not 0 <= obj < self.config.n_objects:
                    raise ValueError(
                        f"update {update} names object {obj}, but the "
                        f"cluster has {self.config.n_objects}")
                if self.shards is not None \
                        and not self.shards.hosts(update.site, obj):
                    raise ValueError(
                        f"update {update} lands on {update.site}, which "
                        f"does not replicate object {obj}")
                sim.call_at(update.at,
                            lambda u=update: self._on_update_request(u))
            sim.run()
            if self.monitor is not None:
                self.monitor.finalize()
        finally:
            if span is not None:
                span.end()
            if tracer is not None:
                tracer.flush_sampling()
                tracer.clock = previous_clock
        if self._pending or any(self._usage.values()):
            raise SimulationError(  # pragma: no cover - defensive
                "cluster drained with sessions still queued or active")
        return ClusterResult(
            records=self._records,
            log=self._log,
            totals=self._totals,
            completion_time=sim.now,
            updates_applied=self._updates_applied,
            updates_deferred=self._updates_deferred,
            reconciliations=self._reconciliations,
            vectors=self.vectors,
            objects=self.objects,
            shards=self.shards,
            skipped_sessions=self._skipped_sessions,
        )

    def _check_sites(self, *names: str) -> None:
        for name in names:
            if name not in self._site_set:
                raise ValueError(f"unknown site {name!r} in schedule")

    # -- updates ---------------------------------------------------------------

    def _on_update_request(self, update: UpdateRequest) -> None:
        if self._usage[update.site] > 0:
            # Mid-session: mutating a vector a live coroutine iterates
            # would corrupt the session; hold the update until it frees.
            self._deferred[update.site].append(update)
            self._updates_deferred += 1
            if self.metrics is not None:
                self.metrics.counter("cluster.updates_deferred").inc()
            return
        self._apply_update(update.site, getattr(update, "obj", 0))

    def _apply_update(self, site: str, obj: int = 0) -> None:
        self.objects[site][obj].record_update(site)
        # Object-0 updates keep the historical two-tuple entry so
        # single-object logs (and their replays) are unchanged.
        self._log.append(("update", site) if obj == 0
                         else ("update", site, obj))
        self._updates_applied += 1
        if self.tracer is not None:
            self.tracer.event("update", party=site)
        if self.metrics is not None:
            self.metrics.counter("cluster.updates").inc()
        if self.monitor is not None:
            self.monitor.on_update(site, obj)

    # -- sessions --------------------------------------------------------------

    def _on_session_request(self, request: SessionRequest) -> None:
        if self.shards is not None \
                and not self._session_objects(request):
            # The pair replicates no common object: nothing to sync.
            # Epidemic schedules draw peers from shard-peer sets and
            # never produce these; hand-written schedules may.
            self._skipped_sessions += 1
            return
        if self.tracer is not None:
            # The session index is unknown until the session starts;
            # the analyzer matches requests to starts FIFO per (src,
            # dst) pair — exactly the order _dispatch starts them.
            self.tracer.event("session_request", party=request.dst,
                              peer=request.src)
        # Dispatch invariant: every already-pending request has at least
        # one endpoint at capacity (established by the freed-site scan
        # below), and nothing has freed since — so the only request that
        # can start right now is this one.
        fanout = self.config.fanout
        if (self._usage[request.src] < fanout
                and self._usage[request.dst] < fanout):
            self._start(request, self._sim.now)
            return
        seq = self._next_seq
        self._next_seq += 1
        self._pending[seq] = (request, self._sim.now)
        self._pending_by_site[request.src].append(seq)
        self._pending_by_site[request.dst].append(seq)

    def _dispatch(self, freed: Tuple[str, ...]) -> None:
        """Start queued sessions startable now that ``freed`` has capacity.

        Only requests touching a freed endpoint can have become
        startable (everything else kept its saturated endpoint), so the
        scan covers just those two sites' queues — in global arrival
        order, consuming capacity exactly as the historical full
        oldest-first pass over all pending requests did.  Entries
        consumed by an earlier scan are pruned lazily here.
        """
        fanout = self.config.fanout
        pending = self._pending
        by_site = self._pending_by_site
        candidates = set()
        for site in freed:
            live = [seq for seq in by_site[site] if seq in pending]
            by_site[site] = live
            candidates.update(live)
        for seq in sorted(candidates):
            entry = pending.get(seq)
            if entry is None:
                continue  # started earlier in this very scan
            request, requested_at = entry
            if (self._usage[request.src] < fanout
                    and self._usage[request.dst] < fanout):
                del pending[seq]
                self._start(request, requested_at)

    def _session_objects(self, request: SessionRequest
                         ) -> Tuple[int, ...]:
        """The object ids a session between the request's pair syncs."""
        if self.shards is None:
            return tuple(range(self.config.n_objects))
        objs = getattr(request, "objs", None)
        shared = self.shards.shared_objects(request.src, request.dst)
        if objs is None:
            return shared
        extra = set(objs) - set(shared)
        if extra:
            raise ValueError(
                f"session {request.src}->{request.dst} names objects "
                f"{sorted(extra)} the pair does not share")
        return tuple(objs)

    def _build_pairs(self, src: str, dst: str, objs: Tuple[int, ...]
                     ) -> Tuple[List[Ordering], List[bool],
                                Tuple[Tuple[Any, Any], ...]]:
        """Fresh coroutine pairs over the endpoints' *current* state."""
        spec = registry.get(self.config.protocol)
        verdicts: List[Ordering] = []
        reconciled_flags: List[bool] = []
        pairs: List[Tuple[Any, Any]] = []
        for obj in objs:
            verdict = self.objects[dst][obj].compare(self.objects[src][obj])
            sender, receiver, reconciled = spec.build(
                self.objects[src][obj], self.objects[dst][obj], verdict,
                tracer=self.tracer)
            verdicts.append(verdict)
            reconciled_flags.append(reconciled)
            pairs.append((sender, receiver))
        return verdicts, reconciled_flags, tuple(pairs)

    def _start(self, request: SessionRequest, requested_at: float) -> None:
        sim = self._sim
        config = self.config
        src, dst = request.src, request.dst
        objs = self._session_objects(request)
        channel = self._channel_for(src, dst)
        verdicts, reconciled_flags, pairs = self._build_pairs(src, dst, objs)
        record = ClusterSessionRecord(
            index=len(self._records), src=src, dst=dst,
            requested_at=requested_at, started_at=sim.now, verdict=verdicts[0],
            reconciled=reconciled_flags[0], verdicts=tuple(verdicts),
            reconciled_objects=tuple(reconciled_flags), objects=objs)
        self._records.append(record)
        # Sharded logs carry the synchronized object subset so replay
        # rebuilds the identical per-session pairing; unsharded entries
        # keep the historical three-tuple shape.
        self._log.append(("session", src, dst) if self.shards is None
                         else ("session", src, dst, objs))
        self._usage[src] += 1
        self._usage[dst] += 1
        self._reconciliations += sum(reconciled_flags)
        if self.tracer is not None:
            self.tracer.event("session_start", party=dst, peer=src,
                              verdict=verdicts[0].name.lower(),
                              session=record.index)
        if self.monitor is not None:
            # Before launch: the monitor snapshots the endpoints here so
            # its post-session ancestor-closure oracle has the pre-state.
            self.monitor.on_session_start(record)
        common = dict(
            # A single-object session runs the historical per-object
            # path regardless of batch_size, as it always has.
            batch_size=config.batch_size if len(pairs) > 1 else 1,
            channel=channel, encoding=config.encoding,
            stop_and_wait=config.stop_and_wait, proc_time=config.proc_time,
            max_steps=config.max_steps, tracer=self.tracer,
            party_names=(src, dst), retry=config.retry,
            session_id=record.index,
            on_complete=lambda result: self._finish(record, result))
        if not channel.faults.enabled:
            launch(sim, SessionOptions(pairs=pairs, **common))
            return

        first_pairs: List[Tuple[Tuple[Any, Any], ...]] = [pairs]
        # Attempts are transactional: the protocols stream Δ newest-first,
        # so a torn attempt's acked prefix is never ancestor-closed and
        # committing it would corrupt the receiver's knowledge state (a
        # vector claiming an element without its causal past halts every
        # later sync prematurely).  Snapshot the receiver's objects now;
        # resume restores them and re-handshakes from this state.  Safe
        # because updates to a busy site are deferred and fanout capacity
        # means no other session writes ``dst`` meanwhile.
        snapshots = tuple(self.objects[dst][obj].copy() for obj in objs)

        def rebuild() -> Tuple[Tuple[Any, Any], ...]:
            if first_pairs:
                return first_pairs.pop()
            for obj, snapshot in zip(objs, snapshots):
                # In place: result views and the site table alias these
                # objects, so identity must survive the rollback.
                self.objects[dst][obj].restore(snapshot)
            new_verdicts, new_flags, new_pairs = self._build_pairs(
                src, dst, objs)
            merged = tuple(old or new for old, new
                           in zip(record.reconciled_objects, new_flags))
            self._reconciliations += sum(
                1 for old, new in zip(record.reconciled_objects, new_flags)
                if new and not old)
            record.verdicts = tuple(new_verdicts)
            record.reconciled_objects = merged
            record.verdict = new_verdicts[0]
            record.reconciled = merged[0]
            return new_pairs

        launch(sim, SessionOptions(
            rebuild=rebuild,
            fault_seed=derive_seed(channel.faults.seed, record.index),
            **common))

    def _finish(self, record: ClusterSessionRecord,
                result: TimedSessionResult) -> None:
        record.result = result
        self._totals.merge(result.stats)
        if self.monitor is not None:
            # Before the §2.2 self-increment below: the closure oracle
            # expects the receiver to hold exactly max(pre-state, sender).
            self.monitor.on_session_end(record, result)
        src, dst = record.src, record.dst
        self._usage[src] -= 1
        self._usage[dst] -= 1
        if self.config.increment_on_merge:
            # §2.2: the pulling site increments its own element after an
            # automatic merge, per reconciled object.  Not logged — replay
            # derives it from the session verdicts, exactly as here.
            for obj, reconciled in zip(record.objects,
                                       record.reconciled_objects):
                if reconciled:
                    self.objects[dst][obj].record_update(dst)
                    if self.tracer is not None:
                        # New knowledge originating at dst: the causal
                        # analyzer's convergence frontier must include it.
                        self.tracer.event("reconcile", party=dst, obj=obj,
                                          session=record.index)
        if self.tracer is not None:
            self.tracer.event("session_end", party=dst, peer=src,
                              bits=result.stats.total_bits,
                              session=record.index)
        if self.metrics is not None:
            observe_session(self.metrics, result.stats,
                            protocol=f"cluster.{self.config.protocol}",
                            completion_time=result.duration)
            self.metrics.histogram("cluster.queue_wait_seconds").observe(
                record.queue_wait)
        # Updates that arrived mid-session land before anything queued
        # gets to start on the freed endpoints.
        for site in (src, dst):
            if self._usage[site] == 0 and self._deferred[site]:
                deferred, self._deferred[site] = self._deferred[site], []
                for update in deferred:
                    self._apply_update(site, getattr(update, "obj", 0))
        self._dispatch((src, dst))


def replay_sequential(sites: Iterable[str], config: ClusterConfig,
                      log: Iterable[LogEntry], *,
                      shards: Optional[ShardMap] = None
                      ) -> Tuple[List[TimedSessionResult],
                                 Dict[str, BasicRotatingVector]]:
    """Re-execute a cluster run's log one session at a time.

    Each session runs alone on a fresh private simulator (via the unified
    :func:`~repro.net.runner.launch` machinery) against vectors evolved
    through the same realized order.  Under ``fanout=1`` the returned
    per-session stats must equal the concurrent run's — the scheduling-
    independence property the regression benchmark asserts.  On a faulted
    channel every session re-derives the concurrent run's per-session
    injector seed from its log position, so drop/duplicate/reorder
    schedules (and the retransmissions, aborts, and resumes they induce)
    replay bit for bit; absolute-time *partition windows* are the one
    exclusion — a replayed session starts its private clock at 0, so the
    replay guarantee covers probabilistic faults only.  Returns the
    per-session results and every site's object-0 vector.
    """
    spec = registry.get(config.protocol)
    vector_cls = spec.vector_cls
    if shards is not None:
        objects: Dict[str, Any] = {
            site: {obj: vector_cls()
                   for obj in shards.hosted.get(site, ())}
            for site in sites}
    else:
        objects = {
            site: [vector_cls() for _ in range(config.n_objects)]
            for site in sites}
    results: List[TimedSessionResult] = []
    session_index = -1
    for entry in log:
        if entry[0] == "update":
            obj = entry[2] if len(entry) > 2 else 0
            objects[entry[1]][obj].record_update(entry[1])
            continue
        if entry[0] != "session":  # pragma: no cover - defensive
            raise ValueError(f"unknown log entry {entry!r}")
        src, dst = entry[1], entry[2]
        # Sharded logs carry each session's object subset; unsharded
        # three-tuples cover the whole object range, as always.
        objs = tuple(entry[3]) if len(entry) > 3 \
            else tuple(range(config.n_objects))
        channel = config.channel if config.topology is None \
            else config.topology.channel_for(src, dst)
        session_index += 1
        reconciled_any = {obj: False for obj in objs}
        # Mirrors the concurrent runner's transactional attempts: the
        # first build snapshots the receiver's objects, every resume
        # restores them before re-handshaking (see ClusterRunner._start).
        snapshots: List[Tuple[Any, ...]] = []

        def build() -> Tuple[Tuple[Any, Any], ...]:
            if channel.faults.enabled:
                if not snapshots:
                    snapshots.append(
                        tuple(objects[dst][obj].copy() for obj in objs))
                else:
                    for obj, snapshot in zip(objs, snapshots[0]):
                        objects[dst][obj].restore(snapshot)
            pairs = []
            for obj in objs:
                verdict = objects[dst][obj].compare(objects[src][obj])
                sender, receiver, reconciled = spec.build(
                    objects[src][obj], objects[dst][obj], verdict)
                pairs.append((sender, receiver))
                reconciled_any[obj] |= reconciled
            return tuple(pairs)

        common = dict(
            batch_size=config.batch_size if len(objs) > 1 else 1,
            channel=channel, encoding=config.encoding,
            stop_and_wait=config.stop_and_wait, proc_time=config.proc_time,
            max_steps=config.max_steps, retry=config.retry)
        if channel.faults.enabled:
            options = SessionOptions(
                rebuild=build,
                fault_seed=derive_seed(channel.faults.seed,
                                       session_index),
                **common)
        else:
            options = SessionOptions(pairs=build(), **common)
        results.append(run_timed(options))
        if config.increment_on_merge:
            for obj, reconciled in reconciled_any.items():
                if reconciled:
                    objects[dst][obj].record_update(dst)
    if shards is not None:
        return results, {site: objs[0] for site, objs in objects.items()
                         if 0 in objs}
    return results, {site: objs[0] for site, objs in objects.items()}


def launch_cluster(spec: TopologySpec, *, protocol: str = "srv",
                   n_objects: int = 1, batch_size: int = 1,
                   encoding: Encoding = DEFAULT_ENCODING,
                   stop_and_wait: bool = False, proc_time: float = 0.0,
                   increment_on_merge: bool = True,
                   max_steps: int = 10_000_000,
                   retry: Optional[RetryPolicy] = None,
                   shard: Optional[bool] = None,
                   tracer: Optional[Tracer] = None,
                   metrics: Optional[MetricsRegistry] = None,
                   monitor: Optional[Any] = None) -> ClusterRunner:
    """The unified cluster entry point: one ``TopologySpec``, one runner.

    Follows the ``launch(sim, SessionOptions)`` precedent: every fleet-
    shape knob — regions, links, loss, gossip fanout, replication —
    lives on the spec; everything else is keyword-only here.  Returns a
    ready-to-:meth:`~ClusterRunner.run` runner whose sites are
    ``spec.site_names()``, sharded via the consistent-hash ring whenever
    the spec carries a replication factor (``shard=`` forces it either
    way).
    """
    fanout = spec.gossip.fanout if spec.replication is None else 1
    config = ClusterConfig(
        protocol=protocol, encoding=encoding, fanout=fanout,
        stop_and_wait=stop_and_wait, proc_time=proc_time,
        increment_on_merge=increment_on_merge, max_steps=max_steps,
        n_objects=n_objects, batch_size=batch_size,
        retry=retry if retry is not None else RetryPolicy(),
        topology=spec)
    do_shard = shard if shard is not None else spec.replication is not None
    shards = build_shard_map(spec, n_objects) if do_shard else None
    return ClusterRunner(spec.site_names(), config, tracer=tracer,
                         metrics=metrics, monitor=monitor, shards=shards)
