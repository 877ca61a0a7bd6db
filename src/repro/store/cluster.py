"""The replicated store's cluster scheduler: clients + anti-entropy.

:class:`StoreCluster` hosts one :class:`~repro.store.kv.SiteStore` per
site on a single discrete-event simulator and drives two kinds of work
over them:

* **Client operations** (:class:`ClientOp`) execute against one site's
  table.  A site that is mid-session defers its client ops until the
  session ends — reads must never observe a torn mid-sync vector, and
  writes must never mutate a vector a live coroutine is iterating.  The
  deferral wait is the dominant realistic source of tail latency and is
  measured per op.
* **Anti-entropy sessions** synchronize a key set between two sites by
  running one stock SYNC* coroutine pair *per key* through the unified
  :func:`~repro.net.runner.launch` transport — so channel faults, ARQ
  retransmission, and transactional resume apply to store traffic
  unchanged.  Sibling sets are folded in afterwards by the pre-session
  verdicts (:meth:`~repro.store.kv.SiteStore.absorb`), and §2.2's
  post-reconciliation self-increment keeps COMPARE's freshness
  precondition per key.

Abort safety (the torn-vector contract)
---------------------------------------

On a faulted channel every session snapshots the receiver's records
before the first attempt.  Each *resume* restores them (in place —
vector identity survives) before rebuilding coroutines, and a session
that aborts **permanently** restores them too, via the launcher's
``on_abandon`` hook, before the endpoints are released.  Since client
ops defer while their site is in a session, no read can ever observe a
torn prefix of an aborted attempt: the key's get result after a failed
session equals its pre-session snapshot exactly.

Convergence
-----------

Per key, the sibling fold is a set union driven by vector verdicts:
adopt on domination, union on concurrency.  Union is order-insensitive
and idempotent, and the vectors themselves converge by the paper's sync
protocols, so any schedule that eventually pairs every site (directly or
transitively) drives all sites to identical per-key sibling sets.
:meth:`StoreCluster.run` can append a deterministic star sweep (gather
into a hub, then scatter back out) that *provably* closes convergence
for fault-free and resumable runs — the same pattern the monitor CLI
uses for its fleet score.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.core.order import Ordering
from repro.errors import SessionError, SimulationError, ValidationError
from repro.net.channel import ChannelSpec
from repro.net.faults import RetryPolicy, derive_seed
from repro.net.runner import SessionOptions, TimedSessionResult, launch
from repro.net.simulator import Simulator
from repro.net.stats import TransferStats
from repro.net.topology import TopologySpec, uniform_peer_rounds
from repro.net.wire import DEFAULT_ENCODING, Encoding
from repro.obs import trace as obs
from repro.obs.consistency import ConsistencyMonitor
from repro.obs.metrics import MetricsRegistry, observe_session
from repro.obs.trace import Tracer
from repro.protocols import registry
from repro.store.kv import (TOMBSTONE, CausalContext, KeySnapshot,
                            ReadResult, SiteStore, merge_siblings)


@dataclass(frozen=True)
class StoreConfig:
    """Parameters of one store cluster.

    Attributes:
        protocol: per-key metadata scheme from the protocol registry —
            ``srv`` (the default) or ``crv`` reconcile concurrent keys
            automatically; ``brv`` requires single-writer keys (it
            raises on concurrent inputs, Algorithm 2's ``Require``).
        channel: link model for every anti-entropy session, including
            its fault spec (chaos applies to store traffic unchanged).
        encoding: wire pricing for every sync message.
        batch_size: keys coalesced into one framed wire session.
        proc_time: per-received-message processing cost in sessions.
        client_latency: one-way client↔site delay added to every op's
            end-to-end latency (the op itself executes at the site).
        increment_on_merge: §2.2's post-reconciliation self-increment on
            the pulling site, per reconciled key.
        coordinated_writes: the coordinating site executes each put as
            an atomic read-modify-write — the client's causal context is
            unioned with the site's current context, so the put
            supersedes every sibling the coordinator just observed.
            This is the standard defense against sibling explosion
            (unbounded sibling growth under many writers with stale
            contexts); siblings then arise only from concurrent
            cross-site writes.  They are *not* bounded by the fleet
            size: values merge by union without per-value dots, and
            ``bench/baseline.json`` measures
            ``store.kv.siblings_per_key_max`` = 103–158 on
            ``store_hot``'s 8 sites.  Off, puts use the client context
            verbatim.
        read_repair: consult a peer replica on ``get`` and schedule a
            per-key repair session when the replicas diverge.
        retry: ARQ knobs for faulted channels (inert on perfect links).
        max_steps: per-session effect budget (livelock guard).
        topology: optional :class:`~repro.net.topology.TopologySpec`;
            when set, each anti-entropy session prices its hop over the
            channel of its endpoints' region pair instead of the single
            shared ``channel`` (``None`` keeps the historical
            one-channel store byte-identical).
    """

    protocol: str = "srv"
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    encoding: Encoding = DEFAULT_ENCODING
    batch_size: int = 8
    proc_time: float = 0.0
    client_latency: float = 0.002
    increment_on_merge: bool = True
    coordinated_writes: bool = True
    read_repair: bool = True
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    max_steps: int = 10_000_000
    topology: Optional[TopologySpec] = None

    def __post_init__(self) -> None:
        if self.protocol not in registry.names():
            raise ValidationError(
                f"unknown protocol {self.protocol!r}; "
                f"expected one of {registry.names()}")
        if self.batch_size < 1:
            raise ValidationError(
                f"batch_size must be >= 1, got {self.batch_size}")
        if self.proc_time < 0:
            raise ValidationError(
                f"proc_time must be >= 0, got {self.proc_time}")
        if self.client_latency < 0:
            raise ValidationError(
                f"client_latency must be >= 0, got {self.client_latency}")
        if self.max_steps < 1:
            raise ValidationError(
                f"max_steps must be >= 1, got {self.max_steps}")


@dataclass
class ClientOp:
    """One client operation against a site's table."""

    kind: str  # "get" | "put" | "delete"
    site: str
    key: str
    value: Any = None
    context: Optional[CausalContext] = None
    #: Peer replica a ``get`` consults for read-repair; ``None`` skips.
    repair_peer: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("get", "put", "delete"):
            raise ValidationError(
                f"op kind must be get/put/delete, got {self.kind!r}")


@dataclass
class OpOutcome:
    """One executed client op, with its realized timing."""

    op: ClientOp
    result: ReadResult
    submitted_at: float
    executed_at: float
    #: Whether a read-repair session was scheduled by this op.
    repaired: bool = False

    @property
    def queue_wait(self) -> float:
        return self.executed_at - self.submitted_at


@dataclass
class StoreSessionRecord:
    """One anti-entropy session between two sites, over ``keys``."""

    index: int
    src: str
    dst: str
    keys: Tuple[str, ...]
    requested_at: float
    started_at: float = 0.0
    verdicts: Dict[str, Ordering] = field(default_factory=dict)
    reconciled: Dict[str, bool] = field(default_factory=dict)
    aborted: bool = False
    result: Optional[TimedSessionResult] = None

    @property
    def queue_wait(self) -> float:
        return self.started_at - self.requested_at


@dataclass
class _SyncRequest:
    src: str
    dst: str
    keys: Optional[Tuple[str, ...]]
    requested_at: float


@dataclass
class StoreRunResult:
    """What one store cluster run measured."""

    stores: Dict[str, SiteStore]
    records: List[StoreSessionRecord]
    totals: TransferStats
    completion_time: float
    ops_applied: int
    ops_deferred: int
    read_repairs: int
    reconciliations: int
    sessions_abandoned: int

    @property
    def sessions(self) -> int:
        return len(self.records)

    @property
    def total_bits(self) -> int:
        return self.totals.total_bits

    @property
    def max_queue_wait(self) -> float:
        return max((r.queue_wait for r in self.records), default=0.0)

    def all_keys(self) -> List[str]:
        """Every key any site has heard of, sorted."""
        keys: set = set()
        for store in self.stores.values():
            keys.update(store.table)
        return sorted(keys)

    def converged(self) -> bool:
        """True iff every site agrees on every key — vector *and* siblings."""
        stores = list(self.stores.values())
        first = stores[0]
        for key in self.all_keys():
            if any(key not in store.table for store in stores):
                return False
            reference = first.table[key]
            for store in stores[1:]:
                record = store.table[key]
                if record.siblings != reference.siblings:
                    return False
                if not record.vector.same_values(reference.vector):
                    return False
        return True

    def sibling_sets(self) -> Dict[str, Tuple[Any, ...]]:
        """Per-key sibling tuples at the first site (canonical order)."""
        first = next(iter(self.stores.values()))
        return {key: first.table[key].siblings
                for key in sorted(first.table)}


class StoreCluster:
    """Schedules client ops and per-key anti-entropy on one simulator.

    One-shot like :class:`~repro.net.cluster.ClusterRunner`: construct,
    schedule work (``sim.call_at`` + :meth:`submit` /
    :meth:`request_sync`), :meth:`run` once, read the result.  Sites are
    strictly serialized (fanout 1): a site is in at most one session at
    a time, which is what makes the transactional snapshot/restore story
    sound — no other writer can touch a key mid-rollback.
    """

    def __init__(self, sites: Optional[Iterable[str]], config: StoreConfig,
                 *, tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 monitor: Optional[ConsistencyMonitor] = None) -> None:
        if sites is None:
            if config.topology is None:
                raise ValidationError(
                    "sites=None requires a StoreConfig.topology to name "
                    "the fleet")
            sites = config.topology.site_names()
        self.sites = list(sites)
        if len(self.sites) < 2:
            raise ValidationError("a store cluster needs at least two sites")
        if len(set(self.sites)) != len(self.sites):
            raise ValidationError("duplicate site names in store cluster")
        self.config = config
        if monitor is not None and tracer is None:
            # Same adoption contract as ClusterRunner/ClusterMonitor: a
            # cluster built without a tracer uses the monitor's private
            # one, so store events exist for the observatory to observe.
            tracer = monitor.tracer
        self.tracer = tracer
        self.metrics = metrics
        self.monitor = monitor
        spec = registry.get(config.protocol)
        self._spec = spec
        self.stores: Dict[str, SiteStore] = {
            site: SiteStore(site, spec.vector_cls) for site in self.sites}
        self.sim = Simulator()
        self._usage: Dict[str, int] = {site: 0 for site in self.sites}
        self._deferred_ops: Dict[str, List[Tuple[ClientOp, float, Optional[
            Callable[[OpOutcome], None]]]]] = {site: [] for site in self.sites}
        self._pending: List[_SyncRequest] = []
        #: (src, dst, key) triples with a repair session already queued;
        #: keeps hot keys from flooding the queue with duplicate repairs.
        self._repair_inflight: set = set()
        self._records: List[StoreSessionRecord] = []
        self._totals = TransferStats()
        self._ops_applied = 0
        self._ops_deferred = 0
        self._read_repairs = 0
        self._reconciliations = 0
        self._sessions_abandoned = 0
        self._finished = False

    # -- client operations -------------------------------------------------

    def submit(self, op: ClientOp,
               on_done: Optional[Callable[[OpOutcome], None]] = None
               ) -> None:
        """Submit ``op`` at the current simulated time.

        Executes immediately when the site is idle; defers until the
        site's session ends otherwise (FIFO per site, so one client's
        sticky-session ops stay ordered).
        """
        if op.site not in self.stores:
            raise ValidationError(f"unknown site {op.site!r}")
        now = self.sim.now
        if self._usage[op.site] > 0:
            self._deferred_ops[op.site].append((op, now, on_done))
            self._ops_deferred += 1
            if self.metrics is not None:
                self.metrics.counter("store.ops_deferred").inc()
            return
        self._execute_op(op, now, on_done)

    def _execute_op(self, op: ClientOp, submitted_at: float,
                    on_done: Optional[Callable[[OpOutcome], None]]) -> None:
        store = self.stores[op.site]
        now = self.sim.now
        repaired = False
        if op.kind == "put":
            result = store.put(op.key, op.value,
                               context=self._write_context(store, op),
                               now=now)
        elif op.kind == "delete":
            result = store.delete(op.key,
                                  context=self._write_context(store, op),
                                  now=now)
        else:
            result = store.get(op.key)
            if (self.config.read_repair and op.repair_peer is not None
                    and op.repair_peer != op.site
                    and op.repair_peer in self.stores
                    and self._usage[op.repair_peer] == 0):
                result, repaired = self._repaired_read(op, result)
        self._ops_applied += 1
        if self.metrics is not None:
            self.metrics.counter("store.ops").inc()
            self.metrics.counter(f"store.ops_{op.kind}").inc()
            self.metrics.histogram("store.op_queue_wait_seconds").observe(
                now - submitted_at)
        if self.tracer is not None:
            self.tracer.event(obs.STORE_OP, party=op.site, op=op.kind,
                              key=op.key)
        if self.monitor is not None:
            self.monitor.on_client_op(op.kind, op.site, op.key, now)
        if on_done is not None:
            on_done(OpOutcome(op=op, result=result,
                              submitted_at=submitted_at, executed_at=now,
                              repaired=repaired))

    def _write_context(self, store: SiteStore, op: ClientOp
                       ) -> Optional[CausalContext]:
        """The causal context a write executes under.

        With coordinated writes (the default) the coordinator unions the
        client's context with its own current context for the key — an
        atomic read-modify-write that covers every sibling the site
        holds, so a stale-context put no longer adds a sibling.  Sets
        still outgrow the fleet size through union merges of concurrent
        cross-site writes (``store.kv.siblings_per_key_max`` reaches
        103–158 on 8 sites in ``bench/baseline.json``).
        """
        if not self.config.coordinated_writes:
            return op.context
        context = store.context_of(op.key)
        for site, count in (op.context or {}).items():
            if count > context.get(site, 0):
                context[site] = count
        return context

    def _repaired_read(self, op: ClientOp, local: ReadResult
                       ) -> Tuple[ReadResult, bool]:
        """Consult a peer replica; merge the read and schedule a repair.

        The peer is only consulted while idle — a mid-session peer could
        expose a torn vector.  On divergence the *stale* replica pulls
        from the fresh one (both ways on concurrency would double the
        traffic; the reverse direction is left to background rounds).
        """
        store = self.stores[op.site]
        peer_store = self.stores[op.repair_peer]
        if op.key not in peer_store.table and op.key not in store.table:
            return local, False
        record = store.record(op.key)
        peer_record = peer_store.record(op.key)
        verdict = record.vector.compare(peer_record.vector)
        if verdict is Ordering.EQUAL:
            return local, False
        if verdict is Ordering.AFTER:
            # The reader's replica is fresher: repair the peer.
            triple = (op.site, op.repair_peer, op.key)
        else:
            triple = (op.repair_peer, op.site, op.key)
        if triple not in self._repair_inflight:
            # At most one queued repair per (pair, key): a hot key read
            # at every op would otherwise flood the session queue with
            # duplicates that all sync the same divergence.
            self._repair_inflight.add(triple)
            self.request_sync(triple[0], triple[1], keys=(op.key,))
            self._read_repairs += 1
            if self.metrics is not None:
                self.metrics.counter("store.read_repairs").inc()
            if self.tracer is not None:
                self.tracer.event(obs.READ_REPAIR, party=op.site,
                                  peer=op.repair_peer, key=op.key,
                                  verdict=verdict.name.lower())
        if verdict is Ordering.AFTER:
            return local, True
        # The client observed both replicas: its view is the union and
        # its causal context the element-wise max of both vectors.
        siblings = (peer_record.siblings if verdict is Ordering.BEFORE
                    else merge_siblings(record.siblings,
                                        peer_record.siblings))
        context: CausalContext = dict(record.vector.elements())
        for site, count in peer_record.vector.elements():
            context[site] = max(context.get(site, 0), count)
        merged = ReadResult(
            key=op.key,
            values=tuple(v for v in siblings if v is not TOMBSTONE),
            context=context,
            as_of=max(record.updated_at, peer_record.updated_at))
        return merged, True

    # -- anti-entropy sessions ---------------------------------------------

    def request_sync(self, src: str, dst: str, *,
                     keys: Optional[Sequence[str]] = None) -> None:
        """Request that ``dst`` pull ``keys`` (default: all) from ``src``."""
        for name in (src, dst):
            if name not in self.stores:
                raise ValidationError(f"unknown site {name!r}")
        if src == dst:
            raise ValidationError(f"sync pairs a site with itself: {src}")
        request = _SyncRequest(src=src, dst=dst,
                               keys=tuple(keys) if keys is not None else None,
                               requested_at=self.sim.now)
        if self.tracer is not None:
            self.tracer.event(obs.SESSION_REQUEST, party=dst, peer=src)
        self._pending.append(request)
        self._dispatch()

    def _dispatch(self) -> None:
        still_pending: List[_SyncRequest] = []
        for request in self._pending:
            if (self._usage[request.src] == 0
                    and self._usage[request.dst] == 0):
                self._start(request)
            else:
                still_pending.append(request)
        self._pending = still_pending

    def _session_keys(self, request: _SyncRequest) -> Tuple[str, ...]:
        if request.keys is not None:
            return request.keys
        keys = set(self.stores[request.src].table)
        keys.update(self.stores[request.dst].table)
        return tuple(sorted(keys))

    def _build_pairs(self, src: str, dst: str, keys: Tuple[str, ...],
                     record: StoreSessionRecord) -> Tuple[Tuple[Any, Any],
                                                          ...]:
        """Fresh per-key coroutine pairs over the current records."""
        pairs: List[Tuple[Any, Any]] = []
        for key in keys:
            src_vector = self.stores[src].record(key).vector
            dst_vector = self.stores[dst].record(key).vector
            verdict = dst_vector.compare(src_vector)
            sender, receiver, reconciled = self._spec.build(
                src_vector, dst_vector, verdict, tracer=self.tracer)
            record.verdicts[key] = verdict
            record.reconciled[key] = (record.reconciled.get(key, False)
                                      or reconciled)
            pairs.append((sender, receiver))
        return tuple(pairs)

    def _channel_for(self, src: str, dst: str) -> ChannelSpec:
        """The channel one session uses — region-pair aware when the
        config carries a topology, the single shared channel otherwise."""
        if self.config.topology is None:
            return self.config.channel
        return self.config.topology.channel_for(src, dst)

    def _start(self, request: _SyncRequest) -> None:
        config = self.config
        src, dst = request.src, request.dst
        if request.keys is not None and len(request.keys) == 1:
            self._repair_inflight.discard((src, dst, request.keys[0]))
        keys = self._session_keys(request)
        record = StoreSessionRecord(
            index=len(self._records), src=src, dst=dst, keys=keys,
            requested_at=request.requested_at, started_at=self.sim.now)
        self._records.append(record)
        if not keys:
            # Nothing to synchronize (no keys written yet anywhere);
            # keep the record for accounting but skip the wire.
            record.result = None
            return
        self._usage[src] += 1
        self._usage[dst] += 1
        if self.tracer is not None:
            self.tracer.event(obs.SESSION_START, party=dst, peer=src,
                              session=record.index, keys=len(keys))
        channel = self._channel_for(src, dst)
        common = dict(
            batch_size=config.batch_size if len(keys) > 1 else 1,
            channel=channel, encoding=config.encoding,
            proc_time=config.proc_time, max_steps=config.max_steps,
            tracer=self.tracer, party_names=(src, dst), retry=config.retry,
            session_id=record.index,
            on_complete=lambda result: self._finish(record, result))
        pairs = self._build_pairs(src, dst, keys, record)
        if not channel.faults.enabled:
            launch(self.sim, SessionOptions(pairs=pairs, **common))
            return

        # Transactional attempts: snapshot the receiver's records now;
        # every resume — and a permanent abandon — restores them before
        # anything else can observe the torn prefix.
        snapshots: Dict[str, KeySnapshot] = {
            key: self.stores[dst].snapshot(key) for key in keys}
        first_pairs: List[Tuple[Tuple[Any, Any], ...]] = [pairs]

        def restore_all() -> None:
            for key, snapshot in snapshots.items():
                self.stores[dst].restore(key, snapshot)

        def rebuild() -> Tuple[Tuple[Any, Any], ...]:
            if first_pairs:
                return first_pairs.pop()
            restore_all()
            return self._build_pairs(src, dst, keys, record)

        def abandon(error: SessionError) -> None:
            restore_all()
            record.aborted = True
            self._sessions_abandoned += 1
            if self.metrics is not None:
                self.metrics.counter("store.sessions_abandoned").inc()
            self._release(record, stats=None)

        launch(self.sim, SessionOptions(
            rebuild=rebuild, on_abandon=abandon,
            fault_seed=derive_seed(channel.faults.seed, record.index),
            **common))

    def _finish(self, record: StoreSessionRecord,
                result: TimedSessionResult) -> None:
        record.result = result
        self._totals.merge(result.stats)
        src, dst = record.src, record.dst
        dst_store = self.stores[dst]
        for key in record.keys:
            src_record = self.stores[src].record(key)
            dst_store.absorb(key, record.verdicts[key], src_record.siblings,
                             src_record.updated_at)
            if self.monitor is not None:
                self.monitor.on_absorb(dst, key,
                                       dst_store.record(key).updated_at,
                                       self.sim.now)
            if self.config.increment_on_merge and record.reconciled[key]:
                # §2.2: the pulling site increments its own element after
                # an automatic merge, per reconciled key.
                dst_store.record(key).vector.record_update(dst)
                self._reconciliations += 1
                if self.tracer is not None:
                    self.tracer.event(obs.RECONCILE, party=dst, key=key,
                                      session=record.index)
        if self.metrics is not None:
            observe_session(self.metrics, result.stats,
                            protocol=f"store.{self.config.protocol}",
                            completion_time=result.duration)
        self._release(record, stats=result.stats)

    def _release(self, record: StoreSessionRecord,
                 stats: Optional[TransferStats]) -> None:
        """Free the endpoints, land deferred ops, dispatch queued syncs."""
        src, dst = record.src, record.dst
        self._usage[src] -= 1
        self._usage[dst] -= 1
        if self.tracer is not None:
            self.tracer.event(obs.SESSION_END, party=dst, peer=src,
                              session=record.index,
                              bits=stats.total_bits if stats else 0,
                              aborted=record.aborted)
        if self.metrics is not None:
            self.metrics.counter("store.sessions").inc()
            self.metrics.histogram("store.queue_wait_seconds").observe(
                record.queue_wait)
        if self.monitor is not None:
            self.monitor.on_session_end(self.sim.now)
        for site in (src, dst):
            # Flush FIFO, but re-check before every op: a flushed get can
            # start a read-repair session that re-occupies the site, and
            # the ops behind it must stay deferred — executing them would
            # mutate vectors the fresh session's coroutines (and its
            # transactional snapshot) already captured.
            while self._usage[site] == 0 and self._deferred_ops[site]:
                op, submitted_at, on_done = self._deferred_ops[site].pop(0)
                self._execute_op(op, submitted_at, on_done)
        self._dispatch()

    # -- convergence sweep -------------------------------------------------

    def sweep(self, hub: Optional[str] = None) -> None:
        """Issue a gather/scatter star through ``hub`` at the current time.

        All 2(n−1) requests funnel through the hub, whose fanout-1
        serialization executes them strictly in request order: first the
        hub absorbs every site's state (so it dominates the fleet), then
        every site adopts the hub's.  After a fault-free (or fully
        resumed) sweep all sites hold identical per-key records.
        """
        hub = hub if hub is not None else self.sites[0]
        if hub not in self.stores:
            raise ValidationError(f"unknown hub {hub!r}")
        for site in self.sites:
            if site != hub:
                self.request_sync(site, hub)
        for site in self.sites:
            if site != hub:
                self.request_sync(hub, site)

    # -- the run -----------------------------------------------------------

    def run(self, *, converge_via: Optional[str] = None) -> StoreRunResult:
        """Drain the schedule; optionally append a convergence sweep.

        With ``converge_via`` set (a hub site name), the run first drains
        everything already scheduled, then issues the star sweep and
        drains again — so the sweep provably runs after the last client
        op has landed.
        """
        if self._finished:
            raise SimulationError("StoreCluster instances are one-shot")
        self._finished = True
        if self.monitor is not None:
            self.monitor.attach(self)
        tracer = self.tracer
        previous_clock = tracer.clock if tracer is not None else None
        span = None
        if tracer is not None:
            tracer.clock = lambda: self.sim.now
            span = tracer.span(f"store:{self.config.protocol}",
                               sites=len(self.sites),
                               protocol=self.config.protocol,
                               latency=self.config.channel.latency,
                               bandwidth=self.config.channel.bandwidth)
        try:
            self.sim.run()
            if converge_via is not None:
                self.sweep(converge_via)
                self.sim.run()
        finally:
            if span is not None:
                span.end()
            if tracer is not None:
                tracer.flush_sampling()
                tracer.clock = previous_clock
        if self.monitor is not None:
            self.monitor.finalize()
        if self._pending or any(self._usage.values()):
            raise SimulationError(  # pragma: no cover - defensive
                "store cluster drained with sessions still queued or active")
        return StoreRunResult(
            stores=self.stores,
            records=self._records,
            totals=self._totals,
            completion_time=self.sim.now,
            ops_applied=self._ops_applied,
            ops_deferred=self._ops_deferred,
            read_repairs=self._read_repairs,
            reconciliations=self._reconciliations,
            sessions_abandoned=self._sessions_abandoned,
        )


def gossip_peers(sites: Sequence[str], *, rounds: int, seed: int = 0
                 ) -> List[Tuple[float, str, str]]:
    """A deterministic anti-entropy pairing: per round, each site pulls
    from a seeded-random peer.  Returns ``(round_index, src, dst)``-style
    tuples with the round index as a float for direct scheduling.

    Delegates to :func:`repro.net.topology.uniform_peer_rounds` — the
    shared seeded sampler behind both store anti-entropy and cluster
    gossip — with the historical ``store-gossip`` stream label, so the
    plan (and every committed store digest built on it) stays
    byte-identical to the pre-topology implementation.
    """
    return uniform_peer_rounds(sites, rounds=rounds, seed=seed)
