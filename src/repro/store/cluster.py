"""The replicated store's cluster scheduler: clients + anti-entropy.

:class:`StoreCluster` hosts one :class:`~repro.store.kv.SiteStore` per
site on a single discrete-event simulator and drives two kinds of work
over them.  It is a policy over
:class:`~repro.net.cluster.SessionScheduler`, the mechanism the fleet's
:class:`~repro.net.cluster.ClusterRunner` runs on too: a fleet session
holds the objects it syncs, a store session one site-wide token — sites
take one session at a time — and its keys, so a client op waits for its
own key only.

* **Client operations** (:class:`ClientOp`) execute against one site's
  table.  An op waits only for its *own key*: it is deferred while a
  live session at its site has the key in its key set — reads must
  never observe a torn mid-sync vector, and writes must never mutate a
  vector a live coroutine is iterating — or while a read-repair that
  will pull the key into its site is still queued (below).  Ops on any
  other key run at submit time, mid-session or not: clients thread one
  causal context per key, so per-(site, key) FIFO is all the ordering a
  client can observe.  The deferral wait is measured per op.
* **Sessions** synchronize a key set between two sites by running one
  stock SYNC* coroutine pair *per key* through the unified
  :func:`~repro.net.runner.launch` transport — so channel faults, ARQ
  retransmission, and transactional resume apply to store traffic
  unchanged.  Sibling sets are folded in afterwards by the pre-session
  verdicts (:meth:`~repro.store.kv.SiteStore.absorb`), and §2.2's
  post-reconciliation self-increment keeps COMPARE's freshness
  precondition per key.  A read-repair session names its keys; an
  **anti-entropy pull** streams only the keys the puller lacks (below).

Anti-entropy: O(changed keys), not O(keys)
-----------------------------------------

A pull ``dst ← src`` opens with one priced message from ``dst`` carrying
a snapshot of its knowledge vector (:mod:`repro.store.kv`) — the
*advert*, a one-message exchange through :func:`launch` that occupies
neither site while in flight.  When it has arrived and both sites are
idle, ``src`` selects exactly the keys whose stamp the advert does not
cover, from its own index and the advert alone, and runs the per-key
batch over them with its own knowledge vector leading the first key's
stream (alone, when nothing was selected).  Only at its commit does
``dst`` raise its knowledge to the max of both; an abort or abandon
leaves it untouched.  A stale advert (``dst`` learned more while it
flew) only over-sends keys that then compare ``EQUAL``/``AFTER``; a
read-repair that adopts a stamp beyond ``dst``'s knowledge only makes
``dst`` offer that key to peers sooner.  Neither can skip a key the
puller lacks, because knowledge never runs ahead of state.

Abort safety (the torn-vector contract)
---------------------------------------

On a faulted channel every session is
:func:`~repro.net.cluster.launch_transactional`: each *resume*, and a
permanent abort before its endpoints are released, restores the
receiver's pre-session records in place.  Since client ops on a
session's keys defer while it runs, no read can ever observe a torn
prefix of an aborted attempt: the key's get result after a failed
session equals its pre-session snapshot exactly.  Ops on *other* keys
run during the session and survive its rollback — a session reads and
writes no record outside its key set, and every dot such an op mints is
above the advert and reply snapshots the session carries, so it is
beyond the peer's knowledge and offered again by the next pull.

A queued repair holds its key
-----------------------------

A read-repairing get hands its client the *union* of both replicas —
values and causal context — while the stale replica catches up only when
the repair session has run.  Until it starts (where the session's own
hold takes over) the repair holds its key at the site it will pull into,
so a later get there waits for it instead of handing the same client an
older context than the one it already holds (a monotonic-reads
violation).

Convergence
-----------

Per key, the sibling fold is a set union driven by vector verdicts:
adopt on domination, union on concurrency.  Union is order-insensitive
and idempotent, and the vectors themselves converge by the paper's sync
protocols, so any schedule that eventually pairs every site (directly or
transitively) drives all sites to identical per-key sibling sets.
:meth:`StoreCluster.run` can append a deterministic star sweep (gather
into a hub, drain, then scatter back out) that *provably* closes
convergence for fault-free and resumable runs — the same pattern the
monitor CLI uses for its fleet score.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, List,
                    Optional, Sequence, Tuple)

from repro.core.order import Ordering
from repro.errors import SessionError, ValidationError
from repro.net.channel import ChannelSpec
from repro.net.cluster import (SessionScheduler, check_session_config,
                               launch_transactional, session_options,
                               session_run)
from repro.net.faults import RetryPolicy
from repro.net.runner import SessionOptions, TimedSessionResult, launch
from repro.net.simulator import Simulator, to_ns, to_seconds
from repro.net.stats import TransferStats
from repro.net.topology import TopologySpec, uniform_peer_rounds
from repro.net.wire import DEFAULT_ENCODING, Encoding
from repro.obs import trace as obs
from repro.obs.metrics import MetricsRegistry, observe_session
from repro.obs.trace import Tracer
from repro.protocols import registry
from repro.protocols.effects import RECV, Send
from repro.protocols.messages import KnowledgeMsg
from repro.store.kv import (TOMBSTONE, CausalContext, KeySnapshot,
                            ReadResult, SiteStore, merge_siblings)

if TYPE_CHECKING:
    from repro.obs.consistency import ConsistencyMonitor

#: The site-wide token every store session holds at both endpoints; no
#: key equals it.
_SITE = object()


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
        batch_size: the most keys one frame of a session's framed wire
            carries.
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
        check_session_config(self, client_latency=0)


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
        return to_seconds(to_ns(self.executed_at) - to_ns(self.submitted_at))


@dataclass
class StoreSessionRecord:
    """One session in which ``dst`` pulls ``keys`` from ``src``.

    Born when it is requested (``index`` is request order).  A
    read-repair session names its keys up front.  An anti-entropy pull
    starts as an advert of ``dst``'s knowledge vector, sent at
    ``requested_at``: ``advert`` is that vector once it has reached
    ``src`` (``None`` before, and for read-repair), ``advert_bits`` what
    the exchange cost on the wire, and ``keys`` what ``src`` selected
    from it when the session started.  ``queue_wait`` therefore covers
    the advert's flight as well as the wait for both sites to be idle.
    """

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
    advert: Optional[Dict[str, int]] = None
    advert_bits: int = 0

    @property
    def queue_wait(self) -> float:
        return to_seconds(to_ns(self.started_at) - to_ns(self.requested_at))

    @property
    def keys_useful(self) -> int:
        """Keys whose verdict moved data: ``BEFORE`` or ``CONCURRENT``."""
        return sum(1 for verdict in self.verdicts.values()
                   if verdict is Ordering.BEFORE or verdict.is_concurrent)


def _knowledge_msg(store: SiteStore) -> KnowledgeMsg:
    """A snapshot of ``store``'s knowledge vector, as it goes on the wire."""
    return KnowledgeMsg(tuple(sorted(store.knowledge.items())))


def _prefixed(effect: Any, then: Any = None) -> Any:
    """Protocol coroutine ``then`` with one knowledge-vector effect —
    ``Send(KnowledgeMsg)`` or the matching ``Recv()`` — run first; alone,
    one side of a one-message exchange."""
    yield effect
    if then is not None:
        return (yield from then)


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

    def _completed_pulls(self) -> List[StoreSessionRecord]:
        return [record for record in self.records
                if record.advert is not None and record.result is not None]

    @property
    def keys_streamed(self) -> int:
        """Keys completed anti-entropy pulls ran a SYNC* exchange for."""
        return sum(len(record.keys) for record in self._completed_pulls())

    @property
    def keys_useful(self) -> int:
        """How many of :attr:`keys_streamed` moved data (``BEFORE`` or
        ``CONCURRENT`` verdicts)."""
        return sum(record.keys_useful for record in self._completed_pulls())

    @property
    def advert_bits(self) -> int:
        """Wire bits of every advert exchange, lost ones included."""
        return sum(record.advert_bits for record in self.records)

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
    :meth:`request_sync`), :meth:`run` once, read the result.  A site is
    in at most one session at a time; client ops are admitted per key
    (see the module notes).
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
        self._spec = spec = registry.get(config.protocol)
        self.stores: Dict[str, SiteStore] = {
            site: SiteStore(site, spec.vector_cls) for site in self.sites}
        self.sim = Simulator()
        #: Capacity 1: every session holds ``_SITE`` at both endpoints,
        #: so a site takes one session at a time.  Keys are held too — a
        #: session's at both endpoints, a queued read-repair's where it
        #: pulls into — and client ops wait on them.
        self._scheduler = SessionScheduler(self.sites, self._start)
        #: (src, dst, key) triples with a repair session queued and not
        #: yet started; keeps hot keys from flooding the queue with
        #: duplicate repairs, and each holds ``key`` at ``dst``.
        self._repair_inflight: set = set()
        self._records: List[StoreSessionRecord] = []
        self._totals = TransferStats()
        self._ops_applied = 0
        self._read_repairs = 0
        self._reconciliations = 0
        self._sessions_abandoned = 0

    # -- client operations -------------------------------------------------

    def submit(self, op: ClientOp,
               on_done: Optional[Callable[[OpOutcome], None]] = None
               ) -> None:
        """Submit ``op`` at the current simulated time.

        Executes immediately unless ``op.key`` is held at ``op.site``;
        then it defers, FIFO per site and key, until the key is free.
        Whatever else the site is doing, an op on any other key has
        ``queue_wait == 0``.
        """
        if op.site not in self.stores:
            raise ValidationError(f"unknown site {op.site!r}")
        if self._scheduler.admit(op.site, op.key, self._execute_op,
                                 op, to_seconds(self.sim.now), on_done) \
                and self.metrics is not None:
            self.metrics.counter("store.ops_deferred").inc()

    def _execute_op(self, op: ClientOp, submitted_at: float,
                    on_done: Optional[Callable[[OpOutcome], None]]) -> None:
        store = self.stores[op.site]
        now = to_seconds(self.sim.now)
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
                    and _SITE not in self._scheduler.held[op.repair_peer]):
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

        With :attr:`StoreConfig.coordinated_writes` (the default) the
        coordinator unions the client's context with its own for the key
        — an atomic read-modify-write, so a stale-context put no longer
        adds a sibling.
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
        expose a torn vector.  (Idle as a site, not per key: consulting
        a busy peer on its untouched keys was measured to start half as
        many sessions again and cost +25% wire bits per op.)  On
        divergence the *stale* replica pulls from the fresh one (both
        ways on concurrency would double the traffic; the reverse
        direction is left to background rounds).
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
            # duplicates that all sync the same divergence.  It holds
            # the key at the stale side (module notes) until it starts.
            self._repair_inflight.add(triple)
            self._scheduler.hold(triple[1], op.key)
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
        """Request that ``dst`` pull from ``src``.

        With ``keys`` (read-repair) the session syncs exactly those and
        starts as soon as both sites are idle.  Without, it is an
        anti-entropy pull: ``dst`` sends its knowledge vector now —
        busy or not, the advert occupies no site — and the session
        starts once it has reached ``src``, over the keys ``src`` finds
        it does not cover.
        """
        for name in (src, dst):
            if name not in self.stores:
                raise ValidationError(f"unknown site {name!r}")
        if src == dst:
            raise ValidationError(f"sync pairs a site with itself: {src}")
        now = to_seconds(self.sim.now)
        record = StoreSessionRecord(
            index=len(self._records), src=src, dst=dst,
            keys=tuple(keys) if keys is not None else (),
            requested_at=now, started_at=now)
        self._records.append(record)
        if self.tracer is not None:
            self.tracer.event(obs.SESSION_REQUEST, party=dst, peer=src)
        if keys is None:
            self._advertise(record)
        else:
            self._scheduler.request(src, dst, (_SITE,), record)

    def _advertise(self, record: StoreSessionRecord) -> None:
        """Send ``dst``'s knowledge vector to ``src``; queue on arrival."""
        src, dst = record.src, record.dst
        advert = _knowledge_msg(self.stores[dst])
        if self.tracer is not None:
            self.tracer.event(obs.KNOWLEDGE_ADVERT, party=dst, peer=src,
                              session=record.index,
                              entries=len(advert.pairs))

        def spent(stats: TransferStats) -> None:
            record.advert_bits = stats.total_bits
            self._totals.merge(stats)
            if self.metrics is not None:
                self.metrics.counter("store.advert_bits").inc(
                    stats.total_bits)

        def arrived(result: TimedSessionResult) -> None:
            spent(result.stats)
            record.advert = dict(advert.pairs)
            self._scheduler.request(src, dst, (_SITE,), record)

        def lost(error: SessionError, stats: TransferStats) -> None:
            spent(stats)
            self._abandoned(record)

        # ``src`` is the session's sender throughout, so the advert is
        # its one backward message; adverts draw their fault schedules
        # from the negative indices, batches from the record's own.
        launch(self.sim, SessionOptions(
            rebuild=lambda: ((_prefixed(RECV), _prefixed(Send(advert))),),
            on_complete=arrived, on_abandon=lost,
            **session_options(self.config, src, dst, record.index,
                              tracer=self.tracer,
                              fault_index=-1 - record.index)))

    def _abandoned(self, record: StoreSessionRecord) -> None:
        """Count a session that gave up for good (advert or batch)."""
        record.aborted = True
        self._sessions_abandoned += 1
        if self.metrics is not None:
            self.metrics.counter("store.sessions_abandoned").inc()

    def _build_pairs(self, src: str, dst: str, keys: Tuple[str, ...],
                     record: StoreSessionRecord) -> Tuple[Tuple[Any, Any],
                                                          ...]:
        """Fresh per-key coroutine pairs over the current records.

        The verdict computed here is the session's own bookkeeping — it
        decides reconciliation and the sibling fold — and is never used
        to choose *which* keys a pull streams (:meth:`_start`).
        """
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

    def _start(self, record: StoreSessionRecord) -> None:
        src, dst = record.src, record.dst
        record.started_at = to_seconds(self.sim.now)
        reply: Optional[KnowledgeMsg] = None
        if record.advert is not None:
            # A pull syncs the keys ``src``'s stamp index says the advert
            # does not cover; it reads nothing of ``dst`` but the advert.
            record.keys = tuple(self.stores[src].keys_beyond(record.advert))
            reply = _knowledge_msg(self.stores[src])
        elif (src, dst, *record.keys) in self._repair_inflight:
            # The queued repair's hold on its key ends here; the
            # session's own (just below) takes over.
            self._repair_inflight.remove((src, dst, *record.keys))
            self._scheduler.unhold(dst, record.keys[0])
        keys = record.keys
        self._scheduler.occupy(src, dst, (_SITE, *keys))
        if self.tracer is not None:
            self.tracer.event(obs.SESSION_START, party=dst, peer=src,
                              session=record.index, keys=len(keys))

        def build_pairs() -> Tuple[Tuple[Any, Any], ...]:
            pairs = self._build_pairs(src, dst, keys, record)
            if reply is not None:
                # The sender's knowledge leads the first key's stream
                # (no extra frame entry, no extra wire); an empty
                # selection sends it alone.
                sender, receiver = pairs[0] if pairs else (None, None)
                pairs = ((_prefixed(Send(reply), sender),
                          _prefixed(RECV, receiver)),) + pairs[1:]
            return pairs

        pairs = build_pairs()
        dst_store = self.stores[dst]

        def restore(snapshots: Dict[str, KeySnapshot]) -> None:
            for key, snapshot in snapshots.items():
                dst_store.restore(key, snapshot)

        def abandon(error: SessionError, stats: TransferStats) -> None:
            self._totals.merge(stats)
            self._abandoned(record)
            self._ended(record, bits=0)
            self._release(record)

        launch_transactional(
            self.sim, pairs,
            snapshot=lambda: {key: dst_store.snapshot(key) for key in keys},
            restore=restore, rebuild=build_pairs, on_abandon=abandon,
            batch_size=self.config.batch_size if len(pairs) > 1 else 1,
            on_commit=lambda: self._commit(record, reply),
            on_complete=lambda result: self._finish(record, result, reply),
            **session_options(self.config, src, dst, record.index,
                              tracer=self.tracer))

    def _commit(self, record: StoreSessionRecord,
                reply: Optional[KnowledgeMsg]) -> None:
        """The session committed: fold its keys in and free them."""
        src, dst = record.src, record.dst
        dst_store = self.stores[dst]
        for key in record.keys:
            src_record = self.stores[src].record(key)
            dst_store.absorb(key, record.verdicts[key], src_record.siblings,
                             src_record.updated_at, src_record.stamp)
            if self.monitor is not None:
                self.monitor.on_absorb(dst, key,
                                       dst_store.record(key).updated_at,
                                       to_seconds(self.sim.now))
            if self.config.increment_on_merge and record.reconciled[key]:
                # §2.2: the pulling site increments its own element after
                # an automatic merge, per reconciled key.
                dst_store.record(key).vector.record_update(dst)
                self._reconciliations += 1
                if self.tracer is not None:
                    self.tracer.event(obs.RECONCILE, party=dst, key=key,
                                      session=record.index)
        if reply is not None:
            # Every key the advert did not cover is now synchronized, so
            # the sender's knowledge is ours too.
            dst_store.learn(dict(reply.pairs))
        if self.tracer is not None:
            self.tracer.event(obs.SESSION_COMMIT, party=dst, peer=src,
                              session=record.index)
        self._release(record)

    def _finish(self, record: StoreSessionRecord,
                result: TimedSessionResult,
                reply: Optional[KnowledgeMsg]) -> None:
        """The session's parties finished draining: account for it."""
        record.result = result
        self._totals.merge(result.stats)
        if self.metrics is not None:
            if reply is not None:
                self.metrics.counter("store.keys_streamed").inc(
                    len(record.keys))
                self.metrics.counter("store.keys_useful").inc(
                    record.keys_useful)
            observe_session(self.metrics, result.stats,
                            protocol=f"store.{self.config.protocol}",
                            completion_time=result.duration)
        self._ended(record, bits=result.stats.total_bits)

    def _release(self, record: StoreSessionRecord) -> None:
        """Free the session's sites and keys; land ops, start syncs."""
        if self.monitor is not None:
            self.monitor.on_session_end(to_seconds(self.sim.now))
        self._scheduler.release(record.src, record.dst,
                                (_SITE, *record.keys))

    def _ended(self, record: StoreSessionRecord, bits: int) -> None:
        """Trace and count one session that is over."""
        if self.tracer is not None:
            self.tracer.event(obs.SESSION_END, party=record.dst,
                              peer=record.src, session=record.index,
                              bits=bits, aborted=record.aborted)
        if self.metrics is not None:
            self.metrics.counter("store.sessions").inc()
            self.metrics.histogram("store.queue_wait_seconds").observe(
                record.queue_wait)

    # -- convergence sweep -------------------------------------------------

    def _spokes(self, hub: str) -> List[str]:
        if hub not in self.stores:
            raise ValidationError(f"unknown hub {hub!r}")
        return [site for site in self.sites if site != hub]

    def gather(self, hub: str) -> None:
        """First half of the star sweep: ``hub`` pulls from every site.

        Once these sessions have drained, the hub's knowledge and state
        dominate the fleet's.
        """
        for site in self._spokes(hub):
            self.request_sync(site, hub)

    def scatter(self, hub: str) -> None:
        """Second half: every site pulls from ``hub``.

        Must only be issued after :meth:`gather` has *drained*: a pull's
        start is set by its advert's arrival and by what the hub is busy
        with, not by request order, so a scatter requested alongside the
        gather can run first and hand out a hub that has not yet heard
        from everyone.  After a fault-free (or fully resumed) gather and
        scatter all sites hold identical per-key records.
        """
        for site in self._spokes(hub):
            self.request_sync(hub, site)

    # -- the run -----------------------------------------------------------

    def run(self, *, converge_via: Optional[str] = None) -> StoreRunResult:
        """Drain the schedule; optionally append a convergence sweep.

        With ``converge_via`` set (a hub site name), the run first drains
        everything already scheduled, then gathers into the hub, drains,
        scatters back out and drains again — so the sweep provably runs
        after the last client op has landed, and the scatter after the
        last gather.
        """
        with session_run(self, self.sim, self._scheduler, "store"):
            self.sim.run()
            if converge_via is not None:
                self.gather(converge_via)
                self.sim.run()
                self.scatter(converge_via)
                self.sim.run()
        return StoreRunResult(
            stores=self.stores,
            records=self._records,
            totals=self._totals,
            completion_time=to_seconds(self.sim.now),
            ops_applied=self._ops_applied,
            ops_deferred=self._scheduler.deferrals,
            read_repairs=self._read_repairs,
            reconciliations=self._reconciliations,
            sessions_abandoned=self._sessions_abandoned,
        )


def gossip_peers(sites: Sequence[str], *, rounds: int, seed: int = 0
                 ) -> List[Tuple[float, str, str]]:
    """The store's anti-entropy plan: per round, each site pulls from a
    seeded-random peer, as ``(float(round), src, dst)`` triples drawn by
    :func:`repro.net.topology.uniform_peer_rounds`."""
    return uniform_peer_rounds(sites, rounds=rounds, seed=seed)
