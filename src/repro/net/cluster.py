"""Cluster-scale timed execution: many pairwise sessions on one clock.

The timed runner (:mod:`repro.net.runner`) measures a *single* session;
the paper's metadata-cost claims, however, are about fleets — n sites
gossiping concurrently, sessions queueing behind busy peers, updates
landing mid-schedule.  :class:`ClusterRunner` executes a precomputed
workload (:mod:`repro.workload.cluster`) by interleaving every session's
sender/receiver processes on a single :class:`~repro.net.simulator.Simulator`:

* **Per-object session queues.**  A session holds the objects it syncs
  at both endpoints, and an object has one holder at a site at a time.
  Requests that find an object busy queue up and start, oldest first, as
  it frees; none overtakes an older request of its own pair.  Sessions
  on disjoint objects overlap, even at a shared site, where they share
  only the clock.  Queue waits are observable
  (``cluster.queue_wait_seconds``).
* **Deferred updates.**  A local update to an object a session holds
  applies the instant the object frees — mutating a vector that a live
  coroutine is iterating would corrupt the session.  An update to any
  other object applies at once.
* **Scheduling-independent accounting.**  Each vector is touched by one
  session at a time, so every session's traffic depends only on the two
  endpoint states at its start — never on what else is in flight.
  :func:`replay_sequential` re-executes a run's realized execution log
  one session at a time and must reproduce the concurrent run's bit
  counts exactly; the paired benchmark asserts it.

The mechanism — :class:`SessionScheduler`, :func:`launch_transactional`
and the :func:`session_run` frame — is shared with the replicated store's
:class:`~repro.store.cluster.StoreCluster`.  The two differ in what a
session holds: a fleet session its objects (an update waits for its own
object only), a store session one site-wide token and its keys (a site
takes one session at a time; a client op waits for its own key only).

Tracing and metrics reuse the PR 1 instruments: pass a
:class:`~repro.obs.trace.Tracer` for clock-stamped per-site events and a
:class:`~repro.obs.metrics.MetricsRegistry` for the standard
``observe_session`` instruments plus cluster-level counters.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from heapq import heapify, heappop, heappush
from itertools import count
from typing import (Any, Callable, Deque, Dict, Hashable, Iterable, Iterator,
                    List, Optional, Set, Tuple)

from repro.core.order import Ordering
from repro.core.rotating import BasicRotatingVector
from repro.errors import SessionError, SimulationError, ValidationError
from repro.net.channel import ChannelSpec
from repro.net.faults import RetryPolicy, derive_seed
from repro.net.runner import (SessionHandle, SessionOptions,
                              TimedSessionResult, launch, run_timed)
from repro.net.sharding import ShardMap, build_shard_map
from repro.net.simulator import Simulator, to_ns, to_seconds
from repro.net.stats import TransferStats
from repro.net.topology import TopologySpec
from repro.net.wire import DEFAULT_ENCODING, Encoding
from repro.obs.metrics import MetricsRegistry, observe_session
from repro.obs.trace import Tracer
from repro.protocols import registry
from repro.workload.cluster import SessionRequest, UpdateRequest


def check_session_config(config: Any, **minimums: int) -> None:
    """Raise :class:`~repro.errors.ValidationError` unless ``config``
    names a registered ``protocol``, has ``batch_size >= 1``,
    ``proc_time >= 0``, ``max_steps >= 1`` and each ``field >= minimum``
    in ``minimums``."""
    if config.protocol not in registry.names():
        raise ValidationError(
            f"unknown protocol {config.protocol!r}; "
            f"expected one of {registry.names()}")
    for name, minimum in dict(batch_size=1, proc_time=0, max_steps=1,
                              **minimums).items():
        value = getattr(config, name)
        if not value >= minimum:
            raise ValidationError(
                f"{name} must be >= {minimum}, got {value}")


@dataclass(frozen=True)
class ClusterConfig:
    """Parameters of one cluster run.

    Attributes:
        protocol: metadata scheme and sync protocol — ``brv`` (SYNCB),
            ``crv`` (SYNCC), or ``srv`` (SYNCS).
        channel: link model applied to every session.
        encoding: wire pricing for every message.
        stop_and_wait: per-item ack baseline instead of pipelining
            (perfect links only; the ARQ on lossy links always pipelines).
        proc_time: per-received-message processing cost.
        increment_on_merge: apply §2.2's post-reconciliation self-increment
            on the pulling site, keeping COMPARE's freshness precondition.
        max_steps: per-session effect budget (livelock guard).
        n_objects: replicated objects in the fleet; a session
            synchronizes every object its pair shares (all of them when
            unsharded), holding each alone at both endpoints.
        batch_size: above 1, a session's objects share one framed wire
            (:mod:`repro.protocols.batch`) in frames of at most this many
            entries.  1 — the default — runs each object through the
            plain per-object machinery, bit-for-bit the historical
            single-object path.
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
    stop_and_wait: bool = False
    proc_time: float = 0.0
    increment_on_merge: bool = True
    max_steps: int = 10_000_000
    n_objects: int = 1
    batch_size: int = 1
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    topology: Optional[TopologySpec] = None

    def __post_init__(self) -> None:
        check_session_config(self, n_objects=1)


@dataclass
class ClusterSessionRecord:
    """One executed session, in cluster start order."""

    index: int
    src: str
    dst: str
    requested_at: float
    started_at: float
    result: Optional[TimedSessionResult] = None
    #: Per object of ``objects``: the receiver's COMPARE verdict against
    #: the sender at the latest attempt, and whether any attempt
    #: reconciled it.
    verdicts: Tuple[Ordering, ...] = ()
    reconciled_objects: Tuple[bool, ...] = ()
    #: Object ids this session synchronized: every object when
    #: unsharded, the pair's shared subset otherwise.
    objects: Tuple[int, ...] = ()

    @property
    def queue_wait(self) -> float:
        """Seconds the request sat behind sessions holding its objects."""
        return to_seconds(to_ns(self.started_at) - to_ns(self.requested_at))


#: Execution-log entries: ``("update", site, obj)`` or
#: ``("session", src, dst, objs)`` carrying the synchronized object ids,
#: in realized execution order.  Reconciliation self-increments are *not*
#: logged — they are derived deterministically from each session's
#: verdicts, by the runner and by :func:`replay_sequential` alike.
LogEntry = Tuple[Any, ...]


@dataclass
class ClusterResult:
    """What one cluster run measured.

    ``objects[site]`` maps each object id the site hosts to its vector
    (every id when unsharded).
    """

    records: List[ClusterSessionRecord]
    log: List[LogEntry]
    totals: TransferStats
    completion_time: float
    updates_applied: int
    updates_deferred: int
    reconciliations: int
    objects: Dict[str, Dict[int, BasicRotatingVector]]
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
        """True iff every object agrees across its replica group: the
        sites that host it, which is every site when unsharded."""
        first: Dict[int, BasicRotatingVector] = {}
        for held in self.objects.values():
            for obj, vector in held.items():
                reference = first.setdefault(obj, vector)
                if not vector.same_values(reference):
                    return False
        return True

    def per_session_bits(self) -> List[int]:
        """Total bits of each session, in start order."""
        return [r.result.stats.total_bits for r in self.records]


def session_options(config: Any, src: str, dst: str, session_id: int, *,
                    tracer: Optional[Tracer],
                    fault_index: Optional[int] = None) -> Dict[str, Any]:
    """The :class:`~repro.net.runner.SessionOptions` fields one
    ``src → dst`` session of a cluster shares, as keywords.

    The channel is the endpoints' region pair when ``config`` carries a
    topology, its single shared channel otherwise; a faulted channel
    draws its schedule from ``fault_index`` (default: ``session_id``).
    """
    channel = config.channel if config.topology is None \
        else config.topology.channel_for(src, dst)
    return dict(
        channel=channel, encoding=config.encoding,
        proc_time=config.proc_time, max_steps=config.max_steps,
        tracer=tracer, party_names=(src, dst), retry=config.retry,
        session_id=session_id,
        fault_seed=(derive_seed(channel.faults.seed, session_id
                                if fault_index is None else fault_index)
                    if channel.faults.enabled else None))


def _snapshot_writable(receiver: Any, objs: Tuple[int, ...],
                       verdicts: Tuple[Ordering, ...]
                       ) -> Tuple[Tuple[int, Any], ...]:
    """``(obj, copy)`` for each of the receiver's ``objs`` a session
    attempt can write; ``verdicts`` are ``receiver[obj].compare(sender)``.

    Only a ``BEFORE`` or ``CONCURRENT`` object can change.  Under
    ``EQUAL`` or ``AFTER`` the receiver covers the sender: no arriving
    element is newer than its own, and every registered receiver writes
    only through ``place_after`` on a newer value (``set_segment`` seals
    a run ``place_after`` began).  A torn attempt cannot touch the rest.
    """
    return tuple((obj, receiver[obj].copy())
                 for obj, verdict in zip(objs, verdicts)
                 if verdict is Ordering.BEFORE
                 or verdict is Ordering.CONCURRENT)


def _restore_writable(receiver: Any,
                      saved: Tuple[Tuple[int, Any], ...]) -> None:
    """Roll back what :func:`_snapshot_writable` copied.  In place: result
    views and the site table alias these objects, so identity must
    survive the rollback."""
    for obj, snapshot in saved:
        receiver[obj].restore(snapshot)


class SessionScheduler:
    """Admission for pairwise sessions on one clock.

    * **Holds.**  ``held[site][resource]`` counts the reasons a resource
      is busy at a site: the live sessions holding it, and each
      :meth:`hold`.  Work :meth:`admit` gets on a busy one waits FIFO per
      resource until a release frees it.
    * **Admission.**  A request names its resources; it starts once none
      is held at either endpoint and no older request of the same
      ``(src, dst)`` pair still waits, and the session holds exactly
      those resources until its release.  Sessions on disjoint
      resources overlap, even at a shared site.
    * **Pending queue.**  A request that cannot start waits; freed
      resources go to the waiting requests, oldest first.

    The owner supplies the policy: ``start(item)`` launches a session and
    must :meth:`occupy` the resources it was requested with; the
    session's end calls :meth:`release` with the same resources.
    """

    def __init__(self, sites: Iterable[str],
                 start: Callable[[Any], None]) -> None:
        self._start = start
        self.held: Dict[str, Dict[Hashable, int]] = {
            site: {} for site in sites}
        #: site → resource → ``(arrival number, work, args)``, oldest
        #: first; a queue exists only while its resource is busy.
        self._deferred: Dict[str, Dict[Hashable, Deque[Tuple[Any, ...]]]] = {
            site: {} for site in self.held}
        #: Work items ever deferred; also the next arrival number.
        self.deferrals = 0
        # Pending (src, dst, resources, item) entries by arrival number,
        # indexed per site so a dispatch rescans only the freed sites'
        # requests, and counted per pair for the pair's FIFO order.
        self._pending: Dict[int, Tuple[str, str, Tuple[Hashable, ...],
                                       Any]] = {}
        self._pending_by_site: Dict[str, List[int]] = {
            site: [] for site in self.held}
        self._pending_pairs: Dict[Tuple[str, str], int] = {}
        self._arrivals = count()
        self._freed: Set[str] = set()
        self.ran = False

    def admit(self, site: str, resource: Hashable,
              work: Callable[..., None], *args: Any) -> bool:
        """Run ``work(*args)`` now, or — while ``resource`` is busy at
        ``site`` — once a release frees it.  Returns whether it waits."""
        if resource not in self.held[site]:
            work(*args)
            return False
        self._deferred[site].setdefault(resource, deque()).append(
            (self.deferrals, work, args))
        self.deferrals += 1
        return True

    def hold(self, site: str, resource: Hashable) -> None:
        """One more reason ``resource`` is busy at ``site``."""
        held = self.held[site]
        held[resource] = held.get(resource, 0) + 1

    def unhold(self, site: str, resource: Hashable) -> None:
        """One reason fewer; the resource is free once none is left (its
        deferred work still waits for the next :meth:`release`)."""
        held = self.held[site]
        if held[resource] == 1:
            del held[resource]
        else:
            held[resource] -= 1

    def _flush(self, site: str, resources: Iterable[Hashable]) -> None:
        """Land, in arrival order, the work deferred at ``site`` on those
        of the just-released ``resources`` that are no longer busy.

        Busy is re-checked before every item: a landed item can start a
        session over its resource, and the items behind it must stay
        deferred — running them would mutate state the fresh session's
        coroutines (and its transactional snapshot) already captured.
        """
        queues = self._deferred[site]
        held = self.held[site]
        heads = [(queues[resource][0][0], resource)
                 for resource in resources if resource in queues]
        heapify(heads)
        while heads:
            _, resource = heappop(heads)
            if resource in held:
                continue
            queue = queues[resource]
            _, work, args = queue.popleft()
            if queue:
                heappush(heads, (queue[0][0], resource))
            else:
                del queues[resource]
            work(*args)

    def _free(self, src: str, dst: str,
              resources: Tuple[Hashable, ...]) -> bool:
        """Whether none of ``resources`` is held at either endpoint."""
        held_src, held_dst = self.held[src], self.held[dst]
        for resource in resources:
            if resource in held_src or resource in held_dst:
                return False
        return True

    def request(self, src: str, dst: str, resources: Tuple[Hashable, ...],
                item: Any) -> None:
        """Start ``item`` now if it is admitted, else queue it.

        Requests waiting on sites freed since the last dispatch go first:
        deferred work landing mid-release may ask for a session, and the
        older requests keep their turn.  Every other waiting request is
        blocked — by a busy resource or by an older request of its pair —
        so starts always follow an oldest-first scan over every pending
        request.
        """
        if self._freed:
            self._dispatch()
        pair = (src, dst)
        if pair not in self._pending_pairs \
                and self._free(src, dst, resources):
            self._start(item)
            return
        seq = next(self._arrivals)
        self._pending[seq] = (src, dst, resources, item)
        self._pending_by_site[src].append(seq)
        self._pending_by_site[dst].append(seq)
        self._pending_pairs[pair] = self._pending_pairs.get(pair, 0) + 1

    def occupy(self, src: str, dst: str,
               resources: Iterable[Hashable]) -> None:
        """A session starts, holding ``resources`` at both endpoints."""
        for held in (self.held[src], self.held[dst]):
            for resource in resources:
                held[resource] = held.get(resource, 0) + 1

    def release(self, src: str, dst: str,
                resources: Iterable[Hashable]) -> None:
        """The session :meth:`occupy` started has ended: free its holds,
        land the work they deferred, start what can start."""
        for held in (self.held[src], self.held[dst]):
            for resource in resources:
                if held[resource] == 1:
                    del held[resource]
                else:
                    held[resource] -= 1
        self._freed.add(src)
        self._freed.add(dst)
        for site in (src, dst):
            if self._deferred[site]:
                self._flush(site, resources)
        self._dispatch()

    def _dispatch(self) -> None:
        """Start queued sessions made startable by the freed sites.

        Only requests touching a freed endpoint can have become
        startable — a request behind an older one of its pair shares its
        sites — so the scan covers just those sites' queues, in global
        arrival order; entries started by an earlier scan are pruned
        lazily here.
        """
        pending = self._pending
        by_site = self._pending_by_site
        pairs = self._pending_pairs
        candidates: Set[int] = set()
        for site in self._freed:
            live = [seq for seq in by_site[site] if seq in pending]
            by_site[site] = live
            candidates.update(live)
        self._freed.clear()
        blocked: Set[Tuple[str, str]] = set()
        for seq in sorted(candidates):
            entry = pending.get(seq)
            if entry is None:
                continue  # started earlier in this very scan
            src, dst, resources, item = entry
            pair = (src, dst)
            if pair in blocked:
                continue
            if not self._free(src, dst, resources):
                blocked.add(pair)
                continue
            del pending[seq]
            if pairs[pair] == 1:
                del pairs[pair]
            else:
                pairs[pair] -= 1
            self._start(item)

    def drained(self) -> bool:
        """Nothing queued, held or deferred."""
        return not (self._pending or any(self.held.values())
                    or any(self._deferred.values()))


def launch_transactional(
        sim: Simulator, pairs: Tuple[Tuple[Any, Any], ...], *,
        snapshot: Callable[[], Any], restore: Callable[[Any], None],
        rebuild: Callable[[], Any],
        on_abandon: Optional[Callable[[SessionError, TransferStats],
                                      None]] = None,
        **options: Any) -> SessionHandle:
    """Launch a session whose attempts are transactional on a faulted link.

    ``options`` are the remaining :class:`~repro.net.runner.SessionOptions`
    fields.  ``pairs`` is the first attempt, and all of it on a perfect
    channel.  On a faulted one the protocols stream Δ newest-first, so a
    torn attempt's acked prefix is never ancestor-closed; committing it
    would leave a vector claiming an element without its causal past
    (which halts every later sync prematurely).  So ``snapshot()``
    captures the receiver's state up front, every resume calls
    ``restore(saved)`` before ``rebuild()`` makes the next pairs, and a
    permanent abort restores before ``on_abandon`` runs.  Sound because
    the owner's holds keep every other writer off that state.
    """
    if not options["channel"].faults.enabled:
        return launch(sim, SessionOptions(pairs=pairs, **options))
    saved = snapshot()
    first_pairs = [pairs]

    def attempt() -> Tuple[Tuple[Any, Any], ...]:
        if first_pairs:
            return first_pairs.pop()
        restore(saved)
        return rebuild()

    if on_abandon is not None:
        def abandon(error: SessionError, stats: TransferStats) -> None:
            restore(saved)
            on_abandon(error, stats)
        options["on_abandon"] = abandon
    return launch(sim, SessionOptions(rebuild=attempt, **options))


@contextmanager
def session_run(owner: Any, sim: Simulator, scheduler: SessionScheduler,
                kind: str, **span_attrs: Any) -> Iterator[None]:
    """The frame of one cluster run, around the body that drains ``sim``.

    Refuses a second run, attaches ``owner.monitor`` and binds the tracer
    to the simulated clock inside a ``kind:protocol`` span; on the way out it
    finalizes the monitor inside the span (its last sample and final
    checks are stamped on the run's clock), closes the span, flushes tail
    sampling, restores the clock and checks that the scheduler drained.
    """
    if scheduler.ran:
        raise SimulationError(
            f"{type(owner).__name__} instances are one-shot")
    scheduler.ran = True
    tracer, monitor, config = owner.tracer, owner.monitor, owner.config
    if monitor is not None:
        monitor.attach(owner)
    with sim.stamping(tracer):
        span = None
        if tracer is not None:
            # The channel parameters on the span let the causal analyzer
            # decompose every send→deliver hop exactly (latency +
            # bits/bandwidth + fault-injected delay, zero residual).
            span = tracer.span(f"{kind}:{config.protocol}",
                               sites=len(owner.sites), **span_attrs,
                               protocol=config.protocol,
                               latency=config.channel.latency,
                               bandwidth=config.channel.bandwidth)
        try:
            yield
            if monitor is not None:
                monitor.finalize()
        finally:
            if span is not None:
                span.end()
            if tracer is not None:
                tracer.flush_sampling()
    if not scheduler.drained():
        raise SimulationError(  # pragma: no cover - defensive
            "cluster drained with sessions still queued or active, or "
            "work still deferred")


def _new_objects(sites: Iterable[str], config: ClusterConfig,
                 shards: Optional[ShardMap]
                 ) -> Dict[str, Dict[int, BasicRotatingVector]]:
    """Fresh vectors for every site, keyed by the object ids it hosts
    (every id when unsharded)."""
    vector_cls = registry.get(config.protocol).vector_cls
    every = range(config.n_objects)
    return {site: {obj: vector_cls() for obj in
                   (every if shards is None else shards.hosted.get(site, ()))}
            for site in sites}


class ClusterRunner:
    """Schedules many concurrent pairwise sessions on one simulator.

    One-shot: construct, :meth:`run` once, read the result.  The runner
    owns ``objects[site]``, one rotating vector per object id the site
    hosts (``config.protocol`` picks the class); sessions mutate them in
    place exactly as a real fleet would.
    """

    def __init__(self, sites: Iterable[str], config: ClusterConfig, *,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 monitor: Optional[Any] = None,
                 shards: Optional[ShardMap] = None) -> None:
        self.sites = list(sites)
        if len(set(self.sites)) != len(self.sites):
            raise ValidationError("duplicate site names in cluster")
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
        self._site_set = set(self.sites)
        if shards is not None:
            if shards.n_objects != config.n_objects:
                raise ValidationError(
                    f"shard map covers {shards.n_objects} objects but the "
                    f"config declares {config.n_objects}")
            unknown = set(shards.hosted) - self._site_set
            if unknown:
                raise ValidationError(
                    f"shard map names sites outside the cluster: "
                    f"{sorted(unknown)}")
        self._all_objects = tuple(range(config.n_objects))
        self.objects = _new_objects(self.sites, config, shards)
        self.sim = Simulator()
        self._scheduler = SessionScheduler(self.sites, self._start)
        self._records: List[ClusterSessionRecord] = []
        self._log: List[LogEntry] = []
        self._totals = TransferStats()
        self._updates_applied = 0
        self._reconciliations = 0
        self._skipped_sessions = 0

    def hosted_objects(self, site: str) -> Tuple[int, ...]:
        """Object ids ``site`` replicates (all of them when unsharded)."""
        if self.shards is None:
            return self._all_objects
        return self.shards.hosted.get(site, ())

    # -- scheduling ------------------------------------------------------------

    def run(self, sessions: Iterable[SessionRequest],
            updates: Iterable[UpdateRequest] = ()) -> ClusterResult:
        """Execute the schedule to completion; returns the measurements."""
        sim = self.sim
        with session_run(self, sim, self._scheduler, "cluster"):
            for request in sessions:
                self._check_sites(request.src, request.dst)
                if request.src == request.dst:
                    raise ValidationError(
                        f"session {request} pairs a site with itself")
                sim.schedule(to_ns(request.at),
                             partial(self._on_session_request, request,
                                     self._session_objects(request)))
            for update in updates:
                self._check_sites(update.site)
                obj = getattr(update, "obj", 0)
                if not 0 <= obj < self.config.n_objects:
                    raise ValidationError(
                        f"update {update} names object {obj}, but the "
                        f"cluster has {self.config.n_objects}")
                if self.shards is not None \
                        and not self.shards.hosts(update.site, obj):
                    raise ValidationError(
                        f"update {update} lands on {update.site}, which "
                        f"does not replicate object {obj}")
                sim.schedule(to_ns(update.at),
                             partial(self._on_update_request, update))
            sim.run()
        return ClusterResult(
            records=self._records,
            log=self._log,
            totals=self._totals,
            completion_time=to_seconds(sim.now),
            updates_applied=self._updates_applied,
            updates_deferred=self._scheduler.deferrals,
            reconciliations=self._reconciliations,
            objects=self.objects,
            skipped_sessions=self._skipped_sessions,
        )

    def _check_sites(self, *names: str) -> None:
        for name in names:
            if name not in self._site_set:
                raise ValidationError(f"unknown site {name!r} in schedule")

    # -- updates ---------------------------------------------------------------

    def _on_update_request(self, update: UpdateRequest) -> None:
        # Mid-session, mutating a vector a live coroutine iterates would
        # corrupt the session: the update waits until its object frees.
        obj = getattr(update, "obj", 0)
        if self._scheduler.admit(update.site, obj, self._apply_update,
                                 update.site, obj) \
                and self.metrics is not None:
            self.metrics.counter("cluster.updates_deferred").inc()

    def _apply_update(self, site: str, obj: int) -> None:
        self.objects[site][obj].record_update(site)
        self._log.append(("update", site, obj))
        self._updates_applied += 1
        if self.tracer is not None:
            self.tracer.event("update", party=site)
        if self.metrics is not None:
            self.metrics.counter("cluster.updates").inc()
        if self.monitor is not None:
            self.monitor.on_update(site, obj)

    # -- sessions --------------------------------------------------------------

    def _on_session_request(self, request: SessionRequest,
                            objs: Tuple[int, ...]) -> None:
        if not objs:
            # The pair replicates no common object: nothing to sync.
            # Epidemic schedules draw peers from shard-peer sets and
            # never produce these; hand-written schedules may.
            self._skipped_sessions += 1
            return
        if self.tracer is not None:
            # The session index is unknown until the session starts;
            # the analyzer matches requests to starts FIFO per (src,
            # dst) pair — exactly the order the scheduler starts them,
            # as no request overtakes an older one of its pair.
            self.tracer.event("session_request", party=request.dst,
                              peer=request.src)
        self._scheduler.request(request.src, request.dst, objs,
                                (request, self.sim.now, objs))

    def _session_objects(self, request: SessionRequest
                         ) -> Tuple[int, ...]:
        """The object ids a session between the request's pair syncs.

        Raises :class:`~repro.errors.ValidationError` when the request
        names objects the pair does not share.
        """
        if self.shards is None:
            return self._all_objects
        objs = getattr(request, "objs", None)
        shared = self.shards.shared_objects(request.src, request.dst)
        if objs is None:
            return shared
        extra = set(objs) - set(shared)
        if extra:
            raise ValidationError(
                f"session {request.src}->{request.dst} names objects "
                f"{sorted(extra)} the pair does not share")
        return tuple(objs)

    def _build_pairs(self, record: ClusterSessionRecord
                     ) -> Tuple[Tuple[Any, Any], ...]:
        """Fresh coroutine pairs over the endpoints' *current* state.

        The record takes their verdicts; an object counts as reconciled
        once any attempt of the session reconciled it.
        """
        spec = registry.get(self.config.protocol)
        src, dst = self.objects[record.src], self.objects[record.dst]
        before = record.reconciled_objects or (False,) * len(record.objects)
        verdicts: List[Ordering] = []
        merged: List[bool] = []
        pairs: List[Tuple[Any, Any]] = []
        for obj, was_reconciled in zip(record.objects, before):
            verdict = dst[obj].compare(src[obj])
            sender, receiver, reconciled = spec.build(
                src[obj], dst[obj], verdict, tracer=self.tracer)
            if reconciled and not was_reconciled:
                self._reconciliations += 1
            verdicts.append(verdict)
            merged.append(was_reconciled or reconciled)
            pairs.append((sender, receiver))
        record.verdicts = tuple(verdicts)
        record.reconciled_objects = tuple(merged)
        return tuple(pairs)

    def _start(self, entry: Tuple[SessionRequest, int, Tuple[int, ...]]
               ) -> None:
        request, requested_at, objs = entry
        sim = self.sim
        config = self.config
        src, dst = request.src, request.dst
        record = ClusterSessionRecord(
            index=len(self._records), src=src, dst=dst,
            requested_at=to_seconds(requested_at),
            started_at=to_seconds(sim.now), objects=objs)
        pairs = self._build_pairs(record)  # sets the verdict fields
        self._records.append(record)
        self._log.append(("session", src, dst, objs))
        self._scheduler.occupy(src, dst, objs)
        options = session_options(config, src, dst, record.index,
                                  tracer=self.tracer)
        if self.tracer is not None:
            # The session's own link constants: on a topology fleet they
            # differ per region pair from the run span's ``channel``.
            channel = options["channel"]
            self.tracer.event("session_start", party=dst, peer=src,
                              verdict=record.verdicts[0].name.lower(),
                              session=record.index,
                              latency=channel.latency,
                              bandwidth=channel.bandwidth)
        if self.monitor is not None:
            # Before launch: the monitor snapshots the endpoints here so
            # its post-session ancestor-closure oracle has the pre-state.
            self.monitor.on_session_start(record)

        receiver = self.objects[dst]
        launch_transactional(
            sim, pairs, rebuild=lambda: self._build_pairs(record),
            restore=partial(_restore_writable, receiver),
            snapshot=lambda: _snapshot_writable(receiver, objs,
                                               record.verdicts),
            # A single-object session runs the historical per-object
            # path regardless of batch_size, as it always has.
            batch_size=config.batch_size if len(pairs) > 1 else 1,
            stop_and_wait=config.stop_and_wait,
            on_commit=partial(self._commit, record),
            on_complete=partial(self._finish, record), **options)

    def _commit(self, record: ClusterSessionRecord) -> None:
        """The session committed: its Δ is all in and nothing iterates
        its objects again, so they are free at both endpoints."""
        if self.monitor is not None:
            # Before the §2.2 self-increment below: the closure oracle
            # expects the receiver to hold exactly max(pre-state, sender).
            self.monitor.on_session_commit(record)
        dst = record.dst
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
            self.tracer.event("session_commit", party=dst,
                              peer=record.src, session=record.index)
        # Updates that arrived mid-session land before anything queued
        # gets to start on the freed objects.
        self._scheduler.release(record.src, dst, record.objects)

    def _finish(self, record: ClusterSessionRecord,
                result: TimedSessionResult) -> None:
        """The session's parties finished draining: account for it."""
        record.result = result
        self._totals.merge(result.stats)
        if self.monitor is not None:
            self.monitor.on_session_end(record, result)
        if self.tracer is not None:
            self.tracer.event("session_end", party=record.dst,
                              peer=record.src,
                              bits=result.stats.total_bits,
                              session=record.index)
        if self.metrics is not None:
            observe_session(self.metrics, result.stats,
                            protocol=f"cluster.{self.config.protocol}",
                            completion_time=result.duration)
            self.metrics.histogram("cluster.queue_wait_seconds").observe(
                record.queue_wait)


def replay_sequential(sites: Iterable[str], config: ClusterConfig,
                      log: Iterable[LogEntry], *,
                      shards: Optional[ShardMap] = None
                      ) -> Tuple[List[TimedSessionResult],
                                 Dict[str, Dict[int, BasicRotatingVector]]]:
    """Re-execute a cluster run's log one session at a time.

    Each session runs alone on a fresh private simulator (via the unified
    :func:`~repro.net.runner.launch` machinery) against vectors evolved
    through the same realized order.  The returned per-session stats must
    equal the concurrent run's — the scheduling-independence property the
    regression benchmark asserts (sessions that overlap hold disjoint
    objects, so start order is a serialization).  Every session takes
    the concurrent run's options from :func:`session_options`, including
    its per-session injector seed, so drop/duplicate/reorder schedules
    (and the retransmissions, aborts, and resumes they induce) replay
    bit for bit; absolute-time *partition windows* are the one exclusion
    — a replayed session starts its private clock at 0, so the replay
    guarantee covers probabilistic faults only.  Returns the per-session
    results and every site's objects table, laid out as
    :attr:`ClusterResult.objects`.
    """
    spec = registry.get(config.protocol)
    objects = _new_objects(sites, config, shards)
    results: List[TimedSessionResult] = []
    session_index = -1
    for entry in log:
        if entry[0] == "update":
            _, site, obj = entry
            objects[site][obj].record_update(site)
            continue
        if entry[0] != "session":  # pragma: no cover - defensive
            raise ValueError(f"unknown log entry {entry!r}")
        _, src, dst, objs = entry
        session_index += 1
        options = session_options(config, src, dst, session_index,
                                  tracer=None)
        faulted = options["channel"].faults.enabled
        reconciled_any = {obj: False for obj in objs}
        sending, receiver = objects[src], objects[dst]
        # Mirrors the concurrent runner's transactional attempts: the
        # first build snapshots what the session can write at the
        # receiver, every resume restores it before re-handshaking (see
        # ClusterRunner._start).
        snapshots: List[Tuple[Tuple[int, Any], ...]] = []

        def build() -> Tuple[Tuple[Any, Any], ...]:
            if snapshots:
                _restore_writable(receiver, snapshots[0])
            verdicts = tuple(receiver[obj].compare(sending[obj])
                             for obj in objs)
            if faulted and not snapshots:
                snapshots.append(_snapshot_writable(receiver, objs,
                                                    verdicts))
            pairs = []
            for obj, verdict in zip(objs, verdicts):
                sender, receiving, reconciled = spec.build(
                    sending[obj], receiver[obj], verdict)
                pairs.append((sender, receiving))
                reconciled_any[obj] |= reconciled
            return tuple(pairs)

        attempts = dict(rebuild=build) if faulted else dict(pairs=build())
        results.append(run_timed(SessionOptions(
            batch_size=config.batch_size if len(objs) > 1 else 1,
            stop_and_wait=config.stop_and_wait, **attempts, **options)))
        if config.increment_on_merge:
            for obj, reconciled in reconciled_any.items():
                if reconciled:
                    receiver[obj].record_update(dst)
    return results, objects


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
    config = ClusterConfig(
        protocol=protocol, encoding=encoding,
        stop_and_wait=stop_and_wait, proc_time=proc_time,
        increment_on_merge=increment_on_merge, max_steps=max_steps,
        n_objects=n_objects, batch_size=batch_size,
        retry=retry if retry is not None else RetryPolicy(),
        topology=spec)
    do_shard = shard if shard is not None else spec.replication is not None
    shards = build_shard_map(spec, n_objects) if do_shard else None
    return ClusterRunner(spec.site_names(), config, tracer=tracer,
                         metrics=metrics, monitor=monitor, shards=shards)
