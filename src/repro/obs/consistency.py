"""The store consistency observatory: staleness, visibility, guarantees.

:mod:`repro.obs.monitor` watches *synchronization* health — frontiers,
backlogs, retries.  What a client of the replicated store experiences is
*consistency*: how stale its reads are, how long a write takes to become
visible everywhere, and whether siblings converge or resurrect.  A
:class:`ConsistencyMonitor` attaches to a
:class:`~repro.store.cluster.StoreCluster` and measures exactly that,
live, as the second gauge set over the
:class:`~repro.obs.observer.Observer` core that also carries
:class:`~repro.obs.monitor.ClusterMonitor`: it subscribes to the cluster's
tracer, reads records in place, never schedules simulator events, and a
run with ``monitor=None`` (the default) executes byte-for-byte the
unmonitored code path.

Divergence gauges (per site, sampled on a cadence into ring buffers)
--------------------------------------------------------------------

* **sibling population** — stored sibling values across the site's keys
  (tombstones included); growth means concurrent writes are outpacing
  supersession.
* **frontier distance** — per key, how many vector elements the site is
  behind the fleet-wide element-wise max, summed over keys.
* **anti-entropy lag** — simulated seconds since the site last absorbed
  a completed session (how long it has been syncing nothing).
* **replication lag** — the newest-write watermark gap: the global
  newest client-write time minus the newest write time this site
  reflects.  Zero means the site has (at least transitively) heard the
  fleet's latest write.

Write-visibility watermarks
---------------------------

Every put/delete is stamped with its coordinating execution time.  A
write is *visible* at a site once the site's per-key watermark
(:attr:`~repro.store.kv.KeyRecord.updated_at` — the newest client-write
time the replica reflects, advanced only by local writes and absorbs)
reaches the write's stamp.  The monitor records the exact simulated
latency until each write is visible at ``k`` replicas (``w_k``) and at
every site (``w_all``) as histograms, p999 included.  Watermarks are
monotone per (site, key) — puts take ``max`` and absorbs only move
forward — and the monitor *checks* that inline: a regression raises the
``visibility_watermark`` violation.

Session-guarantee auditor
-------------------------

:meth:`ConsistencyMonitor.audit_op` consumes a sticky client's own
get/put stream (the client workload feeds it) and checks two session
guarantees the ROADMAP wants to ship, before their semantics exist:

* **read-your-writes** — a read's causal context must cover the
  client's last write context for the key;
* **monotonic reads** — a read's context must cover everything the
  client has already observed for the key, and a value the client saw
  superseded must never resurface (``resurrection``) — the documented
  union-resurrection limitation of the value-set sibling fold
  (docs/STORE.md) trips exactly this check, turning a known limitation
  into a measured, regression-gated quantity.

Violations emit structured ``consistency_violation`` trace events and
are counted; ``strict=True`` raises
:class:`~repro.errors.InvariantViolationError` on the first one,
mirroring the invariant checkers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.obs import trace as obs
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.observer import Observer, ObserverConfig
from repro.obs.otlp_schema import validate

#: The per-site gauges every consistency sample records.
CONSISTENCY_GAUGE_NAMES = ("sibling_population", "frontier_distance",
                           "anti_entropy_lag", "replication_lag")

#: The session-guarantee checks the auditor runs, in report order.
AUDIT_CHECKS = ("read_your_writes", "monotonic_reads", "resurrection")

#: Digest schema identifier (bump on breaking digest shape changes).
DIGEST_SCHEMA_ID = "repro.obs.consistency/1"


@dataclass(frozen=True)
class ConsistencyConfig(ObserverConfig):
    """Knobs of one :class:`ConsistencyMonitor`.

    ``cadence``, ``ring_capacity`` and ``strict`` are the shared
    :class:`~repro.obs.observer.ObserverConfig` fields.

    Attributes:
        visibility_k: the ``k`` of the ``w_k`` histogram — a write
            counts as k-visible once ``min(k, n_sites)`` sites reflect
            it (the coordinator itself is the first).
        audit: run the session-guarantee auditor (the workload feeds it
            via :meth:`ConsistencyMonitor.audit_op`).
        worst_keys: entries in the digest's worst-offender panel.
    """

    visibility_k: int = 2
    audit: bool = True
    worst_keys: int = 5

    def __post_init__(self) -> None:
        super().__post_init__()
        self._at_least("visibility_k", 1)
        self._at_least("worst_keys", 0)


@dataclass
class _PendingWrite:
    """One stamped write not yet visible at every site."""

    written_at: float
    arrived: Set[str]
    k_done: bool = False


@dataclass
class _SessionAudit:
    """One sticky (client, key) session's observed-state bookkeeping."""

    write_context: Optional[Dict[str, int]] = None
    observed_context: Dict[str, int] = field(default_factory=dict)
    last_values: Tuple[Any, ...] = ()
    #: Values this client observed being superseded (they vanished from
    #: a later observation of the key).
    superseded: Set[Any] = field(default_factory=set)
    #: Superseded values already reported as resurrected (flag once).
    flagged: Set[Any] = field(default_factory=set)


def _covers(context: Dict[str, int], reference: Dict[str, int]) -> bool:
    """Whether ``context`` dominates ``reference`` element-wise."""
    return all(context.get(site, 0) >= count
               for site, count in reference.items())


class ConsistencyMonitor(Observer):
    """Live consistency gauges + session-guarantee audit for one store run.

    One-shot like the cluster it watches::

        monitor = ConsistencyMonitor(ConsistencyConfig(strict=False))
        result = run_store_workload(config, monitor=monitor)
        print(result.consistency["w_all_seconds"]["p99"])

    The client workload feeds :meth:`audit_op` from its own completion
    stream; user code reads :meth:`summary` (the schema-validated
    digest), the ring series, or the violations list.
    """

    GAUGES = CONSISTENCY_GAUGE_NAMES
    NAMESPACE = "consistency"
    VIOLATION_KIND = obs.CONSISTENCY_VIOLATION
    VIOLATED = "consistency"

    def __init__(self, config: ConsistencyConfig = ConsistencyConfig(), *,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        super().__init__(config, metrics=metrics)
        #: Visibility latency until ``min(k, n_sites)`` sites reflect a write.
        self.w_k = Histogram()
        #: Visibility latency until every site reflects a write.
        self.w_all = Histogram()
        self._pending: Dict[str, List[_PendingWrite]] = {}
        self._writes_tracked = 0
        self._writes_visible_all = 0
        self._newest_write = 0.0
        self._site_watermark: Dict[str, float] = {}
        self._last_absorb: Dict[str, float] = {}
        self._key_watermarks: Dict[Tuple[str, str], float] = {}
        self._audit: Dict[Tuple[int, str], _SessionAudit] = {}
        self._audit_ops = 0
        self._audit_counts: Dict[str, int] = {check: 0
                                              for check in AUDIT_CHECKS}
        self._key_violations: Dict[str, int] = {}
        self._clients_affected: Set[int] = set()

    def _bind(self) -> None:
        self._site_watermark = dict.fromkeys(self.sites, 0.0)
        self._last_absorb = dict.fromkeys(self.sites, 0.0)

    # -- cluster hooks -----------------------------------------------------------

    def on_client_op(self, kind: str, site: str, key: str,
                     now: float) -> None:
        """A client op executed at its coordinating site.

        Writes (put/delete) are stamped here: the coordinator is the
        write's first visible replica, and its per-key watermark moves
        to ``now`` (:meth:`~repro.store.kv.SiteStore.put` takes the
        ``max``, so this ratchet cannot regress).
        """
        if kind != "get":
            self._writes_tracked += 1
            if now > self._newest_write:
                self._newest_write = now
            if now > self._site_watermark[site]:
                self._site_watermark[site] = now
            self._ratchet(site, key, now, now)
            pending = _PendingWrite(written_at=now, arrived={site})
            if len(pending.arrived) >= self._effective_k():
                pending.k_done = True
                self.w_k.observe(0.0)
            if len(pending.arrived) >= len(self.sites):
                self.w_all.observe(0.0)
                self._writes_visible_all += 1
            else:
                self._pending.setdefault(key, []).append(pending)
        self._maybe_sample(now)

    def on_absorb(self, site: str, key: str, updated_at: float,
                  now: float) -> None:
        """A completed session folded ``key`` into ``site``.

        ``updated_at`` is the destination record's post-absorb
        watermark: every stamped write with ``written_at <= updated_at``
        is now visible at ``site``, which is what advances the w_k /
        w_all histograms and the site's replication-lag numerator.
        """
        self._last_absorb[site] = now
        self._ratchet(site, key, updated_at, now)
        if updated_at > self._site_watermark[site]:
            self._site_watermark[site] = updated_at
        pending = self._pending.get(key)
        if pending:
            n_sites = len(self.sites)
            remaining: List[_PendingWrite] = []
            for write in pending:
                if (write.written_at <= updated_at
                        and site not in write.arrived):
                    write.arrived.add(site)
                    if (not write.k_done
                            and len(write.arrived) >= self._effective_k()):
                        write.k_done = True
                        self.w_k.observe(now - write.written_at)
                    if len(write.arrived) >= n_sites:
                        self.w_all.observe(now - write.written_at)
                        self._writes_visible_all += 1
                        continue
                remaining.append(write)
            if remaining:
                self._pending[key] = remaining
            else:
                del self._pending[key]
        self._maybe_sample(now)

    def on_session_end(self, now: float) -> None:
        """A session released its endpoints; the clock may have moved."""
        self._maybe_sample(now)

    # -- the divergence walk -----------------------------------------------------

    def _effective_k(self) -> int:
        if not self.sites:
            return self.config.visibility_k
        return min(self.config.visibility_k, len(self.sites))

    def _walk(self, now: float) -> None:
        """Record one divergence sample for every site at ``now``.

        A key's frontier is the element-wise max of its vector over
        every site that has heard of it; a site's frontier distance
        counts the elements it is behind, summed over keys.
        """
        stores = self._owner.stores
        keys: Set[str] = set()
        for store in stores.values():
            keys.update(store.table)
        ordered_keys = sorted(keys)
        frontiers: Dict[str, Dict[str, int]] = {}
        for key in ordered_keys:
            frontier: Dict[str, int] = {}
            for store in stores.values():
                record = store.table.get(key)
                if record is None:
                    continue
                for elem_site, count in record.vector.elements():
                    if count > frontier.get(elem_site, 0):
                        frontier[elem_site] = count
            frontiers[key] = frontier
        for site in self.sites:
            store = stores[site]
            distance = 0
            for key in ordered_keys:
                record = store.table.get(key)
                known = (dict(record.vector.elements())
                         if record is not None else {})
                for elem_site, peak in frontiers[key].items():
                    if peak > known.get(elem_site, 0):
                        distance += 1
            self._record(site, now, (
                float(store.sibling_population()), float(distance),
                now - self._last_absorb[site],
                max(0.0, self._newest_write - self._site_watermark[site])))

    # -- invariants --------------------------------------------------------------

    def _ratchet(self, site: str, key: str, watermark: float,
                 now: float) -> None:
        """Advance one (site, key) visibility watermark; it must never
        regress — puts take ``max`` and absorbs only move forward."""
        previous = self._key_watermarks.get((site, key), 0.0)
        if watermark < previous:
            self._count_key(key)
            self._violate(
                "visibility_watermark", now,
                f"{site}/{key} watermark regressed "
                f"{previous:.6f} -> {watermark:.6f}",
                site=site, key=key)
            return
        self._key_watermarks[(site, key)] = watermark

    def _count_key(self, key: str) -> None:
        """One more violation against ``key`` (the worst-keys panel)."""
        self._key_violations[key] = self._key_violations.get(key, 0) + 1

    # -- the session-guarantee auditor -------------------------------------------

    def audit_op(self, client: int, kind: str, key: str, result: Any,
                 time: float) -> None:
        """Audit one sticky client's executed op against its history.

        ``result`` is the op's :class:`~repro.store.kv.ReadResult` (the
        post-write read for puts/deletes).  Reads are checked for
        read-your-writes (context covers the client's last write),
        monotonic reads (context covers everything already observed),
        and value resurrection (a sibling the client saw superseded
        resurfaced — flagged once per value).  Values must be hashable;
        the store workload's are strings.
        """
        if not self.config.audit:
            return
        self._audit_ops += 1
        state = self._audit.setdefault((client, key), _SessionAudit())
        context = result.context
        values = tuple(result.values)
        if kind == "get":
            if (state.write_context is not None
                    and not _covers(context, state.write_context)):
                self._audit_violate(
                    "read_your_writes", key, client, time,
                    f"client {client} read {key} with context {context} "
                    f"not covering its last write {state.write_context}")
            elif not _covers(context, state.observed_context):
                self._audit_violate(
                    "monotonic_reads", key, client, time,
                    f"client {client} read {key} with context {context} "
                    f"behind its observed {state.observed_context}")
            for value in values:
                if value in state.superseded and value not in state.flagged:
                    state.flagged.add(value)
                    self._audit_violate(
                        "resurrection", key, client, time,
                        f"client {client} saw superseded sibling "
                        f"{value!r} of {key} resurface",
                        value=str(value))
        else:
            state.write_context = dict(context)
        state.superseded.update(value for value in state.last_values
                                if value not in values)
        state.last_values = values
        for site, count in context.items():
            if count > state.observed_context.get(site, 0):
                state.observed_context[site] = count

    def _audit_violate(self, check: str, key: str, client: int,
                       time: float, message: str, **extra: Any) -> None:
        self._audit_counts[check] += 1
        self._clients_affected.add(client)
        self._count_key(key)
        self._violate(check, time, message, key=key, client=client, **extra)

    # -- read API ----------------------------------------------------------------

    def key_watermark(self, site: str, key: str) -> float:
        """The (site, key) visibility watermark last ratcheted."""
        return self._key_watermarks.get((site, key), 0.0)

    def audit_counts(self) -> Dict[str, int]:
        """Cumulative violations per session-guarantee check."""
        return dict(self._audit_counts)

    def worst_keys(self, limit: Optional[int] = None
                   ) -> List[Dict[str, Any]]:
        """Keys ranked worst-first: most violations, fattest sibling
        sets, widest staleness spread across replicas."""
        if limit is None:
            limit = self.config.worst_keys
        stores = self._owner.stores if self._owner is not None else {}
        keys: Set[str] = set(self._key_violations)
        for store in stores.values():
            keys.update(store.table)
        entries: List[Dict[str, Any]] = []
        for key in sorted(keys):
            marks = []
            max_siblings = 0
            for store in stores.values():
                record = store.table.get(key)
                if record is None:
                    marks.append(0.0)
                    continue
                marks.append(record.updated_at)
                if len(record.siblings) > max_siblings:
                    max_siblings = len(record.siblings)
            spread = (max(marks) - min(marks)) if marks else 0.0
            entries.append({
                "key": key,
                "violations": self._key_violations.get(key, 0),
                "max_siblings": max_siblings,
                "staleness_spread_seconds": round(spread, 9),
            })
        entries.sort(key=lambda entry: (-entry["violations"],
                                        -entry["max_siblings"],
                                        -entry["staleness_spread_seconds"],
                                        entry["key"]))
        return entries[:limit]

    def summary(self) -> Dict[str, Any]:
        """The JSON-ready consistency digest (see CONSISTENCY_SCHEMA).

        Contains no wall-clock quantity: two monitored runs of one seed
        produce byte-identical digests.  When the cluster's config
        carries a :class:`~repro.net.topology.TopologySpec` the digest
        additionally rolls replication lag up per region; the key is
        simply absent otherwise.
        """
        replication = {site: round(self._replication_lag(site), 9)
                       for site in self.sites}
        anti_entropy = {
            site: round(self.latest(site, "anti_entropy_lag") or 0.0, 9)
            for site in self.sites}
        digest: Dict[str, Any] = {
            "schema": DIGEST_SCHEMA_ID,
            "samples": self.samples,
            "sites": len(self.sites),
            "visibility_k": self._effective_k(),
            "writes_tracked": self._writes_tracked,
            "writes_visible_all": self._writes_visible_all,
            "writes_pending": sum(len(writes)
                                  for writes in self._pending.values()),
            "w_k_seconds": _rounded_summary(self.w_k),
            "w_all_seconds": _rounded_summary(self.w_all),
            "replication_lag_seconds": replication,
            "max_replication_lag_seconds": round(
                max(replication.values(), default=0.0), 9),
            "anti_entropy_lag_seconds": anti_entropy,
            "audit": {
                "ops_audited": self._audit_ops,
                "violations": self.violation_count,
                "read_your_writes": self._audit_counts["read_your_writes"],
                "monotonic_reads": self._audit_counts["monotonic_reads"],
                "resurrections": self._audit_counts["resurrection"],
                "clients_affected": len(self._clients_affected),
            },
            "worst_keys": self.worst_keys(),
        }
        topology = (self._owner.config.topology
                    if self._owner is not None else None)
        if topology is not None:
            digest["per_region"] = self._per_region(
                topology, replication, _lag_rollup)
        return digest

    def _replication_lag(self, site: str) -> float:
        latest = self.latest(site, "replication_lag")
        return latest if latest is not None else 0.0


def _lag_rollup(lags: List[float]) -> Dict[str, float]:
    """Max and mean of some replication lags, digest-rounded."""
    return {"max_replication_lag_seconds": round(max(lags, default=0.0), 9),
            "mean_replication_lag_seconds": round(
                sum(lags) / len(lags) if lags else 0.0, 9)}


def _rounded_summary(histogram: Histogram) -> Dict[str, float]:
    """A histogram summary with stable 9-decimal rounding (digest-safe)."""
    summary = histogram.summary()
    return {name: (value if name == "count" else round(value, 9))
            for name, value in summary.items()}


# -- the digest schema ---------------------------------------------------------

_QUANTILES = {
    "type": "object",
    "required": ["count", "mean", "max", "p50", "p90", "p99", "p999"],
    "properties": {
        "count": {"type": "integer", "minimum": 0},
        "mean": {"type": "number", "minimum": 0},
        "max": {"type": "number", "minimum": 0},
        "p50": {"type": "number", "minimum": 0},
        "p90": {"type": "number", "minimum": 0},
        "p95": {"type": "number", "minimum": 0},
        "p99": {"type": "number", "minimum": 0},
        "p999": {"type": "number", "minimum": 0},
    },
}

#: The consistency digest produced by :meth:`ConsistencyMonitor.summary`.
#: ``schemas/repro.obs.consistency.schema.json`` is the same schema
#: checked in for external tooling; a unit test pins file == dict.
CONSISTENCY_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "$id": "repro.obs.consistency.schema.json",
    "title": "repro store consistency digest",
    "type": "object",
    "required": [
        "schema", "samples", "sites", "visibility_k", "writes_tracked",
        "writes_visible_all", "writes_pending", "w_k_seconds",
        "w_all_seconds", "replication_lag_seconds",
        "max_replication_lag_seconds", "anti_entropy_lag_seconds",
        "audit", "worst_keys",
    ],
    "properties": {
        "schema": {"enum": [DIGEST_SCHEMA_ID]},
        "samples": {"type": "integer", "minimum": 0},
        "sites": {"type": "integer", "minimum": 0},
        "visibility_k": {"type": "integer", "minimum": 1},
        "writes_tracked": {"type": "integer", "minimum": 0},
        "writes_visible_all": {"type": "integer", "minimum": 0},
        "writes_pending": {"type": "integer", "minimum": 0},
        "w_k_seconds": _QUANTILES,
        "w_all_seconds": _QUANTILES,
        "replication_lag_seconds": {"type": "object"},
        "max_replication_lag_seconds": {"type": "number", "minimum": 0},
        "anti_entropy_lag_seconds": {"type": "object"},
        "audit": {
            "type": "object",
            "required": ["ops_audited", "violations", "read_your_writes",
                         "monotonic_reads", "resurrections",
                         "clients_affected"],
            "properties": {
                "ops_audited": {"type": "integer", "minimum": 0},
                "violations": {"type": "integer", "minimum": 0},
                "read_your_writes": {"type": "integer", "minimum": 0},
                "monotonic_reads": {"type": "integer", "minimum": 0},
                "resurrections": {"type": "integer", "minimum": 0},
                "clients_affected": {"type": "integer", "minimum": 0},
            },
        },
        "worst_keys": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["key", "violations", "max_siblings",
                             "staleness_spread_seconds"],
                "properties": {
                    "key": {"type": "string"},
                    "violations": {"type": "integer", "minimum": 0},
                    "max_siblings": {"type": "integer", "minimum": 0},
                    "staleness_spread_seconds": {"type": "number",
                                                 "minimum": 0},
                },
            },
        },
        "per_region": {"type": "object"},
    },
}


def validate_consistency(document: Any) -> List[str]:
    """Violations of the digest schema in ``document`` (empty = valid)."""
    return validate(document, CONSISTENCY_SCHEMA)
