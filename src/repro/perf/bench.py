"""The cluster-scale benchmark-regression driver.

Runs the paper's workload scenarios on the
:class:`~repro.net.cluster.ClusterRunner` at several fleet sizes and
records, per (protocol, n): total wire traffic, simulated completion
time, and measured wall-clock time.  The result is a
``BENCH_cluster.json`` document (schema :mod:`repro.perf.schema`) meant
to be committed/archived per PR so the performance trajectory is
machine-diffable.

Scenarios mirror the fleet regimes the paper distinguishes:

* **single-writer-gossip** (BRV/SYNCB) — all updates land on one site, so
  no two vectors are ever concurrent: Algorithm 2's precondition holds
  and traffic isolates the pure O(|Δ|) incremental cost.
* **multi-writer-gossip** (CRV/SYNCC, SRV/SYNCS) — updates land
  everywhere; gossip reconciles concurrent vectors, exercising conflict
  bits, segments, and SKIPs under realistic scheduling.
* **store-workload** — zipfian client traffic against the replicated
  key-value store (:mod:`repro.store`): per-key vectors, read-repair,
  background anti-entropy, with client-felt latency and staleness
  percentiles in the record's ``client`` object.

Every run also asserts the harness's accounting invariant — concurrent
scheduling must not change traffic — via
:func:`~repro.net.cluster.replay_sequential` when ``paired=True``.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import time
from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.net.channel import ChannelSpec
from repro.net.cluster import (ClusterConfig, ClusterResult, ClusterRunner,
                               launch_cluster, replay_sequential)
from repro.net.sharding import ShardMap
from repro.net.topology import LinkProfile, TopologySpec
from repro.net.wire import Encoding
from repro.obs.causal import analyze_tracer
from repro.obs.metrics import MetricsRegistry, wall_timer
from repro.obs.monitor import ClusterMonitor, MonitorConfig
from repro.obs.trace import Tracer
from repro.perf.schema import SCHEMA_ID, validate_bench
from repro.workload.cluster import (chaos_faults, gossip_schedule,
                                    site_names, update_schedule)
from repro.workload.epidemic import (closing_sweep, epidemic_schedule,
                                     sharded_update_schedule)

#: Fleet sizes of the standing regression trajectory.
DEFAULT_SITE_COUNTS = (8, 32, 128)
DEFAULT_OUTPUT = "BENCH_cluster.json"

#: The standing multi-region fleet of the E13 bench cell: three regions
#: of 16 sites on fast clean LANs, joined by a slow WAN carrying the
#: standard chaos mix at 1% nominal loss, objects sharded 3-way on the
#: consistent-hash ring.
DEFAULT_BENCH_TOPOLOGY = TopologySpec.grid(
    3, 16,
    intra=LinkProfile(latency=0.002, bandwidth=1_000_000.0),
    inter=LinkProfile(latency=0.04, bandwidth=250_000.0, loss=0.01),
    replication=3, chaos_seed=11)


@dataclass(frozen=True)
class BenchConfig:
    """Knobs of one benchmark sweep (all deterministic given ``seed``)."""

    site_counts: Tuple[int, ...] = DEFAULT_SITE_COUNTS
    protocols: Tuple[str, ...] = ("brv", "crv", "srv")
    rounds: int = 3
    updates_per_site: float = 2.0
    gossip_period: float = 1.0
    gossip_jitter: float = 0.2
    update_interval: float = 0.25
    latency: float = 0.005
    bandwidth: float = 1_000_000.0
    fanout: int = 1
    seed: int = 0
    #: Re-run every schedule sequentially and require identical traffic.
    paired: bool = True
    #: The batched many-objects scenario (§1's motivation, E10-style):
    #: one fleet of ``batched_site_count`` sites replicating
    #: ``batched_objects`` objects, swept over ``batched_sizes`` batch
    #: sizes so the document records how framing amortizes the
    #: ``batched_header_bits`` per-session overhead.  Empty
    #: ``batched_sizes`` skips the scenario.
    batched_site_count: int = 8
    batched_objects: int = 32
    batched_sizes: Tuple[int, ...] = (1, 64)
    batched_header_bits: int = 64
    #: The chaos scenario (E11): the batched fleet re-run per protocol
    #: over a faulted channel (:func:`repro.workload.cluster.chaos_faults`
    #: expands each nominal loss rate into the standard drop/duplicate/
    #: reorder mix) with the reliable ARQ transport engaged.  The record
    #: reports goodput vs retransmitted bits, retry/timeout/resume
    #: counters, and convergence.  Empty ``chaos_loss_rates`` skips the
    #: scenario.
    chaos_loss_rates: Tuple[float, ...] = (0.01, 0.1)
    chaos_seed: int = 11
    chaos_batch_size: int = 8
    #: The store-workload scenario (E12): zipfian client traffic against
    #: the replicated key-value store (:mod:`repro.store`) — per-key
    #: rotating vectors, causal-context writes, read-repair, background
    #: anti-entropy — reporting client-felt latency and staleness
    #: percentiles alongside the wire totals.  ``store_ops=0`` skips the
    #: scenario.
    store_site_count: int = 8
    store_keys: int = 32
    store_clients: int = 64
    store_ops: int = 2000
    store_read_ratio: float = 0.9
    store_zipf: float = 1.1
    #: The multi-region sharded scenario (E13): the ``topology`` fleet —
    #: regions, link profiles, loss, replication factor, gossip shape —
    #: replicating ``mr_objects`` objects over the consistent-hash ring,
    #: disseminated by ``mr_rounds`` epidemic push/pull rounds and closed
    #: by the deterministic two-phase sweep.  The record always embeds
    #: the ClusterMonitor health digest (per-region scores, shard load)
    #: — that visibility is the scenario's point.  ``topology=None``
    #: skips the scenario (the pre-E13 document shape).
    topology: Optional[TopologySpec] = DEFAULT_BENCH_TOPOLOGY
    mr_objects: int = 512
    mr_rounds: int = 4
    mr_batch_size: int = 8

    def channel(self) -> ChannelSpec:
        """The link model every session runs over."""
        return ChannelSpec(latency=self.latency, bandwidth=self.bandwidth)

    def chaos_channel(self, loss: float) -> ChannelSpec:
        """The same link carrying the standard fault mix for ``loss``."""
        return ChannelSpec(
            latency=self.latency, bandwidth=self.bandwidth,
            faults=chaos_faults(loss, latency=self.latency,
                                seed=self.chaos_seed))


def _scenario_for(protocol: str) -> str:
    return ("single-writer-gossip" if protocol == "brv"
            else "multi-writer-gossip")


def _make_monitor(enabled: bool) -> Optional[ClusterMonitor]:
    """The per-cell monitor, or ``None`` (the byte-identical default).

    Bench cells run the monitor in counting mode: a violation must land
    in the document (where the comparator gate fails on it), not abort
    the sweep halfway through.
    """
    return ClusterMonitor(MonitorConfig(strict=False)) if enabled else None


def _monitor_fields(monitor: Optional[ClusterMonitor]) -> Dict[str, Any]:
    """The extra record fields a monitored cell carries (picklable)."""
    if monitor is None:
        return {}
    return {"invariant_violations": monitor.violation_count,
            "health": monitor.health_summary()}


def _make_tracer(enabled: bool) -> Optional[Tracer]:
    """The per-cell causal tracer, or ``None`` (the default)."""
    return Tracer() if enabled else None


def _analyze_fields(tracer: Optional[Tracer]) -> Dict[str, Any]:
    """The causal-analysis record fields an analyzed cell carries.

    The cell's full trace is reduced post-run to three picklable
    scalars/dicts: the convergence critical-path length in simulated
    seconds, its hop count, and its category attribution — exactly the
    trajectory :mod:`repro.perf.history` watches across documents.
    """
    if tracer is None:
        return {}
    analysis = analyze_tracer(tracer)
    path = analysis.critical_path
    if path is None:
        return {"critical_path_seconds": 0.0, "critical_path_hops": 0,
                "critical_path_attribution": {}}
    return {"critical_path_seconds": path["elapsed"],
            "critical_path_hops": len(path["hops"]),
            "critical_path_attribution": path["attribution"]}


def _run_one(protocol: str, n_sites: int, config: BenchConfig, *,
             metrics: Optional[MetricsRegistry] = None,
             monitor: bool = False, analyze: bool = False) -> Dict[str, Any]:
    sites = site_names(n_sites)
    n_updates = max(1, round(n_sites * config.updates_per_site))
    cluster_config = ClusterConfig(
        protocol=protocol,
        channel=config.channel(),
        encoding=Encoding.for_system(n_sites, max(16, n_updates)),
        fanout=config.fanout,
    )
    sessions = gossip_schedule(
        sites, rounds=config.rounds, period=config.gossip_period,
        jitter=config.gossip_jitter, seed=config.seed)
    writers = [sites[0]] if protocol == "brv" else None
    updates = update_schedule(
        sites, n_updates=n_updates, interval=config.update_interval,
        seed=config.seed + 1, writers=writers)
    cell_monitor = _make_monitor(monitor)
    cell_tracer = _make_tracer(analyze)
    runner = ClusterRunner(sites, cluster_config, metrics=metrics,
                           monitor=cell_monitor, tracer=cell_tracer)
    start = time.perf_counter()
    with wall_timer(metrics, f"bench.cluster.{protocol}.wall_seconds"):
        result = runner.run(sessions, updates)
    wall_seconds = time.perf_counter() - start
    if config.paired:
        _assert_scheduling_independent(sites, cluster_config, result)
    per_session = result.per_session_bits()
    ranked = sorted(per_session)
    return {
        **_monitor_fields(cell_monitor),
        **_analyze_fields(cell_tracer),
        "scenario": _scenario_for(protocol),
        "protocol": protocol,
        "n_sites": n_sites,
        "sessions": result.sessions,
        "updates": result.updates_applied,
        "updates_deferred": result.updates_deferred,
        "reconciliations": result.reconciliations,
        "total_bits": result.total_bits,
        "traffic": result.totals.summary(),
        "bits_per_session": {
            "mean": sum(per_session) / len(per_session) if per_session else 0,
            "p50": ranked[len(ranked) // 2] if ranked else 0,
            "p90": ranked[min(len(ranked) - 1, (9 * len(ranked)) // 10)]
                   if ranked else 0,
            "max": ranked[-1] if ranked else 0,
        },
        "sim_completion_seconds": result.completion_time,
        "wall_seconds": wall_seconds,
        "max_queue_wait_seconds": result.max_queue_wait,
        "consistent": result.consistent(),
    }


def _run_batched_one(batch_size: int, config: BenchConfig, *,
                     metrics: Optional[MetricsRegistry] = None,
                     monitor: bool = False,
                     analyze: bool = False) -> Dict[str, Any]:
    """One batched many-objects run (always SRV, stop-and-wait).

    Stop-and-wait plus a non-zero per-session header is the regime where
    framing pays: ``batch_size=1`` ships one header and one ack stream
    per object, larger sizes one header and one ack per frame.  The
    record adds ``n_objects``/``batch_size``/``wire_bits_per_object`` on
    top of the standard fields so two batch sizes are directly
    comparable.
    """
    n_sites = config.batched_site_count
    n_objects = config.batched_objects
    sites = site_names(n_sites)
    n_updates = max(1, round(n_sites * config.updates_per_site))
    cluster_config = ClusterConfig(
        protocol="srv",
        channel=config.channel(),
        encoding=replace(Encoding.for_system(n_sites, max(16, n_updates)),
                         session_header_bits=config.batched_header_bits),
        fanout=config.fanout,
        stop_and_wait=True,
        n_objects=n_objects,
        batch_size=batch_size,
    )
    sessions = gossip_schedule(
        sites, rounds=config.rounds, period=config.gossip_period,
        jitter=config.gossip_jitter, seed=config.seed)
    updates = update_schedule(
        sites, n_updates=n_updates, interval=config.update_interval,
        seed=config.seed + 1, n_objects=n_objects)
    cell_monitor = _make_monitor(monitor)
    cell_tracer = _make_tracer(analyze)
    runner = ClusterRunner(sites, cluster_config, metrics=metrics,
                           monitor=cell_monitor, tracer=cell_tracer)
    start = time.perf_counter()
    with wall_timer(metrics, "bench.cluster.batched.wall_seconds"):
        result = runner.run(sessions, updates)
    wall_seconds = time.perf_counter() - start
    if config.paired:
        _assert_scheduling_independent(sites, cluster_config, result)
    per_session = result.per_session_bits()
    ranked = sorted(per_session)
    synced_objects = result.sessions * n_objects
    return {
        **_monitor_fields(cell_monitor),
        **_analyze_fields(cell_tracer),
        "scenario": "batched-many-objects",
        "protocol": "srv",
        "n_sites": n_sites,
        "n_objects": n_objects,
        "batch_size": batch_size,
        "sessions": result.sessions,
        "updates": result.updates_applied,
        "updates_deferred": result.updates_deferred,
        "reconciliations": result.reconciliations,
        "total_bits": result.total_bits,
        "wire_bits_per_object": (result.total_bits / synced_objects
                                 if synced_objects else 0.0),
        "traffic": result.totals.summary(),
        "bits_per_session": {
            "mean": sum(per_session) / len(per_session) if per_session else 0,
            "p50": ranked[len(ranked) // 2] if ranked else 0,
            "p90": ranked[min(len(ranked) - 1, (9 * len(ranked)) // 10)]
                   if ranked else 0,
            "max": ranked[-1] if ranked else 0,
        },
        "sim_completion_seconds": result.completion_time,
        "wall_seconds": wall_seconds,
        "max_queue_wait_seconds": result.max_queue_wait,
        "consistent": result.consistent(),
    }


def _run_chaos_one(protocol: str, loss: float, config: BenchConfig, *,
                   metrics: Optional[MetricsRegistry] = None,
                   monitor: bool = False,
                   analyze: bool = False) -> Dict[str, Any]:
    """One chaos cell: the batched fleet on a faulted channel.

    Every protocol runs the same ``batched_site_count`` ×
    ``batched_objects`` workload (single-writer updates for BRV, which
    cannot reconcile concurrent vectors) over a channel injecting the
    standard fault mix for ``loss``.  The reliable ARQ transport engages
    automatically; the record separates goodput from retransmitted bits
    and carries the retry/timeout/resume counters, so the per-scheme
    robustness overhead is machine-diffable across PRs.  The paired
    sequential replay applies here too — per-session injector seeds make
    even chaotic runs scheduling-independent.
    """
    n_sites = config.batched_site_count
    n_objects = config.batched_objects
    sites = site_names(n_sites)
    n_updates = max(1, round(n_sites * config.updates_per_site))
    cluster_config = ClusterConfig(
        protocol=protocol,
        channel=config.chaos_channel(loss),
        encoding=Encoding.for_system(n_sites, max(16, n_updates)),
        fanout=config.fanout,
        n_objects=n_objects,
        batch_size=config.chaos_batch_size,
    )
    sessions = gossip_schedule(
        sites, rounds=config.rounds, period=config.gossip_period,
        jitter=config.gossip_jitter, seed=config.seed)
    writers = [sites[0]] if protocol == "brv" else None
    updates = update_schedule(
        sites, n_updates=n_updates, interval=config.update_interval,
        seed=config.seed + 1, writers=writers, n_objects=n_objects)
    cell_monitor = _make_monitor(monitor)
    cell_tracer = _make_tracer(analyze)
    runner = ClusterRunner(sites, cluster_config, metrics=metrics,
                           monitor=cell_monitor, tracer=cell_tracer)
    start = time.perf_counter()
    with wall_timer(metrics, f"bench.cluster.chaos.{protocol}.wall_seconds"):
        result = runner.run(sessions, updates)
    wall_seconds = time.perf_counter() - start
    if config.paired:
        _assert_scheduling_independent(sites, cluster_config, result)
    per_session = result.per_session_bits()
    ranked = sorted(per_session)
    totals = result.totals
    return {
        **_monitor_fields(cell_monitor),
        **_analyze_fields(cell_tracer),
        "scenario": "chaos-loss",
        "protocol": protocol,
        "n_sites": n_sites,
        "n_objects": n_objects,
        "batch_size": config.chaos_batch_size,
        "loss_rate": loss,
        "chaos_seed": config.chaos_seed,
        "sessions": result.sessions,
        "updates": result.updates_applied,
        "updates_deferred": result.updates_deferred,
        "reconciliations": result.reconciliations,
        "total_bits": result.total_bits,
        "goodput_bits": totals.total_goodput_bits,
        "retransmitted_bits": totals.total_retransmitted_bits,
        "retries": totals.retries,
        "timeouts": totals.timeouts,
        "resumes": totals.resumes,
        "goodput_overhead_pct": (
            (result.total_bits - totals.total_goodput_bits)
            / totals.total_goodput_bits * 100
            if totals.total_goodput_bits else 0.0),
        "traffic": totals.summary(),
        "bits_per_session": {
            "mean": sum(per_session) / len(per_session) if per_session else 0,
            "p50": ranked[len(ranked) // 2] if ranked else 0,
            "p90": ranked[min(len(ranked) - 1, (9 * len(ranked)) // 10)]
                   if ranked else 0,
            "max": ranked[-1] if ranked else 0,
        },
        "sim_completion_seconds": result.completion_time,
        "wall_seconds": wall_seconds,
        "max_queue_wait_seconds": result.max_queue_wait,
        "consistent": result.consistent(),
    }


def _run_store_one(config: BenchConfig, *,
                   metrics: Optional[MetricsRegistry] = None,
                   monitor: bool = False,
                   analyze: bool = False) -> Dict[str, Any]:
    """One store-workload cell: client traffic against the KV store.

    The record keeps the standard cluster shape (``updates`` counts
    client writes, ``updates_deferred`` the ops parked behind a busy
    site, ``consistent`` the per-key sibling-set convergence check) and
    adds a ``client`` object with the client-felt numbers: op mix,
    read-repair count, and exact latency/staleness percentiles.  A
    monitored sweep attaches the *consistency* observatory
    (:mod:`repro.obs.consistency`) rather than the cluster health
    monitor — the health monitor's ancestor-closure oracle assumes
    whole-state sessions, which per-key store sessions are not — and
    embeds its digest as the record's ``consistency`` object
    (schema-validated alongside the rest of the document).
    """
    from repro.workload.clients import StoreWorkloadConfig, run_store_workload

    workload_config = StoreWorkloadConfig(
        n_sites=config.store_site_count, n_keys=config.store_keys,
        n_clients=config.store_clients, ops=config.store_ops,
        read_ratio=config.store_read_ratio, zipf=config.store_zipf,
        net_latency=config.latency, bandwidth=config.bandwidth,
        seed=config.seed)
    cell_monitor = None
    if monitor:
        from repro.obs.consistency import (ConsistencyConfig,
                                           ConsistencyMonitor)
        cell_monitor = ConsistencyMonitor(ConsistencyConfig())
    cell_tracer = _make_tracer(analyze)
    start = time.perf_counter()
    with wall_timer(metrics, "bench.cluster.store.wall_seconds"):
        result = run_store_workload(workload_config, tracer=cell_tracer,
                                    metrics=metrics, monitor=cell_monitor)
    wall_seconds = time.perf_counter() - start
    store = result.store
    per_session = [record.result.stats.total_bits
                   for record in store.records if record.result is not None]
    ranked = sorted(per_session)

    def _percentiles(summary: Dict[str, float]) -> Dict[str, float]:
        return {name: summary[name] for name in ("p50", "p90", "p99")}

    return {
        **_analyze_fields(cell_tracer),
        "scenario": "store-workload",
        "protocol": workload_config.protocol,
        "n_sites": workload_config.n_sites,
        "n_objects": workload_config.n_keys,
        "batch_size": workload_config.batch_size,
        "sessions": store.sessions,
        "updates": result.writes + result.deletes,
        "updates_deferred": store.ops_deferred,
        "reconciliations": store.reconciliations,
        "total_bits": store.total_bits,
        "traffic": store.totals.summary(),
        "bits_per_session": {
            "mean": sum(per_session) / len(per_session) if per_session else 0,
            "p50": ranked[len(ranked) // 2] if ranked else 0,
            "p90": ranked[min(len(ranked) - 1, (9 * len(ranked)) // 10)]
                   if ranked else 0,
            "max": ranked[-1] if ranked else 0,
        },
        "sim_completion_seconds": store.completion_time,
        "wall_seconds": wall_seconds,
        "max_queue_wait_seconds": store.max_queue_wait,
        "consistent": result.converged,
        "client": {
            "ops": result.ops,
            "reads": result.reads,
            "writes": result.writes,
            "deletes": result.deletes,
            "read_repairs": store.read_repairs,
            "sessions_abandoned": store.sessions_abandoned,
            "get_latency_seconds": _percentiles(
                result.latency_summary("get")),
            "put_latency_seconds": _percentiles(
                result.latency_summary("put")),
            "staleness_seconds": _percentiles(result.staleness_summary()),
        },
        **({"consistency": result.consistency}
           if result.consistency is not None else {}),
    }


def _run_multiregion_one(config: BenchConfig, *,
                         metrics: Optional[MetricsRegistry] = None,
                         monitor: bool = False,
                         analyze: bool = False) -> Dict[str, Any]:
    """One multi-region sharded cell (always SRV, always monitored).

    The fleet comes straight from ``config.topology`` via
    :func:`~repro.net.cluster.launch_cluster`: consistent-hash sharding
    at the spec's replication factor, epidemic push/pull dissemination
    among shard peers, chaos-faulted WAN links, and the deterministic
    two-phase closing sweep — so ``consistent`` asserts that every
    replica group converged under loss, not that it probably did.  The
    monitor rides along unconditionally (ignoring the ``monitor`` flag,
    which other cells use as an opt-in): the per-region scores and
    shard-load spread in ``health`` are the scenario's deliverable, and
    attaching it is deterministic, so the record is identical either
    way.
    """
    spec = config.topology
    if spec is None:  # pragma: no cover - the grid gates on the spec
        raise ReproError("multi-region cell needs a BenchConfig.topology")
    n_sites = spec.n_sites
    n_objects = config.mr_objects
    n_updates = max(1, round(n_sites * config.updates_per_site))
    cell_monitor = _make_monitor(True)
    cell_tracer = _make_tracer(analyze)
    runner = launch_cluster(
        spec, protocol="srv", n_objects=n_objects,
        batch_size=config.mr_batch_size,
        encoding=Encoding.for_system(n_sites, max(16, n_updates)),
        metrics=metrics, monitor=cell_monitor,
        tracer=cell_tracer)
    shards = runner.shards
    sessions = epidemic_schedule(
        spec, shards, rounds=config.mr_rounds, period=config.gossip_period,
        jitter=config.gossip_jitter, seed=config.seed)
    updates = sharded_update_schedule(
        spec, shards, n_updates=n_updates, interval=config.update_interval,
        seed=config.seed + 1)
    last = max([request.at for request in sessions]
               + [update.at for update in updates], default=0.0)
    sessions = list(sessions) + closing_sweep(shards, start=last + 500.0)
    start = time.perf_counter()
    with wall_timer(metrics, "bench.cluster.multiregion.wall_seconds"):
        result = runner.run(sessions, updates)
    wall_seconds = time.perf_counter() - start
    if config.paired:
        _assert_scheduling_independent(runner.sites, runner.config, result,
                                       shards=shards)
    per_session = result.per_session_bits()
    ranked = sorted(per_session)
    totals = result.totals
    return {
        **_monitor_fields(cell_monitor),
        **_analyze_fields(cell_tracer),
        "scenario": "multi-region-sharded",
        "protocol": "srv",
        "n_sites": n_sites,
        "n_objects": n_objects,
        "batch_size": config.mr_batch_size,
        "regions": len(spec.regions),
        "replication": spec.replication,
        "shard_groups": len(shards.groups()),
        "shard_load": shards.load_summary(),
        "loss_rate": spec.inter.loss,
        "chaos_seed": spec.chaos_seed,
        "sessions": result.sessions,
        "skipped_sessions": result.skipped_sessions,
        "updates": result.updates_applied,
        "updates_deferred": result.updates_deferred,
        "reconciliations": result.reconciliations,
        "total_bits": result.total_bits,
        "goodput_bits": totals.total_goodput_bits,
        "retransmitted_bits": totals.total_retransmitted_bits,
        "retries": totals.retries,
        "timeouts": totals.timeouts,
        "resumes": totals.resumes,
        "goodput_overhead_pct": (
            (result.total_bits - totals.total_goodput_bits)
            / totals.total_goodput_bits * 100
            if totals.total_goodput_bits else 0.0),
        "traffic": totals.summary(),
        "bits_per_session": {
            "mean": sum(per_session) / len(per_session) if per_session else 0,
            "p50": ranked[len(ranked) // 2] if ranked else 0,
            "p90": ranked[min(len(ranked) - 1, (9 * len(ranked)) // 10)]
                   if ranked else 0,
            "max": ranked[-1] if ranked else 0,
        },
        "sim_completion_seconds": result.completion_time,
        "wall_seconds": wall_seconds,
        "max_queue_wait_seconds": result.max_queue_wait,
        "consistent": result.consistent(),
    }


def _assert_scheduling_independent(sites: Sequence[str],
                                   cluster_config: ClusterConfig,
                                   result: ClusterResult, *,
                                   shards: Optional[ShardMap] = None
                                   ) -> None:
    """Concurrent and sequential execution must move identical bits."""
    sequential, _ = replay_sequential(sites, cluster_config, result.log,
                                      shards=shards)
    concurrent_bits = result.per_session_bits()
    sequential_bits = [r.stats.total_bits for r in sequential]
    if concurrent_bits != sequential_bits:
        mismatches = [i for i, (c, s) in
                      enumerate(zip(concurrent_bits, sequential_bits))
                      if c != s]
        raise ReproError(
            f"cluster scheduling changed traffic accounting: "
            f"{len(mismatches)} of {len(concurrent_bits)} sessions differ "
            f"(first at index {mismatches[0] if mismatches else '?'}) — "
            f"this falsifies the harness, not the workload")


#: One grid cell: ``("gossip", protocol, n_sites)``,
#: ``("batched", batch_size)``, ``("chaos", protocol, loss_rate)``,
#: ``("store",)``, or ``("multiregion",)``.
#: The grid order *is* the document's run order, whether cells run
#: serially or fan out across workers.
_BenchTask = Tuple[Any, ...]


def _task_grid(config: BenchConfig) -> List[_BenchTask]:
    tasks: List[_BenchTask] = [("gossip", protocol, n_sites)
                               for n_sites in config.site_counts
                               for protocol in config.protocols]
    tasks.extend(("batched", batch_size)
                 for batch_size in config.batched_sizes)
    tasks.extend(("chaos", protocol, loss)
                 for loss in config.chaos_loss_rates
                 for protocol in config.protocols)
    if config.store_ops > 0:
        tasks.append(("store",))
    if config.topology is not None and config.mr_objects > 0:
        tasks.append(("multiregion",))
    return tasks


def _run_task(task_and_config: Tuple[_BenchTask, BenchConfig, bool, bool]
              ) -> Tuple[Dict[str, Any], MetricsRegistry]:
    """Execute one grid cell with a private registry (pool-picklable).

    Every cell derives its schedules from ``config.seed`` alone — no
    state is shared between cells — so the record is identical whether
    the cell runs in the parent or in a pool worker.  ``monitor`` and
    ``analyze`` ride along as plain flags (not ``BenchConfig`` fields —
    the config is embedded in the document, and neither observation mode
    may move the default fingerprint); opted-in cells embed only the
    picklable digest.
    """
    task, config, monitor, analyze = task_and_config
    metrics = MetricsRegistry()
    if task[0] == "gossip":
        record = _run_one(task[1], task[2], config, metrics=metrics,
                          monitor=monitor, analyze=analyze)
    elif task[0] == "chaos":
        record = _run_chaos_one(task[1], task[2], config, metrics=metrics,
                                monitor=monitor, analyze=analyze)
    elif task[0] == "store":
        record = _run_store_one(config, metrics=metrics,
                                monitor=monitor, analyze=analyze)
    elif task[0] == "multiregion":
        record = _run_multiregion_one(config, metrics=metrics,
                                      monitor=monitor, analyze=analyze)
    else:
        record = _run_batched_one(task[1], config, metrics=metrics,
                                  monitor=monitor, analyze=analyze)
    return record, metrics


def _echo_record(echo: Any, record: Dict[str, Any]) -> None:
    regions = (f" regions={record['regions']} repl={record['replication']}"
               if "regions" in record else "")
    batch = (f" batch={record['batch_size']}×{record['n_objects']}obj"
             if "batch_size" in record else "")
    chaos = (f" loss={record['loss_rate']:g} "
             f"retrans={record['retransmitted_bits']}b"
             if "loss_rate" in record else "")
    client = (f" client-ops={record['client']['ops']} "
              f"repairs={record['client']['read_repairs']}"
              if "client" in record else "")
    echo(f"  {record['protocol']} n={record['n_sites']}{regions}"
         f"{batch}{chaos}{client}: "
         f"{record['sessions']} sessions, "
         f"{record['total_bits']} bits, "
         f"sim {record['sim_completion_seconds']:.2f}s, "
         f"wall {record['wall_seconds'] * 1000:.0f}ms")


def run_cluster_bench(config: BenchConfig = BenchConfig(), *,
                      metrics: Optional[MetricsRegistry] = None,
                      echo: Optional[Any] = None,
                      workers: int = 1,
                      monitor: bool = False,
                      analyze: bool = False,
                      created_unix: Optional[float] = None) -> Dict[str, Any]:
    """Run the full sweep; returns the (already validated) document.

    With ``workers > 1`` the grid cells fan out across a process pool;
    results are folded back in grid order and ``created_unix`` is stamped
    in the parent, so apart from the measured ``wall_seconds`` the
    document is identical to a serial run —
    :func:`bench_fingerprint` (which masks exactly those fields) must
    agree between the two, and the benchmark suite asserts it.  Each
    worker fills a private :class:`MetricsRegistry`, merged into
    ``metrics`` in the same order a serial run would have written it.

    ``monitor=True`` attaches a :class:`~repro.obs.monitor.ClusterMonitor`
    to every cell and embeds its digest (``invariant_violations`` count
    plus the ``health`` summary) in each record; the default ``False``
    leaves the document — and its fingerprint — exactly as before.  It is
    deliberately a call parameter, not a ``BenchConfig`` field: the
    config is serialized into the document, so a config knob would move
    the default fingerprint.

    ``analyze=True`` traces every cell and embeds the causal digest
    (``critical_path_seconds`` / ``critical_path_hops`` /
    ``critical_path_attribution`` from :mod:`repro.obs.causal`) in each
    record — the trajectory :mod:`repro.perf.history` tracks.  Like
    ``monitor`` it is a call parameter for the same fingerprint reason.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tasks = [(task, config, monitor, analyze) for task in _task_grid(config)]
    if workers > 1 and len(tasks) > 1:
        with multiprocessing.Pool(min(workers, len(tasks))) as pool:
            outcomes = pool.map(_run_task, tasks)
    else:
        outcomes = [_run_task(task) for task in tasks]
    runs: List[Dict[str, Any]] = []
    for record, task_metrics in outcomes:
        runs.append(record)
        if metrics is not None:
            metrics.merge(task_metrics)
        if echo is not None:
            _echo_record(echo, record)
    document = {
        "schema": SCHEMA_ID,
        "created_unix": time.time() if created_unix is None else created_unix,
        "config": asdict(config),
        "runs": runs,
    }
    errors = validate_bench(document)
    if errors:  # pragma: no cover - would be a driver bug
        raise ReproError(f"emitted an invalid bench document: {errors}")
    return document


def bench_fingerprint(document: Dict[str, Any]) -> str:
    """SHA-256 over the document minus its measurement-irrelevant fields.

    ``created_unix`` and each run's ``wall_seconds`` are host-time
    measurements; everything else is a pure function of the config.
    Two documents from the same workload — serial or parallel, today or
    next year — must fingerprint identically, and the comparator uses
    this to separate "the numbers moved" from "you re-ran it".  The
    retired ``config.backend`` key is dropped so documents written
    before it was removed still compare.
    """
    masked = dict(document)
    masked.pop("created_unix", None)
    if isinstance(masked.get("config"), dict):
        masked["config"] = {key: value
                            for key, value in masked["config"].items()
                            if key != "backend"}
    masked["runs"] = [{key: value for key, value in run.items()
                       if key != "wall_seconds"}
                      for run in document.get("runs", ())]
    canonical = json.dumps(masked, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_bench(document: Dict[str, Any], path: str = DEFAULT_OUTPUT) -> str:
    """Write the document as stable, diff-friendly JSON; returns ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def format_bench_table(document: Dict[str, Any]) -> str:
    """A human-readable summary of one document."""
    header = (f"{'protocol':10} {'n':>5} {'sessions':>8} {'bits':>12} "
              f"{'sim s':>9} {'wall ms':>9} {'recons':>7}")
    lines = [header, "-" * len(header)]
    for run in document["runs"]:
        lines.append(
            f"{run['protocol']:10} {run['n_sites']:>5} "
            f"{run['sessions']:>8} {run['total_bits']:>12} "
            f"{run['sim_completion_seconds']:>9.2f} "
            f"{run['wall_seconds'] * 1000:>9.1f} "
            f"{run['reconciliations']:>7}")
    return "\n".join(lines)


def bench_main(argv: List[str]) -> int:
    """``python -m repro bench [--sites CSV] [--workers N] ...``."""
    site_counts: Tuple[int, ...] = DEFAULT_SITE_COUNTS
    protocols: Tuple[str, ...] = ("brv", "crv", "srv")
    rounds = 3
    seed = 0
    out = DEFAULT_OUTPUT
    workers = 1
    profile = False
    monitor = False
    analyze = False
    profile_out = "bench.pstats"
    chaos_loss_rates: Tuple[float, ...] = BenchConfig().chaos_loss_rates
    chaos_seed = BenchConfig().chaos_seed
    store_ops = BenchConfig().store_ops
    topology: Optional[TopologySpec] = BenchConfig().topology

    def fail(message: str) -> int:
        print(message)
        print("usage: python -m repro bench [--sites 8,32,128] "
              "[--protocols brv,crv,srv] [--rounds N] [--seed N] "
              "[--workers N] [--profile] [--profile-out bench.pstats] "
              "[--chaos-loss 0.01,0.1] [--chaos-seed N] [--no-chaos] "
              "[--store-ops N] [--no-store] [--no-multiregion] "
              "[--monitor] [--analyze] [--out BENCH_cluster.json]")
        return 2

    index = 0
    while index < len(argv):
        argument = argv[index]
        if argument == "--profile":
            profile = True
            index += 1
        elif argument == "--monitor":
            monitor = True
            index += 1
        elif argument == "--analyze":
            analyze = True
            index += 1
        elif argument == "--no-chaos":
            chaos_loss_rates = ()
            index += 1
        elif argument == "--no-store":
            store_ops = 0
            index += 1
        elif argument == "--no-multiregion":
            topology = None
            index += 1
        elif argument in ("--sites", "--protocols", "--rounds", "--seed",
                          "--workers", "--profile-out", "--out",
                          "--chaos-loss", "--chaos-seed", "--store-ops"):
            if index + 1 >= len(argv):
                return fail(f"{argument} requires a value")
            value = argv[index + 1]
            if argument == "--sites":
                try:
                    site_counts = tuple(int(part)
                                        for part in value.split(","))
                except ValueError:
                    return fail(f"--sites expects integers, got {value!r}")
                if any(n < 2 for n in site_counts):
                    return fail("--sites values must be >= 2")
            elif argument == "--protocols":
                protocols = tuple(value.split(","))
                unknown = [p for p in protocols
                           if p not in ("brv", "crv", "srv")]
                if unknown:
                    return fail(f"unknown protocols: {', '.join(unknown)}")
            elif argument == "--rounds":
                try:
                    rounds = int(value)
                except ValueError:
                    return fail(f"--rounds expects an integer, got {value!r}")
            elif argument == "--seed":
                try:
                    seed = int(value)
                except ValueError:
                    return fail(f"--seed expects an integer, got {value!r}")
            elif argument == "--workers":
                try:
                    workers = int(value)
                except ValueError:
                    return fail(f"--workers expects an integer, "
                                f"got {value!r}")
                if workers < 1:
                    return fail("--workers must be >= 1")
            elif argument == "--profile-out":
                profile_out = value
            elif argument == "--chaos-loss":
                try:
                    chaos_loss_rates = tuple(float(part)
                                             for part in value.split(","))
                except ValueError:
                    return fail(f"--chaos-loss expects floats, got {value!r}")
                if any(not 0 <= rate <= 1 for rate in chaos_loss_rates):
                    return fail("--chaos-loss rates must be in [0, 1]")
            elif argument == "--chaos-seed":
                try:
                    chaos_seed = int(value)
                except ValueError:
                    return fail(f"--chaos-seed expects an integer, "
                                f"got {value!r}")
            elif argument == "--store-ops":
                try:
                    store_ops = int(value)
                except ValueError:
                    return fail(f"--store-ops expects an integer, "
                                f"got {value!r}")
                if store_ops < 0:
                    return fail("--store-ops must be >= 0")
            else:
                out = value
            index += 2
        else:
            return fail(f"unknown argument {argument!r}")
    config = BenchConfig(site_counts=site_counts, protocols=protocols,
                         rounds=rounds, seed=seed,
                         chaos_loss_rates=chaos_loss_rates,
                         chaos_seed=chaos_seed, store_ops=store_ops,
                         topology=topology)
    multiregion = ("off" if topology is None
                   else f"{len(topology.regions)}×"
                        f"{topology.regions[0].sites} sites")
    print(f"cluster bench: n ∈ {list(site_counts)}, "
          f"protocols {list(protocols)}, "
          f"{rounds} rounds, seed {seed}, "
          f"chaos loss {list(chaos_loss_rates)}, store ops {store_ops}, "
          f"multi-region {multiregion}")
    if profile:
        # Profiling a process pool attributes everything to pickling and
        # waiting; force the serial path so the numbers mean something.
        if workers > 1:
            print("profiling forces --workers 1")
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            document = run_cluster_bench(config, echo=print,
                                         monitor=monitor, analyze=analyze)
        finally:
            profiler.disable()
        profiler.dump_stats(profile_out)
    else:
        document = run_cluster_bench(config, echo=print, workers=workers,
                                     monitor=monitor, analyze=analyze)
    path = write_bench(document, out)
    print()
    print(format_bench_table(document))
    print(f"\nwrote {path} ({SCHEMA_ID})")
    print(f"fingerprint {bench_fingerprint(document)}")
    if profile:
        print(f"\nprofile written to {profile_out}; top 20 by cumulative "
              f"time:")
        stats = pstats.Stats(profile_out)
        stats.sort_stats("cumulative").print_stats(20)
    return 0
