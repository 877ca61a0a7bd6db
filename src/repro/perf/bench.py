"""The cluster-scale benchmark-regression driver.

Runs the paper's workload scenarios on the
:class:`~repro.net.cluster.ClusterRunner` at several fleet sizes and
records, per (protocol, n): total wire traffic and simulated
completion time.  The result is a ``BENCH_cluster.json`` document
(schema :mod:`repro.perf.schema`), a pure function of its config: no
host clock is read, so a serial run, a parallel run and a run next year
write the same bytes, and one :func:`bench_fingerprint` says so.  Host
time is measured by the ``bench/`` harness instead.

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

import argparse
import hashlib
import json
import multiprocessing
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.net.channel import ChannelSpec
from repro.net.cluster import (ClusterConfig, ClusterResult, ClusterRunner,
                               launch_cluster, replay_sequential)
from repro.net.faults import chaos_faults
from repro.net.stats import TransferStats
from repro.net.topology import LinkProfile, TopologySpec
from repro.net.wire import Encoding
from repro.obs.causal import analyze_tracer
from repro.obs.consistency import ConsistencyMonitor
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import ClusterMonitor, MonitorConfig
from repro.obs.trace import Tracer
from repro.perf.schema import PROTOCOLS, SCHEMA_ID, validate_bench
from repro.workload.clients import (StoreWorkloadConfig, StoreWorkloadResult,
                                    run_store_workload)
from repro.workload.cluster import (SessionRequest, UpdateRequest,
                                    gossip_schedule, site_names,
                                    update_schedule)
from repro.workload.epidemic import (closing_sweep, epidemic_schedule,
                                     sharded_update_schedule)

DEFAULT_OUTPUT = "BENCH_cluster.json"


def bench_topology(regions: int = 3, sites_per_region: int = 16, *,
                   loss: float = 0.01, replication: int = 3, seed: int = 0,
                   chaos_seed: int = 11) -> TopologySpec:
    """The multi-region fleet shape of the E13 cell.

    Fast clean LANs inside each region, joined by a slow WAN carrying
    the standard chaos mix at the nominal ``loss``, objects sharded
    ``replication``-way on the consistent-hash ring.  The defaults are
    the standing bench fleet: three regions of 16 sites, 1% WAN loss.
    """
    return TopologySpec.grid(
        regions, sites_per_region,
        intra=LinkProfile(latency=0.002, bandwidth=1_000_000.0),
        inter=LinkProfile(latency=0.04, bandwidth=250_000.0, loss=loss),
        replication=replication, seed=seed, chaos_seed=chaos_seed)


@dataclass(frozen=True)
class BenchConfig:
    """Knobs of one benchmark sweep (all deterministic given ``seed``)."""

    #: Fleet sizes of the standing regression trajectory.
    site_counts: Tuple[int, ...] = (8, 32, 128)
    protocols: Tuple[str, ...] = ("brv", "crv", "srv")
    rounds: int = 3
    updates_per_site: float = 2.0
    gossip_period: float = 1.0
    gossip_jitter: float = 0.2
    update_interval: float = 0.25
    latency: float = 0.005
    bandwidth: float = 1_000_000.0
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
    #: over a faulted channel (:func:`repro.net.faults.chaos_faults`
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
    topology: Optional[TopologySpec] = bench_topology()
    mr_objects: int = 512
    mr_rounds: int = 4
    mr_batch_size: int = 8


def _common_fields(protocol: str, n_sites: int, totals: TransferStats,
                   per_session_bits: List[int],
                   **measured: Any) -> Dict[str, Any]:
    """The record fields every cell carries, whatever kind of fleet ran
    it; ``measured`` holds the ones whose source differs per kind."""
    ranked = sorted(per_session_bits)
    return {
        "protocol": protocol,
        "n_sites": n_sites,
        **measured,
        "total_bits": totals.total_bits,
        "traffic": totals.summary(),
        "bits_per_session": {
            "mean": sum(ranked) / len(ranked) if ranked else 0,
            "p50": ranked[len(ranked) // 2] if ranked else 0,
            "p90": ranked[min(len(ranked) - 1, (9 * len(ranked)) // 10)]
                   if ranked else 0,
            "max": ranked[-1] if ranked else 0,
        },
    }


@dataclass
class Fleet:
    """A ready cluster cell: the runner and the schedules it will run.

    The one definition of each scenario's fleet — the bench records it,
    ``repro monitor`` and ``repro analyze --fleet`` watch the very same
    runner and schedules (adding only their converge sweep).
    """

    runner: ClusterRunner
    sessions: List[SessionRequest]
    updates: List[UpdateRequest]

    def run(self) -> ClusterResult:
        """Run the schedules to completion (one-shot, like the runner)."""
        return self.runner.run(self.sessions, self.updates)

    def replay(self, result: ClusterResult) -> None:
        """Concurrent and sequential execution must move identical bits."""
        runner = self.runner
        sequential, _ = replay_sequential(runner.sites, runner.config,
                                          result.log, shards=runner.shards)
        concurrent_bits = result.per_session_bits()
        sequential_bits = [r.stats.total_bits for r in sequential]
        if concurrent_bits != sequential_bits:
            mismatches = [i for i, (c, s) in
                          enumerate(zip(concurrent_bits, sequential_bits))
                          if c != s]
            raise ReproError(
                f"cluster scheduling changed traffic accounting: "
                f"{len(mismatches)} of {len(concurrent_bits)} sessions "
                f"differ (first at index "
                f"{mismatches[0] if mismatches else '?'}) — "
                f"this falsifies the harness, not the workload")

    def measure(self, result: ClusterResult) -> Dict[str, Any]:
        """The common record fields, plus the live-health digest when a
        monitor rode along (picklable either way)."""
        runner, monitor = self.runner, self.runner.monitor
        health = ({} if monitor is None else
                  {"invariant_violations": monitor.violation_count,
                   "health": monitor.health_summary()})
        return {**health, **_common_fields(
            runner.config.protocol, len(runner.sites), result.totals,
            result.per_session_bits(),
            sessions=result.sessions,
            updates=result.updates_applied,
            updates_deferred=result.updates_deferred,
            reconciliations=result.reconciliations,
            sim_completion_seconds=result.completion_time,
            max_queue_wait_seconds=result.max_queue_wait,
            consistent=result.consistent())}


@dataclass
class _StoreCell:
    """The store-workload cell: client traffic against the KV store.

    Per-key store sessions have no sequential-replay oracle, and the
    cluster health monitor's ancestor-closure check assumes whole-state
    sessions — so ``replay`` has nothing to assert and a monitored cell
    embeds the *consistency* observatory's digest instead.
    """

    workload: StoreWorkloadConfig
    observers: Dict[str, Any]

    def run(self) -> StoreWorkloadResult:
        return run_store_workload(self.workload, **self.observers)

    def replay(self, result: StoreWorkloadResult) -> None:
        pass

    def measure(self, result: StoreWorkloadResult) -> Dict[str, Any]:
        """``updates`` counts client writes, ``updates_deferred`` the ops
        parked behind a busy site, ``consistent`` per-key sibling-set
        convergence."""
        store = result.store
        digest = ({} if result.consistency is None
                  else {"consistency": result.consistency})
        return {**digest, **_common_fields(
            self.workload.protocol, self.workload.n_sites, store.totals,
            [record.result.stats.total_bits for record in store.records
             if record.result is not None],
            sessions=store.sessions,
            updates=result.writes + result.deletes,
            updates_deferred=store.ops_deferred,
            reconciliations=store.reconciliations,
            sim_completion_seconds=store.completion_time,
            max_queue_wait_seconds=store.max_queue_wait,
            consistent=result.converged)}


def _flat_fleet(config: BenchConfig, protocol: str, n_sites: int, *,
                loss: float = 0.0, n_objects: int = 1, batch_size: int = 1,
                header_bits: int = 0, stop_and_wait: bool = False,
                **observers: Any) -> Fleet:
    """The single-region fleet the gossip, batched and chaos cells share.

    Every session runs over one link model carrying the standard fault
    mix for the nominal ``loss`` — at 0 a perfect link, on which the
    fault spec is inert and the reliable ARQ transport never engages.
    """
    sites = site_names(n_sites)
    n_updates = max(1, round(n_sites * config.updates_per_site))
    cluster_config = ClusterConfig(
        protocol=protocol,
        channel=ChannelSpec(
            latency=config.latency, bandwidth=config.bandwidth,
            faults=chaos_faults(loss, latency=config.latency,
                                seed=config.chaos_seed)),
        encoding=replace(Encoding.for_system(n_sites, max(16, n_updates)),
                         session_header_bits=header_bits),
        stop_and_wait=stop_and_wait,
        n_objects=n_objects,
        batch_size=batch_size,
    )
    sessions = gossip_schedule(
        sites, rounds=config.rounds, period=config.gossip_period,
        jitter=config.gossip_jitter, seed=config.seed)
    # BRV cannot reconcile concurrent vectors (Algorithm 2's
    # precondition), so its fleet takes single-writer updates.
    writers = [sites[0]] if protocol == "brv" else None
    updates = update_schedule(
        sites, n_updates=n_updates, interval=config.update_interval,
        seed=config.seed + 1, writers=writers, n_objects=n_objects)
    return Fleet(ClusterRunner(sites, cluster_config, **observers),
                 sessions, updates)


def _batched_fleet(config: BenchConfig, batch_size: int,
                   **observers: Any) -> Fleet:
    """Always SRV, stop-and-wait, with a per-session header.

    That is the regime where framing pays: ``batch_size=1`` ships one
    header and one ack stream per object, larger sizes one header and
    one ack per frame.
    """
    return _flat_fleet(config, "srv", config.batched_site_count,
                       n_objects=config.batched_objects,
                       batch_size=batch_size,
                       header_bits=config.batched_header_bits,
                       stop_and_wait=True, **observers)


def _chaos_fleet(config: BenchConfig, protocol: str, loss: float,
                 **observers: Any) -> Fleet:
    """The batched fleet on a channel injecting the fault mix for ``loss``.

    The paired sequential replay applies here too — per-session injector
    seeds make even chaotic runs scheduling-independent.
    """
    return _flat_fleet(config, protocol, config.batched_site_count,
                       loss=loss, n_objects=config.batched_objects,
                       batch_size=config.chaos_batch_size, **observers)


def _multiregion_fleet(config: BenchConfig, protocol: str = "srv",
                       **observers: Any) -> Fleet:
    """The ``config.topology`` fleet via :func:`launch_cluster`.

    The closing sweep makes convergence structural — ``consistent``
    asserts that every replica group converged under loss, not that it
    probably did.
    """
    spec = config.topology
    if spec is None:  # pragma: no cover - the grid gates on the spec
        raise ReproError("multi-region cell needs a BenchConfig.topology")
    n_updates = max(1, round(spec.n_sites * config.updates_per_site))
    runner = launch_cluster(
        spec, protocol=protocol, n_objects=config.mr_objects,
        batch_size=config.mr_batch_size,
        encoding=Encoding.for_system(spec.n_sites, max(16, n_updates)),
        **observers)
    shards = runner.shards
    sessions = epidemic_schedule(
        spec, shards, rounds=config.mr_rounds, period=config.gossip_period,
        jitter=config.gossip_jitter, seed=config.seed)
    updates = sharded_update_schedule(
        spec, shards, n_updates=n_updates, interval=config.update_interval,
        leader_only=protocol == "brv", seed=config.seed + 1)
    last = max([request.at for request in sessions]
               + [update.at for update in updates], default=0.0)
    return Fleet(runner,
                 sessions + closing_sweep(shards, start=last + 500.0),
                 updates)


def _store_cell(config: BenchConfig, **observers: Any) -> _StoreCell:
    return _StoreCell(
        StoreWorkloadConfig(
            n_sites=config.store_site_count, n_keys=config.store_keys,
            n_clients=config.store_clients, ops=config.store_ops,
            read_ratio=config.store_read_ratio, zipf=config.store_zipf,
            net_latency=config.latency, bandwidth=config.bandwidth,
            seed=config.seed),
        observers)


def _batch_fields(fleet: Fleet) -> Dict[str, Any]:
    return {"n_objects": fleet.runner.config.n_objects,
            "batch_size": fleet.runner.config.batch_size}


def _goodput_fields(totals: TransferStats) -> Dict[str, Any]:
    """Goodput vs retransmitted bits and the ARQ counters."""
    return {
        "goodput_bits": totals.total_goodput_bits,
        "retransmitted_bits": totals.total_retransmitted_bits,
        "retries": totals.retries,
        "timeouts": totals.timeouts,
        "resumes": totals.resumes,
        "goodput_overhead_pct": (
            (totals.total_bits - totals.total_goodput_bits)
            / totals.total_goodput_bits * 100
            if totals.total_goodput_bits else 0.0),
    }


def _gossip_fields(config: BenchConfig, fleet: Fleet, result: ClusterResult,
                   protocol: str, n_sites: int) -> Dict[str, Any]:
    return {"scenario": ("single-writer-gossip" if protocol == "brv"
                         else "multi-writer-gossip")}


def _batched_fields(config: BenchConfig, fleet: Fleet, result: ClusterResult,
                    batch_size: int) -> Dict[str, Any]:
    synced_objects = result.sessions * config.batched_objects
    return {"scenario": "batched-many-objects",
            **_batch_fields(fleet),
            "wire_bits_per_object": (result.total_bits / synced_objects
                                     if synced_objects else 0.0)}


def _chaos_fields(config: BenchConfig, fleet: Fleet, result: ClusterResult,
                  protocol: str, loss: float) -> Dict[str, Any]:
    return {"scenario": "chaos-loss",
            **_batch_fields(fleet),
            "loss_rate": loss,
            "chaos_seed": config.chaos_seed,
            **_goodput_fields(result.totals)}


def _store_fields(config: BenchConfig, cell: _StoreCell,
                  result: StoreWorkloadResult) -> Dict[str, Any]:
    """The client-felt numbers: op mix, read-repair count, and exact
    latency/staleness percentiles."""
    def percentiles(summary: Dict[str, float]) -> Dict[str, float]:
        return {name: summary[name] for name in ("p50", "p90", "p99")}

    return {
        "scenario": "store-workload",
        "n_objects": cell.workload.n_keys,
        "batch_size": cell.workload.batch_size,
        "client": {
            "ops": result.ops,
            "reads": result.reads,
            "writes": result.writes,
            "deletes": result.deletes,
            "read_repairs": result.store.read_repairs,
            "sessions_abandoned": result.store.sessions_abandoned,
            "get_latency_seconds": percentiles(
                result.latency_summary("get")),
            "put_latency_seconds": percentiles(
                result.latency_summary("put")),
            "staleness_seconds": percentiles(result.staleness_summary()),
        },
    }


def _multiregion_fields(config: BenchConfig, fleet: Fleet,
                        result: ClusterResult) -> Dict[str, Any]:
    spec, shards = fleet.runner.topology, fleet.runner.shards
    return {"scenario": "multi-region-sharded",
            **_batch_fields(fleet),
            "regions": len(spec.regions),
            "replication": spec.replication,
            "shard_groups": len(shards.groups()),
            "shard_load": shards.load_summary(),
            "loss_rate": spec.inter.loss,
            "chaos_seed": spec.chaos_seed,
            "skipped_sessions": result.skipped_sessions,
            **_goodput_fields(result.totals)}


def _health_monitor(enabled: bool) -> Optional[ClusterMonitor]:
    """Bench cells run the monitor in counting mode: a violation must
    land in the document (where the comparator gate fails on it), not
    abort the sweep halfway through."""
    return ClusterMonitor(MonitorConfig(strict=False)) if enabled else None


@dataclass(frozen=True)
class Scenario:
    """One row of the cell table: only what is the scenario's own.

    Observer attachment and the paired replay live once, in
    :func:`_run_cell`; the common record fields and the
    ``bits_per_session`` block once, in :func:`_common_fields`.  A new
    scenario is a new row (plus its optional fields in
    :data:`repro.perf.schema.BENCH_SCHEMA`).
    """

    #: This scenario's cells — argument tuples, in document order.
    grid: Callable[[BenchConfig], List[Tuple[Any, ...]]]
    #: ``(config, *args, metrics=, monitor=, tracer=)`` → the ready cell.
    build: Callable[..., Any]
    #: ``(config, cell, result, *args)`` → the record fields only this
    #: scenario carries.
    fields: Callable[..., Dict[str, Any]]
    #: ``enabled → observer``: what ``--monitor`` attaches to the cell.
    monitor: Callable[[bool], Any] = _health_monitor


#: The grid order *is* the document's run order, whether cells run
#: serially or fan out across workers.
SCENARIOS: Dict[str, Scenario] = {
    "gossip": Scenario(
        grid=lambda config: [(protocol, n_sites)
                             for n_sites in config.site_counts
                             for protocol in config.protocols],
        build=_flat_fleet, fields=_gossip_fields),
    "batched": Scenario(
        grid=lambda config: [(size,) for size in config.batched_sizes],
        build=_batched_fleet, fields=_batched_fields),
    "chaos": Scenario(
        grid=lambda config: [(protocol, loss)
                             for loss in config.chaos_loss_rates
                             for protocol in config.protocols],
        build=_chaos_fleet, fields=_chaos_fields),
    "store": Scenario(
        grid=lambda config: [()] if config.store_ops > 0 else [],
        build=_store_cell, fields=_store_fields,
        monitor=lambda enabled: ConsistencyMonitor() if enabled else None),
    # The health digest (per-region scores, shard load) is this
    # scenario's deliverable, so the monitor rides along whether or not
    # the sweep opted in; attaching it is deterministic, so the record
    # is identical either way.
    "multiregion": Scenario(
        grid=lambda config: [()] if (config.topology is not None
                                     and config.mr_objects > 0) else [],
        build=_multiregion_fleet, fields=_multiregion_fields,
        monitor=lambda enabled: _health_monitor(True)),
}


def _analyze_fields(tracer: Optional[Tracer]) -> Dict[str, Any]:
    """The causal-analysis record fields an analyzed cell carries.

    The cell's full trace is reduced post-run to three picklable
    scalars/dicts: the convergence critical-path length in simulated
    seconds, its hop count, and its category attribution.
    """
    if tracer is None:
        return {}
    path = analyze_tracer(tracer).critical_path
    if path is None:
        return {"critical_path_seconds": 0.0, "critical_path_hops": 0,
                "critical_path_attribution": {}}
    return {"critical_path_seconds": path["elapsed"],
            "critical_path_hops": len(path["hops"]),
            "critical_path_attribution": path["attribution"]}


def _run_cell(name: str, args: Tuple[Any, ...], config: BenchConfig,
              monitor: bool = False, analyze: bool = False
              ) -> Tuple[Dict[str, Any], MetricsRegistry]:
    """Build, run, check and record one cell: the ``name`` row of
    :data:`SCENARIOS` at one of its ``grid`` arguments (pool-picklable).

    Every cell derives its schedules from ``config.seed`` alone and
    fills a private registry — no state is shared between cells — so the
    record is identical whether the cell runs in the parent or in a pool
    worker; observed cells embed only the picklable digest.
    """
    scenario = SCENARIOS[name]
    metrics = MetricsRegistry()
    tracer = Tracer() if analyze else None
    cell = scenario.build(config, *args, metrics=metrics,
                          monitor=scenario.monitor(monitor), tracer=tracer)
    result = cell.run()
    if config.paired:
        cell.replay(result)
    return {**_analyze_fields(tracer),
            **scenario.fields(config, cell, result, *args),
            **cell.measure(result)}, metrics


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
         f"sim {record['sim_completion_seconds']:.2f}s")


def run_cluster_bench(config: BenchConfig = BenchConfig(), *,
                      metrics: Optional[MetricsRegistry] = None,
                      echo: Optional[Any] = None,
                      workers: int = 1,
                      monitor: bool = False,
                      analyze: bool = False) -> Dict[str, Any]:
    """Run the full sweep; returns the (already validated) document.

    With ``workers > 1`` the grid cells fan out across a process pool;
    results are folded back in grid order, so the document is identical
    to a serial run's — the suite asserts it on the written bytes.  Each
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
    record.  Like ``monitor`` it is a call parameter for the same
    fingerprint reason.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tasks = [(name, args, config, monitor, analyze)
             for name, scenario in SCENARIOS.items()
             for args in scenario.grid(config)]
    if workers > 1 and len(tasks) > 1:
        with multiprocessing.Pool(min(workers, len(tasks))) as pool:
            outcomes = pool.starmap(_run_cell, tasks)
    else:
        outcomes = [_run_cell(*task) for task in tasks]
    runs: List[Dict[str, Any]] = []
    for record, task_metrics in outcomes:
        runs.append(record)
        if metrics is not None:
            metrics.merge(task_metrics)
        if echo is not None:
            _echo_record(echo, record)
    document = {
        "schema": SCHEMA_ID,
        "config": asdict(config),
        "runs": runs,
    }
    errors = validate_bench(document)
    if errors:  # pragma: no cover - would be a driver bug
        raise ReproError(f"emitted an invalid bench document: {errors}")
    return document


def bench_fingerprint(document: Dict[str, Any]) -> str:
    """SHA-256 over the whole canonical document.

    Every field is a pure function of the config, so two documents from
    the same workload — serial or parallel, today or next year —
    fingerprint identically, and any moved number changes the hash.
    """
    canonical = json.dumps(document, sort_keys=True)
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
              f"{'sim s':>9} {'recons':>7}")
    lines = [header, "-" * len(header)]
    for run in document["runs"]:
        lines.append(
            f"{run['protocol']:10} {run['n_sites']:>5} "
            f"{run['sessions']:>8} {run['total_bits']:>12} "
            f"{run['sim_completion_seconds']:>9.2f} "
            f"{run['reconciliations']:>7}")
    return "\n".join(lines)


def _csv(parse: Callable[[str], Any]) -> Callable[[str], Tuple[Any, ...]]:
    """An argparse ``type`` for comma-separated lists of ``parse``.

    A repeated value would emit runs that share one identity
    (:func:`repro.perf.schema.run_key`), so it is a usage error.
    """
    def parse_list(text: str) -> Tuple[Any, ...]:
        values = tuple(parse(part) for part in text.split(","))
        if len(set(values)) != len(values):
            raise argparse.ArgumentTypeError(f"repeated value in {text!r}")
        return values
    parse_list.__name__ = f"comma-separated {parse.__name__} list"
    return parse_list


def bench_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro bench [--sites CSV] [--workers N] ...``."""
    defaults = BenchConfig()
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Run the cluster benchmark sweep and write the "
                    "BENCH_cluster.json regression document.")
    parser.add_argument("--sites", type=_csv(int),
                        default=defaults.site_counts, metavar="N,N,...",
                        help="gossip fleet sizes (default: 8,32,128)")
    parser.add_argument("--protocols", type=_csv(str),
                        default=defaults.protocols, metavar="P,P,...",
                        help="protocols to sweep (default: brv,crv,srv)")
    parser.add_argument("--rounds", type=int, default=defaults.rounds,
                        help="gossip rounds (default: 3)")
    parser.add_argument("--seed", type=int, default=defaults.seed,
                        help="workload seed (default: 0)")
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool size (default: 1 = serial)")
    parser.add_argument("--chaos-loss", type=_csv(float),
                        default=defaults.chaos_loss_rates, metavar="F,F,...",
                        help="chaos-cell loss rates (default: 0.01,0.1)")
    parser.add_argument("--no-chaos", dest="chaos_loss",
                        action="store_const", const=(),
                        help="skip the chaos scenario")
    parser.add_argument("--chaos-seed", type=int,
                        default=defaults.chaos_seed,
                        help="fault-injection seed (default: 11)")
    parser.add_argument("--store-ops", type=int, default=defaults.store_ops,
                        help="client ops of the store cell (default: 2000)")
    parser.add_argument("--no-store", dest="store_ops",
                        action="store_const", const=0,
                        help="skip the store scenario")
    parser.add_argument("--no-multiregion", dest="topology",
                        action="store_const", const=None,
                        default=defaults.topology,
                        help="skip the multi-region scenario")
    parser.add_argument("--monitor", action="store_true",
                        help="embed each cell's health/consistency digest")
    parser.add_argument("--analyze", action="store_true",
                        help="embed each cell's causal critical path")
    parser.add_argument("--out", default=DEFAULT_OUTPUT, metavar="PATH",
                        help=f"output document (default: {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)
    if any(n < 2 for n in args.sites):
        parser.error("--sites values must be >= 2")
    unknown = [p for p in args.protocols if p not in PROTOCOLS]
    if unknown:
        parser.error(f"unknown protocols: {', '.join(unknown)}")
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if any(not 0 <= rate <= 1 for rate in args.chaos_loss):
        parser.error("--chaos-loss rates must be in [0, 1]")
    if args.store_ops < 0:
        parser.error("--store-ops must be >= 0")
    topology = args.topology
    config = BenchConfig(site_counts=args.sites, protocols=args.protocols,
                         rounds=args.rounds, seed=args.seed,
                         chaos_loss_rates=args.chaos_loss,
                         chaos_seed=args.chaos_seed,
                         store_ops=args.store_ops, topology=topology)
    multiregion = ("off" if topology is None
                   else f"{len(topology.regions)}×"
                        f"{topology.regions[0].sites} sites")
    print(f"cluster bench: n ∈ {list(config.site_counts)}, "
          f"protocols {list(config.protocols)}, "
          f"{config.rounds} rounds, seed {config.seed}, "
          f"chaos loss {list(config.chaos_loss_rates)}, "
          f"store ops {config.store_ops}, "
          f"multi-region {multiregion}")
    document = run_cluster_bench(config, echo=print, workers=args.workers,
                                 monitor=args.monitor, analyze=args.analyze)
    path = write_bench(document, args.out)
    print()
    print(format_bench_table(document))
    print(f"\nwrote {path} ({SCHEMA_ID})")
    print(f"fingerprint {bench_fingerprint(document)}")
    return 0
