"""The five benchmark workloads, run through public entry points only.

Hard dependencies on the product (everything else in ``bench/`` resolves
names at run time and degrades to a warning):

* ``repro.workload.clients``: ``StoreWorkloadConfig``, ``run_store_workload``
  and the ``StoreWorkloadResult`` it returns;
* ``repro.net.cluster.launch_cluster`` and the ``ClusterRunner.run`` /
  ``ClusterResult`` behind it;
* ``repro.net.topology``: ``TopologySpec``, ``LinkProfile``;
  ``repro.net.wire.Encoding``;
* the schedule generators of ``repro.workload.cluster`` and
  ``repro.workload.epidemic`` (called through their modules, so the traced
  pass sees them).

None of them is a deprecated shim and none passes ``backend=``.

Every workload is a batch job on the host clock and fully deterministic on
the simulated clock for a given seed.  ``scale`` multiplies ops, rounds,
updates and (sharded) objects together; 1.0 is the size the issue was
profiled at, ``run.SCALES`` the sizes the benchmark contract's time cap
allows.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.net import cluster as net_cluster
from repro.net.topology import LinkProfile, TopologySpec
from repro.net.wire import Encoding
from repro.workload import clients
from repro.workload import cluster as schedules
from repro.workload import epidemic

#: Passed to ``StoreWorkloadConfig`` on top of the shared client mix.
STORE_SHAPES = {
    "store_hot": dict(n_keys=32, ops=50_000, read_ratio=0.9),
    "store_wide": dict(n_keys=1024, ops=30_000, read_ratio=0.9),
    "store_writes": dict(n_keys=64, ops=30_000, read_ratio=0.5),
}

NAMES = (*STORE_SHAPES, "fleet_gossip", "fleet_sharded_lossy")


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


@dataclass
class Prepared:
    """A workload set up and ready for its timed region."""

    run: Callable[[], Any]
    #: ``summarize(result)`` -> the pass record's simulated-clock part.
    summarize: Callable[[Any], Dict[str, Any]]


def prepare(name: str, seed: int, scale: float,
            observer: Optional[str] = None) -> Prepared:
    """Set ``name`` up for one pass (imports done, schedules generated).

    ``observer`` attaches one of the product's observers for the
    observer-overhead passes: ``consistency`` or ``tracer`` (store),
    ``monitor`` (fleet).
    """
    if name in STORE_SHAPES:
        return _prepare_store(name, seed, scale, observer)
    if name == "fleet_gossip":
        return _prepare_gossip(seed, scale, observer)
    if name == "fleet_sharded_lossy":
        return _prepare_sharded(seed, scale, observer)
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")


# ---------------------------------------------------------------------------
# Store workloads.
# ---------------------------------------------------------------------------


def _prepare_store(name: str, seed: int, scale: float,
                   observer: Optional[str]) -> Prepared:
    shape = dict(STORE_SHAPES[name])
    shape["ops"] = max(200, round(shape["ops"] * scale))
    # Open loop on the simulated clock: exponential arrivals, mean 2 ms,
    # 64 sticky clients over 8 sites (the config's defaults, spelled out).
    config = clients.StoreWorkloadConfig(
        n_sites=8, n_clients=64, op_interval=0.002, seed=seed, **shape)
    kwargs: Dict[str, Any] = {}
    if observer == "consistency":
        from repro.obs.consistency import ConsistencyConfig, ConsistencyMonitor
        kwargs["monitor"] = ConsistencyMonitor(ConsistencyConfig())
    elif observer == "tracer":
        from repro.obs.trace import Tracer
        kwargs["tracer"] = Tracer()
    elif observer is not None:
        raise ValueError(f"observer {observer!r} does not fit a store")

    def run() -> Any:
        return clients.run_store_workload(config, **kwargs)

    def summarize(result: Any) -> Dict[str, Any]:
        return _summarize_store(config, result)

    return Prepared(run=run, summarize=summarize)


def _summarize_store(config: Any, result: Any) -> Dict[str, Any]:
    store = result.store
    ops = config.ops
    sessions = store.sessions
    totals = store.totals
    bits = store.total_bits
    durations = [r.result.duration for r in store.records
                 if r.result is not None]
    launched = len(durations) + store.sessions_abandoned
    get, put = result.latency_summary("get"), result.latency_summary("put")
    staleness = result.staleness_summary()
    digest = result.digest()
    sibling_counts = [len(v) for v in store.sibling_sets().values()]
    failed = (ops - result.ops) + store.sessions_abandoned
    attempted = ops + sessions
    checks = {
        "converged": bool(result.converged),
        "all_ops_completed": result.ops == ops,
        "no_session_abandoned": store.sessions_abandoned == 0,
    }
    return {
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "fingerprint": f"{digest['state_sha256']}:{bits}",
        "samples": {"get": get["count"], "put": put["count"],
                    "sessions": len(durations)},
        # Fixed by the workload: the numerators of the throughput metrics.
        "work": {"client_ops": ops, "sessions": sessions},
        "metrics": {
            "wire_bits_per_op": bits / ops,
            "wire_bits_per_session": bits / sessions,
            "session_sim_ms_mean": mean(durations) * 1e3,
            "session_sim_ms_p99": percentile(durations, 99) * 1e3,
            "get_latency_ms_mean": get["mean"] * 1e3,
            "get_latency_ms_p90": get["p90"] * 1e3,
            "put_latency_ms_p90": put["p90"] * 1e3,
            "staleness_ms_p99": staleness["p99"] * 1e3,
            "immediate_share": 1 - store.ops_deferred / ops,
            "goodput_share": totals.total_goodput_bits / bits,
            "sim_completion_s": store.completion_time,
            "completed_share": 1 - failed / attempted,
        },
        "counts": {
            "workload.get_latency_ms_p50": get["p50"] * 1e3,
            "workload.get_latency_ms_p99": get["p99"] * 1e3,
            "workload.put_latency_ms_p99": put["p99"] * 1e3,
            "workload.session_sim_ms_p50": percentile(durations, 50) * 1e3,
            "store.cluster.sessions": sessions,
            "store.cluster.read_repairs": store.read_repairs,
            "store.cluster.ops_deferred": store.ops_deferred,
            "store.cluster.reconciliations": store.reconciliations,
            "store.cluster.sessions_abandoned": store.sessions_abandoned,
            "store.cluster.keys_per_session_mean":
                sum(len(r.keys) for r in store.records) / sessions,
            "store.cluster.max_queue_wait_sim_s": store.max_queue_wait,
            "store.kv.siblings_per_key_mean":
                sum(sibling_counts) / len(sibling_counts),
            "store.kv.siblings_per_key_max": max(sibling_counts),
            **_transport_counts(totals, launched),
        },
    }


def _transport_counts(totals: Any, launches: int) -> Dict[str, float]:
    """Counts every workload reads off its run's ``TransferStats``."""
    bits = totals.total_bits
    return {
        "net.runner.launches": launches,
        "net.runner.retries": totals.retries,
        "net.runner.timeouts": totals.timeouts,
        "net.runner.resumes": totals.resumes,
        "net.runner.retransmitted_bits": totals.total_retransmitted_bits,
        "net.runner.goodput_share": totals.total_goodput_bits / bits,
        "protocols.batch.frames": totals.frames,
        "protocols.batch.objects_per_frame_mean":
            totals.framed_objects / totals.frames if totals.frames else 0.0,
        "protocols.sync.messages": totals.total_messages,
        "protocols.sync.bits_per_message_mean": bits / totals.total_messages,
    }


# ---------------------------------------------------------------------------
# Fleet workloads.
# ---------------------------------------------------------------------------


def _prepare_gossip(seed: int, scale: float, observer: Optional[str]
                    ) -> Prepared:
    n_sites, n_objects = 128, 32
    rounds = max(1, round(8 * scale))
    n_updates = max(16, round(1024 * scale))
    # Injected link delay: 5 ms one way, 1 Mbit/s, no loss.
    spec = TopologySpec.single(n_sites, link=LinkProfile(0.005, 1e6))
    runner = net_cluster.launch_cluster(
        spec, protocol="srv", n_objects=n_objects, batch_size=8,
        encoding=Encoding.for_system(n_sites, 64),
        monitor=_fleet_monitor(observer))
    sites = runner.sites
    sessions = schedules.gossip_schedule(sites, rounds=rounds, seed=seed)
    # Multi-writer updates spread across the gossip rounds.
    updates = schedules.update_schedule(
        sites, n_updates=n_updates, interval=rounds / n_updates,
        n_objects=n_objects, seed=seed + 1)
    # An out-and-back ring sweep, one simulated second per hop, starting
    # 50 s after the last gossip request: S000's state reaches S127 having
    # absorbed everyone on the way out, and comes back to everyone on the
    # way in, so convergence is structural rather than probabilistic.
    at = max(request.at for request in sessions) + 50.0
    hops = [(i, i + 1) for i in range(n_sites - 1)]
    hops += [(j, i) for i, j in reversed(hops)]
    sweep = [schedules.SessionRequest(at=at + k, src=sites[a], dst=sites[b])
             for k, (a, b) in enumerate(hops)]
    return _prepared_fleet(runner, list(sessions) + sweep, updates,
                           lossy=False)


def _prepare_sharded(seed: int, scale: float, observer: Optional[str]
                     ) -> Prepared:
    rounds = max(1, round(4 * scale))
    n_updates = max(64, round(8000 * scale))
    n_objects = max(64, round(8192 * scale))
    # Injected link delays: 2 ms / 1 Mbit/s inside a region; 40 ms /
    # 250 kbit/s with the 1% chaos mix (drop, duplicate, reorder) between.
    spec = TopologySpec.grid(
        3, 128, intra=LinkProfile(0.002, 1e6),
        inter=LinkProfile(0.04, 250e3, loss=0.01),
        replication=3, chaos_seed=11)
    runner = net_cluster.launch_cluster(
        spec, protocol="srv", n_objects=n_objects, batch_size=8,
        encoding=Encoding.for_system(spec.n_sites, 64),
        monitor=_fleet_monitor(observer))
    shards = runner.shards
    sessions = epidemic.epidemic_schedule(spec, shards, rounds=rounds,
                                          seed=seed)
    updates = epidemic.sharded_update_schedule(
        spec, shards, n_updates=n_updates, seed=seed + 1)
    last = max([request.at for request in sessions]
               + [update.at for update in updates])
    sessions = list(sessions) + epidemic.closing_sweep(shards,
                                                       start=last + 500.0)
    return _prepared_fleet(runner, sessions, updates, lossy=True)


def _fleet_monitor(observer: Optional[str]) -> Any:
    if observer is None:
        return None
    if observer != "monitor":
        raise ValueError(f"observer {observer!r} does not fit a fleet")
    from repro.obs.monitor import ClusterMonitor, MonitorConfig
    return ClusterMonitor(MonitorConfig(strict=False))


def _prepared_fleet(runner: Any, sessions: List[Any], updates: List[Any],
                    *, lossy: bool) -> Prepared:
    def run() -> Any:
        return runner.run(sessions, updates)

    def summarize(result: Any) -> Dict[str, Any]:
        return _summarize_fleet(result, len(sessions), len(updates), lossy)

    return Prepared(run=run, summarize=summarize)


def _summarize_fleet(result: Any, scheduled: int, n_updates: int,
                     lossy: bool) -> Dict[str, Any]:
    totals = result.totals
    bits = result.total_bits
    records = [r for r in result.records if r.result is not None]
    durations = [r.result.duration for r in records]
    # A pull is the fleet's read and, for its source, a write-out: time
    # both from the request, so waiting behind a busy site counts.
    pull = [r.result.receiver_finish - r.requested_at for r in records]
    push = [r.result.sender_finish - r.requested_at for r in records]
    # Anti-entropy lag: how long the pulling replica had gone without
    # completing any session when this one started.
    lag, last_done = [], {}
    for r in records:
        lag.append(r.started_at - last_done.get(r.dst, 0.0))
        last_done[r.src] = last_done[r.dst] = r.result.completion_time
    failed = (n_updates - result.updates_applied) \
        + (scheduled - len(records) - result.skipped_sessions)
    attempted = n_updates + scheduled
    checks = {
        "consistent": bool(result.consistent()),
        "all_updates_applied": result.updates_applied == n_updates,
        "no_session_skipped": result.skipped_sessions == 0,
        "all_sessions_completed": len(records) == scheduled,
        "goodput_plus_retransmitted_is_total":
            totals.total_goodput_bits + totals.total_retransmitted_bits
            == bits,
    }
    if lossy:
        checks["loss_engaged_arq"] = totals.total_retransmitted_bits > 0
    return {
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "fingerprint": _fleet_fingerprint(result),
        "samples": {"get": len(pull), "put": len(push),
                    "sessions": len(records)},
        "work": {"client_ops": n_updates, "sessions": scheduled},
        "metrics": {
            "wire_bits_per_op": bits / n_updates,
            "wire_bits_per_session": bits / len(records),
            "session_sim_ms_mean": mean(durations) * 1e3,
            "session_sim_ms_p99": percentile(durations, 99) * 1e3,
            "get_latency_ms_mean": mean(pull) * 1e3,
            "get_latency_ms_p90": percentile(pull, 90) * 1e3,
            "put_latency_ms_p90": percentile(push, 90) * 1e3,
            "staleness_ms_p99": percentile(lag, 99) * 1e3,
            "immediate_share": 1 - result.updates_deferred / n_updates,
            "goodput_share": totals.total_goodput_bits / bits,
            "sim_completion_s": result.completion_time,
            "completed_share": 1 - failed / attempted,
        },
        "counts": {
            "workload.get_latency_ms_p50": percentile(pull, 50) * 1e3,
            "workload.get_latency_ms_p99": percentile(pull, 99) * 1e3,
            "workload.put_latency_ms_p99": percentile(push, 99) * 1e3,
            "workload.session_sim_ms_p50": percentile(durations, 50) * 1e3,
            "net.cluster.sessions": result.sessions,
            "net.cluster.updates_deferred": result.updates_deferred,
            "net.cluster.reconciliations": result.reconciliations,
            "net.cluster.skipped_sessions": result.skipped_sessions,
            "net.cluster.max_queue_wait_sim_s": result.max_queue_wait,
            **_transport_counts(totals, len(records)),
        },
    }


def _fleet_fingerprint(result: Any) -> str:
    digest = hashlib.sha256()
    digest.update(repr((result.total_bits, result.sessions,
                        round(result.completion_time, 9))).encode())
    for site in sorted(result.objects):
        held = result.objects[site]
        vectors = held.items() if isinstance(held, dict) \
            else enumerate(held)
        for obj, vector in sorted(vectors, key=lambda item: item[0]):
            digest.update(repr((site, obj,
                                sorted(vector.elements()))).encode())
    return digest.hexdigest()
