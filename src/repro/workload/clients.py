"""Client traffic for the replicated store: zipfian keys, sticky sessions.

The store's cluster scheduler (:mod:`repro.store.cluster`) executes
whatever it is handed; this module generates *client* traffic the way a
serving system sees it and measures what clients feel:

* **Zipfian key popularity** — key ranks get weight ``(rank+1)^-zipf``
  over a seed-derived hot-key permutation (the same idiom as the trace
  generator's hot-*site* permutation: which keys are hot varies per
  seed, deterministically).
* **Configurable read/write mix** — ``read_ratio`` of ops are gets,
  ``delete_ratio`` are deletes, the rest are puts.
* **Per-client session stickiness** — every client is pinned to one
  coordinator site for its whole life and threads the causal context of
  its last observed state into each write, the DVV client contract.

:func:`run_store_workload` pushes the generated ops through a
:class:`~repro.store.cluster.StoreCluster` interleaved with periodic
anti-entropy rounds, appends a deterministic convergence sweep, and
reports end-to-end **latency** (queue wait at a busy coordinator plus
the client↔site round trip) and **staleness** (how far behind the
globally newest write the read replica was) as exact percentiles
through the standard :class:`~repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from itertools import accumulate
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.errors import ValidationError
from repro.net.channel import ChannelSpec
from repro.net.faults import RetryPolicy, chaos_faults
from repro.net.simulator import to_ns, to_seconds
from repro.net.topology import select_peer
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.store.cluster import (ClientOp, StoreCluster, StoreConfig,
                                 StoreRunResult, gossip_peers)
from repro.workload.cluster import site_names

if TYPE_CHECKING:
    from repro.obs.consistency import ConsistencyMonitor


@dataclass(frozen=True)
class StoreWorkloadConfig:
    """Parameters of one client workload against a store fleet.

    Construction validates every field and raises
    :class:`~repro.errors.ValidationError` on nonsense, matching the
    ``ChannelSpec``/``WorkloadConfig`` style.
    """

    n_sites: int = 8
    n_keys: int = 32
    n_clients: int = 64
    ops: int = 10_000
    read_ratio: float = 0.9
    delete_ratio: float = 0.02
    zipf: float = 1.1
    #: Mean client-op inter-arrival time (exponential), seconds.
    op_interval: float = 0.002
    #: Anti-entropy round period, seconds.
    sync_period: float = 1.0
    protocol: str = "srv"
    batch_size: int = 8
    #: Nominal chaos loss rate on the inter-site links (0 = perfect).
    loss_rate: float = 0.0
    chaos_seed: int = 0
    net_latency: float = 0.01
    bandwidth: float = 1_000_000.0
    client_latency: float = 0.002
    read_repair: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_sites < 2:
            raise ValidationError(
                f"store workloads need at least two sites, "
                f"got {self.n_sites}")
        if self.n_keys < 1:
            raise ValidationError(f"n_keys must be >= 1, got {self.n_keys}")
        if self.n_clients < 1:
            raise ValidationError(
                f"n_clients must be >= 1, got {self.n_clients}")
        if self.ops < 0:
            raise ValidationError(f"ops must be >= 0, got {self.ops}")
        for name in ("read_ratio", "delete_ratio", "loss_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(
                    f"{name} must be in [0, 1], got {value}")
        if self.read_ratio + self.delete_ratio > 1.0:
            raise ValidationError(
                f"read_ratio + delete_ratio must be <= 1, got "
                f"{self.read_ratio} + {self.delete_ratio}")
        # NaN slips past every comparison and inf breaks generation, so
        # the float knobs must be finite before their ranges are checked.
        for name in ("zipf", "op_interval", "sync_period"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        if self.zipf < 0:
            raise ValidationError(f"zipf must be >= 0, got {self.zipf}")
        if self.op_interval <= 0:
            raise ValidationError(
                f"op_interval must be > 0, got {self.op_interval}")
        if self.sync_period <= 0:
            raise ValidationError(
                f"sync_period must be > 0, got {self.sync_period}")
        for name in ("net_latency", "client_latency"):
            value = getattr(self, name)
            if not value >= 0:
                raise ValidationError(f"{name} must be >= 0, got {value}")
        if not self.bandwidth > 0:
            raise ValidationError(
                f"bandwidth must be > 0, got {self.bandwidth}")

    def key_names(self) -> List[str]:
        """The zero-padded key namespace this workload addresses."""
        width = max(2, len(str(self.n_keys - 1)))
        return [f"key{i:0{width}d}" for i in range(self.n_keys)]


def hot_key_order(keys: List[str], seed: int) -> List[str]:
    """Seed-derived hot-key permutation (private stream, like hot sites)."""
    order = list(keys)
    random.Random(f"store-hot-keys:{seed}").shuffle(order)
    return order


@dataclass(frozen=True)
class PlannedOp:
    """One generated client op, before execution."""

    at: float
    client: int
    site: str
    kind: str
    key: str
    value: Optional[str]
    repair_peer: Optional[str]


def generate_client_ops(config: StoreWorkloadConfig) -> List[PlannedOp]:
    """Expand the config into a deterministic client-op list."""
    rng = random.Random(f"store-workload:{config.seed}")
    sites = site_names(config.n_sites)
    keys = hot_key_order(config.key_names(), config.seed)
    # The cumulative table is built once per plan: handing ``choices``
    # plain weights would re-accumulate all ``n_keys`` of them on every
    # draw.  The single random() + bisect draw is the same either way.
    cum_weights = list(accumulate(
        (rank + 1) ** -config.zipf for rank in range(len(keys))))
    # Sticky sessions: every client is pinned to one coordinator site.
    client_site = [rng.choice(sites) for _ in range(config.n_clients)]
    plan: List[PlannedOp] = []
    clock = 0.0
    for index in range(config.ops):
        clock += rng.expovariate(1.0 / config.op_interval)
        client = rng.randrange(config.n_clients)
        site = client_site[client]
        key = rng.choices(keys, cum_weights=cum_weights, k=1)[0]
        draw = rng.random()
        peer = select_peer(rng, site, sites)
        if draw < config.read_ratio:
            plan.append(PlannedOp(at=clock, client=client, site=site,
                                  kind="get", key=key, value=None,
                                  repair_peer=peer))
        elif draw < config.read_ratio + config.delete_ratio:
            plan.append(PlannedOp(at=clock, client=client, site=site,
                                  kind="delete", key=key, value=None,
                                  repair_peer=None))
        else:
            plan.append(PlannedOp(at=clock, client=client, site=site,
                                  kind="put", key=key,
                                  value=f"{key}@c{client:03d}#{index}",
                                  repair_peer=None))
    return plan


@dataclass
class StoreWorkloadResult:
    """Everything one workload run measured."""

    config: StoreWorkloadConfig
    store: StoreRunResult
    metrics: MetricsRegistry
    reads: int
    writes: int
    deletes: int
    converged: bool
    #: The consistency observatory's schema-validated digest
    #: (:meth:`~repro.obs.consistency.ConsistencyMonitor.summary`);
    #: ``None`` on unmonitored runs.
    consistency: Optional[Dict[str, Any]] = None

    @property
    def ops(self) -> int:
        return self.reads + self.writes + self.deletes

    def latency_summary(self, kind: str) -> Dict[str, float]:
        """Percentile summary of ``get``/``put`` end-to-end latency."""
        return self.metrics.histogram(
            f"store.{kind}_latency_seconds").summary()

    def staleness_summary(self) -> Dict[str, float]:
        """Percentile summary of read staleness (seconds behind newest)."""
        return self.metrics.histogram("store.staleness_seconds").summary()

    def digest(self) -> Dict[str, Any]:
        """A deterministic run digest: same config + seed ⇒ same dict.

        Contains no wall-clock quantity, so two runs of one seed must
        produce byte-identical digests — the CLI demo and the CI smoke
        job rely on it.
        """
        get_summary = self.latency_summary("get")
        put_summary = self.latency_summary("put")
        staleness_summary = self.staleness_summary()
        sets = self.store.sibling_sets()
        state = hashlib.sha256(
            repr(sorted((key, tuple(map(str, value)))
                        for key, value in sets.items())).encode()
        ).hexdigest()
        return {
            "ops": self.ops,
            "reads": self.reads,
            "writes": self.writes,
            "deletes": self.deletes,
            "ops_deferred": self.store.ops_deferred,
            "sessions": self.store.sessions,
            "sessions_abandoned": self.store.sessions_abandoned,
            "read_repairs": self.store.read_repairs,
            "reconciliations": self.store.reconciliations,
            "keys_streamed": self.store.keys_streamed,
            "keys_useful": self.store.keys_useful,
            "advert_bits": self.store.advert_bits,
            "total_bits": self.store.total_bits,
            "sim_completion_seconds": round(self.store.completion_time, 9),
            "converged": self.converged,
            "state_sha256": state,
            "get_latency_p50": round(get_summary["p50"], 9),
            "get_latency_p99": round(get_summary["p99"], 9),
            "put_latency_p50": round(put_summary["p50"], 9),
            "put_latency_p99": round(put_summary["p99"], 9),
            "staleness_p50": round(staleness_summary["p50"], 9),
            "staleness_p99": round(staleness_summary["p99"], 9),
        }


def build_store_cluster(config: StoreWorkloadConfig, *,
                        tracer: Optional[Tracer] = None,
                        metrics: Optional[MetricsRegistry] = None,
                        monitor: Optional[ConsistencyMonitor] = None
                        ) -> StoreCluster:
    """The cluster a workload runs against (exposed for tests/benches)."""
    faults = (chaos_faults(config.loss_rate, latency=config.net_latency,
                           seed=config.chaos_seed)
              if config.loss_rate > 0 else None)
    channel = (ChannelSpec(latency=config.net_latency,
                           bandwidth=config.bandwidth, faults=faults)
               if faults is not None else
               ChannelSpec(latency=config.net_latency,
                           bandwidth=config.bandwidth))
    store_config = StoreConfig(
        protocol=config.protocol, channel=channel,
        batch_size=config.batch_size, client_latency=config.client_latency,
        read_repair=config.read_repair,
        retry=RetryPolicy(seed=config.chaos_seed))
    return StoreCluster(site_names(config.n_sites), store_config,
                        tracer=tracer, metrics=metrics, monitor=monitor)


def run_store_workload(config: StoreWorkloadConfig, *,
                       tracer: Optional[Tracer] = None,
                       metrics: Optional[MetricsRegistry] = None,
                       monitor: Optional[ConsistencyMonitor] = None
                       ) -> StoreWorkloadResult:
    """Run the full client workload to convergence; returns the result.

    The schedule interleaves client ops with periodic anti-entropy
    rounds; once every op has landed, a deterministic star sweep closes
    convergence (identical per-key sibling sets on every site, asserted
    by ``result.converged``).

    With a :class:`~repro.obs.consistency.ConsistencyMonitor` the run is
    additionally observed — divergence gauges, visibility watermarks,
    and the session-guarantee audit fed from each client's completion
    stream — and ``result.consistency`` carries the digest.  The
    simulated schedule is untouched either way: a ``monitor=None`` run
    is byte-identical to the unmonitored path.
    """
    metrics = metrics if metrics is not None else MetricsRegistry()
    cluster = build_store_cluster(config, tracer=tracer, metrics=metrics,
                                  monitor=monitor)
    sites = cluster.sites
    plan = generate_client_ops(config)
    horizon = plan[-1].at if plan else 0.0
    rounds = int(horizon / config.sync_period) + 1
    for round_no, src, dst in gossip_peers(sites, rounds=rounds,
                                           seed=config.seed):
        cluster.sim.call_at(
            to_ns((round_no + 1) * config.sync_period),
            lambda s=src, d=dst: cluster.request_sync(s, d))

    #: client → key → causal context of the last observed state.
    contexts: Dict[Tuple[int, str], Dict[str, int]] = {}
    #: key → executed ns of the globally newest put/delete.
    latest_write: Dict[str, int] = {}
    counts = {"get": 0, "put": 0, "delete": 0}

    def complete(planned: PlannedOp, outcome: Any) -> None:
        # Submitted at its planned time: the wait is the server's share.
        latency = outcome.queue_wait + 2 * config.client_latency
        counts[planned.kind] += 1
        contexts[(planned.client, planned.key)] = outcome.result.context
        if monitor is not None:
            monitor.audit_op(planned.client, planned.kind, planned.key,
                             outcome.result, outcome.executed_at)
        if planned.kind == "get":
            metrics.histogram("store.get_latency_seconds").observe(latency)
            behind = (latest_write.get(planned.key, 0)
                      - to_ns(outcome.result.as_of))
            metrics.histogram("store.staleness_seconds").observe(
                to_seconds(max(0, behind)))
        else:
            metrics.histogram("store.put_latency_seconds").observe(latency)
            latest_write[planned.key] = max(
                latest_write.get(planned.key, 0),
                to_ns(outcome.executed_at))

    def dispatch(planned: PlannedOp) -> None:
        cluster.submit(
            ClientOp(kind=planned.kind, site=planned.site, key=planned.key,
                     value=planned.value,
                     context=contexts.get((planned.client, planned.key)),
                     repair_peer=planned.repair_peer,
                     client=planned.client),
            on_done=lambda outcome, p=planned: complete(p, outcome))

    for planned in plan:
        cluster.sim.call_at(to_ns(planned.at), lambda p=planned: dispatch(p))

    store_result = cluster.run(converge_via=sites[0])
    return StoreWorkloadResult(
        config=config, store=store_result, metrics=metrics,
        reads=counts["get"], writes=counts["put"], deletes=counts["delete"],
        converged=store_result.converged(),
        consistency=monitor.summary() if monitor is not None else None)
