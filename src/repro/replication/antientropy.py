"""Anti-entropy on simulated time: eventual consistency "in finite time".

§2.1 defines the system's goal: "all replicas of an object become
consistent in finite time after the last update on the object."  This
module closes the loop between the replication layer and the discrete-
event simulator: sites run periodic anti-entropy exchanges (with jitter,
over a pluggable topology) while updates arrive on a schedule, and the
simulation measures *when* consistency is actually reached after the last
update — alongside the metadata traffic each scheme spent getting there.

The loop keeps only its own *schedule*: jittered gossip timers, update
arrivals, partition windows and the convergence clock.  Pairs come from
the samplers of :mod:`repro.net.topology` and the clock binding from
:meth:`~repro.net.simulator.Simulator.stamping`, as everywhere else.
Sessions run under the instant driver (their message timing is
negligible against gossip periods), so one costs no simulated time,
never overlaps another and needs no session scheduler.  Experiment E9
sweeps gossip period and scheme on identical schedules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import ReproError, ValidationError
from repro.net.simulator import Simulator, to_ns, to_seconds
from repro.net.topology import PairSampler, RandomPairTopology
from repro.obs.metrics import MetricsRegistry, wall_timer
from repro.obs.trace import Tracer
from repro.replication.resolver import AutomaticResolution, union_merge
from repro.replication.statesystem import StateTransferSystem
from repro.workload.cluster import site_names


@dataclass
class AntiEntropyConfig:
    """Parameters of one anti-entropy simulation.

    Attributes:
        n_sites: fleet size.
        gossip_period: mean seconds between one site's exchanges.
        gossip_jitter: uniform ±fraction applied to each period.
        update_interval: mean seconds between updates (exponential).
        n_updates: total updates injected; the clock of interest starts at
            the last one.
        metadata: vector scheme for the underlying system.
        topology: partner selection (a :mod:`repro.net.topology` pair
            sampler); the *initiating* site is the pair's destination
            (it pulls, then pushes back).
        seed: RNG seed; the schedule is identical across schemes.
        object_id: the single replicated object under observation.
    """

    n_sites: int = 8
    gossip_period: float = 1.0
    gossip_jitter: float = 0.2
    update_interval: float = 0.7
    n_updates: int = 20
    metadata: str = "srv"
    topology: PairSampler = field(default_factory=RandomPairTopology)
    seed: int = 0
    object_id: str = "obj"
    max_time: float = 10_000.0
    #: "full" requires identical values *and* vectors; "values" requires
    #: identical values only (§2.1's semantic equivalence).  Perfectly
    #: symmetric deterministic schedules (e.g. a strict ring) can keep
    #: increment-on-merge waves circulating so that vectors never settle
    #: although values have long converged — a reproduction finding
    #: documented in EXPERIMENTS.md.
    convergence: str = "full"
    #: Network partitions as ``(start, end, left_sites)`` windows: while
    #: active, gossip pairs crossing the cut are dropped (the encounter
    #: simply doesn't happen).  Updates keep landing on both sides — the
    #: §1 availability story — and reconciliation absorbs the divergence
    #: once the partition heals.
    partitions: Tuple[Tuple[float, float, frozenset], ...] = ()

    def __post_init__(self) -> None:
        sites = set(site_names(self.n_sites))
        rules = {
            "n_sites >= 2": self.n_sites >= 2,
            "gossip_period > 0": self.gossip_period > 0,
            "0 <= gossip_jitter <= 1": 0 <= self.gossip_jitter <= 1,
            "update_interval > 0": self.update_interval > 0,
            "n_updates >= 0": self.n_updates >= 0,
            "0 < max_time < inf": 0 < self.max_time < float("inf"),
            "convergence is 'full' or 'values'":
                self.convergence in ("full", "values"),
            "partitions are (start, end, left_sites) windows with "
            "0 <= start < end over known sites": all(
                len(w) == 3 and 0 <= w[0] < w[1] and set(w[2]) <= sites
                for w in self.partitions),
        }
        broken = [rule for rule, holds in rules.items() if not holds]
        if broken:
            raise ValidationError(
                f"AntiEntropyConfig needs {'; '.join(broken)}")


@dataclass
class AntiEntropyResult:
    """What one simulation measured."""

    last_update_time: float
    convergence_time: float
    syncs_performed: int
    updates_applied: int
    metadata_bits: int
    payload_bits: int

    @property
    def convergence_latency(self) -> float:
        """Seconds from the last update to system-wide consistency."""
        return self.convergence_time - self.last_update_time


class AntiEntropySimulation:
    """Periodic gossip + scheduled updates over a state-transfer system.

    The schedule lives in :meth:`_run`.  What is specific to state
    transfer sits in the small methods above it (system construction,
    object creation, the update value, the consistency check, the error
    label), which :class:`OpAntiEntropySimulation` replaces.
    """

    def __init__(self, config: AntiEntropyConfig,
                 value_factory: Optional[Callable[[str, int], Any]] = None,
                 *, tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.config = config
        self.tracer = tracer
        self.metrics = metrics
        self.value_factory = value_factory or (
            lambda site, seq: frozenset({f"{site}#{seq}"}))
        self.system = self._build_system()
        self._sites = site_names(config.n_sites)

    def _build_system(self) -> Any:
        return StateTransferSystem(
            metadata=self.config.metadata,
            resolution=AutomaticResolution(union_merge),
            track_graph=False,
            tracer=self.tracer, metrics=self.metrics)

    def _create_object(self, site: str) -> None:
        self.system.create_object(site, self.config.object_id,
                                  self.value_factory(site, 0))

    def _update(self, site: str, seq: int) -> None:
        object_id = self.config.object_id
        replica = self.system.replica(site, object_id)
        self.system.update(site, object_id,
                           replica.value | self.value_factory(site, seq))

    def _is_consistent(self) -> bool:
        check = (self.system.is_consistent
                 if self.config.convergence == "full"
                 else self.system.values_consistent)
        return check(self.config.object_id)

    def _describe(self) -> str:
        return (f"scheme {self.config.metadata}, "
                f"period {self.config.gossip_period}")

    def run(self) -> AntiEntropyResult:
        """Execute the schedule; returns the measured result.

        Raises :class:`ReproError` if the fleet fails to converge before
        ``max_time`` — which would falsify eventual consistency for the
        configured scheme and is therefore a hard error, not a statistic.
        """
        sim = Simulator()
        # Sync-session spans and gossip events carry simulated time.
        with sim.stamping(self.tracer):
            return self._run(sim)

    def _run(self, sim: Simulator) -> AntiEntropyResult:
        config = self.config
        system = self.system
        tracer = self.tracer
        metrics = self.metrics
        rng = random.Random(config.seed)
        sites = self._sites
        object_id = config.object_id

        self._create_object(sites[0])
        for site in sites[1:]:
            system.clone_replica(sites[0], site, object_id)

        state = {
            "updates_left": config.n_updates,
            "last_update_time": 0.0,
            "converged_at": None,
            "syncs": 0,
            "seq": 0,
        }

        def schedule_update() -> None:
            delay = rng.expovariate(1.0 / config.update_interval)
            sim.call_after(to_ns(delay), apply_update)

        def apply_update() -> None:
            if state["updates_left"] <= 0:
                return
            site = rng.choice(sites)
            state["seq"] += 1
            self._update(site, state["seq"])
            state["updates_left"] -= 1
            state["last_update_time"] = to_seconds(sim.now)
            state["converged_at"] = None  # consistency must be re-reached
            if tracer is not None:
                tracer.event("update", party=site, seq=state["seq"])
            if metrics is not None:
                metrics.counter("antientropy.updates").inc()
            if state["updates_left"] > 0:
                schedule_update()

        def schedule_gossip() -> None:
            jitter = 1 + config.gossip_jitter * (2 * rng.random() - 1)
            sim.call_after(to_ns(config.gossip_period * jitter), gossip)

        def crosses_partition(src: str, dst: str) -> bool:
            return any(start <= to_seconds(sim.now) < end
                       and (src in left) != (dst in left)
                       for start, end, left in config.partitions)

        def gossip() -> None:
            if state["converged_at"] is not None and state["updates_left"] == 0:
                return  # done: let the event queue drain
            src, dst = config.topology.pair(rng, state["syncs"], sites)
            if crosses_partition(src, dst):
                schedule_gossip()  # encounter suppressed
                return
            system.sync_bidirectional(dst, src, object_id)
            state["syncs"] += 2
            if tracer is not None or metrics is not None:
                recent = system.outcomes[-2:]
                bits = sum(o.metadata_bits + o.payload_bits for o in recent)
                if tracer is not None:
                    tracer.event("gossip", party=dst, peer=src, bits=bits)
                if metrics is not None:
                    metrics.counter("antientropy.gossips").inc()
                    metrics.histogram(
                        "antientropy.bits_per_exchange").observe(bits)
            if (state["updates_left"] == 0
                    and state["converged_at"] is None
                    and self._is_consistent()):
                state["converged_at"] = to_seconds(sim.now)
                if tracer is not None:
                    tracer.event("converged", party=dst)
            schedule_gossip()

        for _ in sites:  # one gossip timer per site
            schedule_gossip()
        schedule_update()

        sim.run(until=to_ns(config.max_time))
        if state["converged_at"] is None:
            raise ReproError(
                f"no convergence within {config.max_time}s "
                f"({self._describe()})")
        if metrics is not None:
            metrics.histogram("antientropy.convergence_seconds").observe(
                state["converged_at"] - state["last_update_time"])
        return AntiEntropyResult(
            last_update_time=state["last_update_time"],
            convergence_time=state["converged_at"],
            syncs_performed=state["syncs"],
            updates_applied=config.n_updates,
            metadata_bits=sum(o.metadata_bits for o in system.outcomes),
            payload_bits=sum(o.payload_bits for o in system.outcomes),
        )


class OpAntiEntropySimulation(AntiEntropySimulation):
    """The operation-transfer counterpart: gossip over causal graphs.

    Same schedule (partition windows included) as
    :class:`AntiEntropySimulation`, but the underlying system logs
    operations and synchronizes with SYNCG (or the whole-graph baseline
    via ``use_syncg=False``).  Convergence means all replicas hold
    identical graphs, so only ``convergence="full"`` is defined; any
    other setting raises :class:`ReproError`.
    """

    def __init__(self, config: AntiEntropyConfig, *,
                 use_syncg: bool = True,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if config.convergence != "full":
            raise ReproError(
                f"operation transfer converges on identical graphs; "
                f"convergence={config.convergence!r} is not defined for it")
        self._use_syncg = use_syncg
        super().__init__(config, tracer=tracer, metrics=metrics)

    def _build_system(self) -> Any:
        from repro.replication.opsystem import OpTransferSystem
        return OpTransferSystem(use_syncg=self._use_syncg,
                                tracer=self.tracer, metrics=self.metrics)

    def _create_object(self, site: str) -> None:
        self.system.create_object(site, self.config.object_id)

    def _update(self, site: str, seq: int) -> None:
        self.system.update(site, self.config.object_id, f"{site}#{seq}")

    def _is_consistent(self) -> bool:
        return self.system.is_consistent(self.config.object_id)

    def _describe(self) -> str:
        return "op transfer"


def compare_schemes(config: AntiEntropyConfig,
                    schemes: Tuple[str, ...] = ("vv", "crv", "srv"),
                    *, metrics: Optional[MetricsRegistry] = None
                    ) -> List[Tuple[str, AntiEntropyResult]]:
    """Run the identical schedule under several metadata schemes.

    ``replace`` (not a field-by-field copy) derives each per-scheme
    config, so a field added to :class:`AntiEntropyConfig` can never be
    silently dropped here.  With ``metrics``, each scheme's wall-clock
    cost lands in an ``antientropy.compare.<scheme>.wall_seconds``
    histogram.
    """
    results = []
    for scheme in schemes:
        run_config = replace(config, metadata=scheme)
        with wall_timer(metrics, f"antientropy.compare.{scheme}.wall_seconds"):
            results.append((scheme, AntiEntropySimulation(run_config).run()))
    return results
