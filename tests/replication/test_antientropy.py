"""Tests for the anti-entropy simulation (§2.1's eventual consistency)."""

import hashlib

import pytest

from repro.errors import ReproError
from repro.net.topology import RingTopology
from repro.replication.antientropy import (AntiEntropyConfig,
                                           AntiEntropySimulation,
                                           OpAntiEntropySimulation,
                                           compare_schemes)


def small_config(**overrides):
    defaults = dict(n_sites=5, gossip_period=1.0, update_interval=0.5,
                    n_updates=10, seed=3)
    defaults.update(overrides)
    return AntiEntropyConfig(**defaults)


class TestConvergence:
    def test_converges_and_reports_latency(self):
        result = AntiEntropySimulation(small_config()).run()
        assert result.convergence_time >= result.last_update_time
        assert result.convergence_latency >= 0
        assert result.updates_applied == 10
        assert result.syncs_performed > 0
        assert result.metadata_bits > 0

    def test_system_really_is_consistent_afterwards(self):
        simulation = AntiEntropySimulation(small_config())
        simulation.run()
        assert simulation.system.is_consistent("obj")

    def test_deterministic_given_seed(self):
        first = AntiEntropySimulation(small_config(seed=9)).run()
        second = AntiEntropySimulation(small_config(seed=9)).run()
        assert first.convergence_time == second.convergence_time
        assert first.metadata_bits == second.metadata_bits

    def test_different_seeds_differ(self):
        first = AntiEntropySimulation(small_config(seed=1)).run()
        second = AntiEntropySimulation(small_config(seed=2)).run()
        assert (first.convergence_time != second.convergence_time
                or first.metadata_bits != second.metadata_bits)

    def test_faster_gossip_converges_sooner(self):
        slow = AntiEntropySimulation(
            small_config(gossip_period=4.0, seed=5)).run()
        fast = AntiEntropySimulation(
            small_config(gossip_period=0.5, seed=5)).run()
        assert fast.convergence_latency < slow.convergence_latency

    def test_ring_topology_values_converge(self):
        result = AntiEntropySimulation(
            small_config(topology=RingTopology(),
                         convergence="values")).run()
        assert result.convergence_latency >= 0

    def test_timeout_raises(self):
        with pytest.raises(ReproError, match="convergence"):
            AntiEntropySimulation(
                small_config(gossip_period=50.0, max_time=10.0)).run()


class TestIncrementOscillation:
    """A reproduction finding: increment-on-merge under symmetric gossip.

    The §2.2 post-reconciliation increment is itself a new update.  Under
    a perfectly symmetric deterministic schedule (a strict ring) two
    reconciliation waves circulate forever: every merge's increment is
    concurrent with the one two positions ahead, so *vectors* never settle
    although *values* converge almost immediately.  Jittered random gossip
    breaks the symmetry and the waves die out.
    """

    def test_ring_values_converge_but_vectors_oscillate(self):
        with pytest.raises(ReproError, match="convergence"):
            AntiEntropySimulation(
                small_config(topology=RingTopology(), convergence="full",
                             max_time=200.0)).run()
        values = AntiEntropySimulation(
            small_config(topology=RingTopology(),
                         convergence="values")).run()
        assert values.convergence_latency < 60.0

    def test_random_gossip_settles_fully(self):
        result = AntiEntropySimulation(small_config(seed=4)).run()
        assert result.convergence_latency >= 0  # full consistency reached

    def test_oscillation_keeps_incrementing_vectors(self):
        simulation = AntiEntropySimulation(
            small_config(topology=RingTopology(), convergence="values"))
        simulation.run()
        # Keep gossiping past value convergence: counters keep growing.
        system = simulation.system
        sites = [f"S{i:03d}" for i in range(5)]
        totals_before = sum(
            sum(r.values_snapshot().values())
            for r in system.replicas_of("obj"))
        for step in range(40):
            src = sites[(step - 1) % 5]
            dst = sites[step % 5]
            system.sync_bidirectional(dst, src, "obj")
        totals_after = sum(
            sum(r.values_snapshot().values())
            for r in system.replicas_of("obj"))
        assert totals_after > totals_before
        assert system.values_consistent("obj")


class TestPartitions:
    """§1's availability: updates continue through a partition; the
    divergence reconciles after it heals."""

    def left_half(self):
        return frozenset({"S000", "S001"})

    def test_convergence_waits_for_the_heal(self):
        partitioned = AntiEntropySimulation(small_config(
            seed=8, update_interval=0.2, n_updates=15,
            partitions=((0.0, 30.0, self.left_half()),))).run()
        smooth = AntiEntropySimulation(small_config(
            seed=8, update_interval=0.2, n_updates=15)).run()
        # Updates landed on both sides of the cut (same schedule), so the
        # fleet can only converge after the 30 s heal.
        assert partitioned.convergence_time >= 30.0
        assert partitioned.convergence_time > smooth.convergence_time

    def test_updates_succeed_during_partition(self):
        simulation = AntiEntropySimulation(small_config(
            seed=8, update_interval=0.2, n_updates=15,
            partitions=((0.0, 30.0, self.left_half()),)))
        result = simulation.run()
        assert result.updates_applied == 15  # none were blocked
        assert simulation.system.is_consistent("obj")

    def test_all_updates_survive_reconciliation(self):
        simulation = AntiEntropySimulation(small_config(
            seed=8, update_interval=0.2, n_updates=15,
            partitions=((0.0, 30.0, self.left_half()),)))
        simulation.run()
        final = simulation.system.replica("S000", "obj").value
        # Union-merge reconciliation: every injected value survives.
        injected = {item for item in final if "#" in item}
        assert len(injected) == 15 + 1  # updates + the creation value

    def test_partition_window_expires(self):
        config = small_config(
            seed=8, partitions=((0.0, 5.0, self.left_half()),))
        result = AntiEntropySimulation(config).run()
        assert result.convergence_latency >= 0


class TestOpTransferAntiEntropy:
    def test_op_fleet_converges(self):
        from repro.replication.antientropy import OpAntiEntropySimulation
        simulation = OpAntiEntropySimulation(small_config(seed=6))
        result = simulation.run()
        assert result.convergence_latency >= 0
        assert simulation.system.is_consistent("obj")
        states = {r.site: simulation.system.state(r.site, "obj")
                  for r in simulation.system.replicas_of("obj")}
        assert len(set(states.values())) == 1

    def test_syncg_spends_less_than_full_graph_on_same_schedule(self):
        from repro.replication.antientropy import OpAntiEntropySimulation
        incremental = OpAntiEntropySimulation(small_config(seed=6),
                                              use_syncg=True).run()
        baseline = OpAntiEntropySimulation(small_config(seed=6),
                                           use_syncg=False).run()
        assert incremental.convergence_time == baseline.convergence_time
        assert incremental.metadata_bits < baseline.metadata_bits
        assert incremental.payload_bits == baseline.payload_bits

    def test_timeout_raises(self):
        from repro.replication.antientropy import OpAntiEntropySimulation
        with pytest.raises(ReproError, match="convergence"):
            OpAntiEntropySimulation(
                small_config(gossip_period=50.0, max_time=10.0)).run()

    def test_no_sync_crosses_an_active_cut(self):
        # Regression: the op-transfer loop ignored config.partitions.
        from repro.obs.trace import Tracer
        from repro.replication.antientropy import OpAntiEntropySimulation
        left = frozenset({"S000", "S001"})
        tracer = Tracer()
        result = OpAntiEntropySimulation(
            small_config(seed=8, update_interval=0.2, n_updates=15,
                         partitions=((0.0, 30.0, left),)),
            tracer=tracer).run()
        gossips = [e for e in tracer.events if e.kind == "gossip"]
        during = [e for e in gossips if e.time < 30.0]
        assert during and len(during) < len(gossips)
        assert all((e.party in left) == (e.fields["peer"] in left)
                   for e in during)
        # Updates landed on both sides, so graphs agree only after the heal.
        assert result.convergence_time >= 30.0

    def test_values_convergence_is_rejected_not_ignored(self):
        from repro.replication.antientropy import OpAntiEntropySimulation
        with pytest.raises(ReproError, match="convergence='values'"):
            OpAntiEntropySimulation(small_config(convergence="values"))


class TestSchemeComparison:
    def test_identical_schedule_across_schemes(self):
        results = dict(compare_schemes(small_config(seed=11)))
        assert set(results) == {"vv", "crv", "srv"}
        # The schedule — hence convergence behavior — is scheme-independent.
        times = {r.convergence_time for r in results.values()}
        assert len(times) == 1
        syncs = {r.syncs_performed for r in results.values()}
        assert len(syncs) == 1

    def test_only_metadata_traffic_differs(self):
        results = dict(compare_schemes(small_config(seed=11)))
        payloads = {r.payload_bits for r in results.values()}
        assert len(payloads) == 1  # same values moved
        bits = {scheme: r.metadata_bits for scheme, r in results.items()}
        assert len(set(bits.values())) > 1  # schemes priced differently


LEFT = frozenset({"S000", "S001"})


class TestSeededMatrix:
    """The loop's results over four seeds, pinned per configuration.

    The digests cover convergence times, sync counts and both bit
    totals, so any drift in the pair samplers, the shared jitter/update
    stream or the partition filter shows up here.  Re-pinned when the
    clock became integer nanoseconds: every delay is drawn onto the ns
    grid, so each time moved by at most 1.6 ns while every sync count
    and bit total stayed the same.
    """

    CASES = {
        "vv": lambda seed: AntiEntropySimulation(
            small_config(metadata="vv", seed=seed)),
        "crv": lambda seed: AntiEntropySimulation(
            small_config(metadata="crv", seed=seed)),
        "srv": lambda seed: AntiEntropySimulation(
            small_config(metadata="srv", seed=seed)),
        "partitioned": lambda seed: AntiEntropySimulation(small_config(
            seed=seed, partitions=((0.0, 10.0, LEFT),))),
        "ring-values": lambda seed: AntiEntropySimulation(small_config(
            seed=seed, topology=RingTopology(), convergence="values")),
        "op-syncg": lambda seed: OpAntiEntropySimulation(
            small_config(seed=seed)),
        "op-full-graph": lambda seed: OpAntiEntropySimulation(
            small_config(seed=seed), use_syncg=False),
    }

    @pytest.mark.parametrize("label, digest", [
        pytest.param("vv", "65a0a866448df862", id="vv"),
        pytest.param("crv", "48a0b0ee50cebc0b", id="crv"),
        pytest.param("srv", "b5283fe5868787c3", id="srv"),
        pytest.param("partitioned", "b607c69b18f7b4f4", id="partitioned"),
        pytest.param("ring-values", "f850672dc2d6e643", id="ring-values"),
        pytest.param("op-syncg", "3c70f866590ae7ad", id="op-syncg"),
        pytest.param("op-full-graph", "6366b67efe841896", id="op-full-graph"),
    ])
    def test_results_are_pinned(self, label, digest):
        results = [self.CASES[label](seed).run() for seed in range(4)]
        assert hashlib.sha256(
            repr(results).encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("overrides", [
    pytest.param(dict(n_sites=1), id="one-site"),
    pytest.param(dict(gossip_period=0.0), id="zero-period"),
    pytest.param(dict(gossip_jitter=-0.1), id="negative-jitter"),
    pytest.param(dict(gossip_jitter=1.5), id="jitter-above-one"),
    pytest.param(dict(update_interval=0.0), id="zero-update-interval"),
    pytest.param(dict(n_updates=-1), id="negative-updates"),
    pytest.param(dict(max_time=0.0), id="zero-max-time"),
    pytest.param(dict(max_time=float("inf")), id="infinite-max-time"),
    pytest.param(dict(convergence="eventually"), id="unknown-convergence"),
    pytest.param(dict(partitions=((5.0, 5.0, LEFT),)), id="empty-window"),
    pytest.param(dict(partitions=((-1.0, 5.0, LEFT),)),
                 id="negative-window"),
    pytest.param(dict(partitions=((0.0, 5.0, frozenset({"S999"})),)),
                 id="unknown-site-in-cut"),
    pytest.param(dict(partitions=((0.0, 5.0),)), id="window-without-cut"),
])
def test_config_rejections_are_repro_errors(overrides):
    with pytest.raises(ReproError):
        small_config(**overrides)
