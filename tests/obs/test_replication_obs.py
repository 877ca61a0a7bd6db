"""Observability threaded through the replication layer."""

import pytest

from repro.errors import ReproError
from repro.obs import MetricsRegistry, Tracer
from repro.replication.antientropy import (AntiEntropyConfig,
                                           AntiEntropySimulation,
                                           OpAntiEntropySimulation)
from repro.replication.hybrid import HybridOpSystem
from repro.replication.opreplica import log_applier
from repro.replication.resolver import AutomaticResolution, union_merge
from repro.replication.statesystem import StateTransferSystem


def state_system(**kwargs):
    system = StateTransferSystem(
        metadata="srv", resolution=AutomaticResolution(union_merge),
        track_graph=False, **kwargs)
    system.create_object("A", "obj", frozenset({"seed"}))
    system.clone_replica("A", "B", "obj")
    return system


class TestStateSystem:
    def test_pull_traces_sessions_and_observes_metrics(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        system = state_system(tracer=tracer, metrics=metrics)
        system.update("A", "obj", frozenset({"seed", "x"}))
        system.pull("B", "A", "obj")
        names = [e.fields["name"]
                 for e in tracer.select("span_start")]
        assert "COMPARE" in names and "SYNCS" in names
        snapshot = metrics.snapshot()
        expected = sum(1 for outcome in system.outcomes
                       if outcome.sync_session is not None)
        assert snapshot["counters"]["srv.sessions"] == expected >= 1

    def test_untraced_system_behaves_identically(self):
        traced = state_system(tracer=Tracer(), metrics=MetricsRegistry())
        plain = state_system()
        for system in (traced, plain):
            system.update("A", "obj", frozenset({"seed", "x"}))
            system.pull("B", "A", "obj")
        assert (traced.traffic.as_dict() == plain.traffic.as_dict())


class TestAntiEntropy:
    CONFIG = AntiEntropyConfig(n_sites=4, n_updates=6, seed=3)

    def test_gossip_events_are_time_stamped(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        result = AntiEntropySimulation(self.CONFIG, tracer=tracer,
                                       metrics=metrics).run()
        gossips = tracer.select("gossip")
        assert gossips and all(e.time is not None for e in gossips)
        assert tracer.count("update") == self.CONFIG.n_updates
        assert tracer.count("converged") == 1
        assert tracer.clock is None  # restored after the run
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["antientropy.gossips"] == len(gossips)
        latency = snapshot["histograms"]["antientropy.convergence_seconds"]
        assert latency["total"] == result.convergence_latency

    def test_clock_restored_when_the_run_fails(self):
        tracer = Tracer()
        config = AntiEntropyConfig(n_sites=4, gossip_period=50.0,
                                   max_time=10.0)
        with pytest.raises(ReproError, match="convergence"):
            AntiEntropySimulation(config, tracer=tracer).run()
        assert tracer.clock is None

    def test_tracer_does_not_change_the_measurement(self):
        traced = AntiEntropySimulation(self.CONFIG, tracer=Tracer()).run()
        plain = AntiEntropySimulation(self.CONFIG).run()
        assert traced.metadata_bits == plain.metadata_bits
        assert traced.convergence_time == plain.convergence_time

    def test_op_transfer_simulation_traces_too(self):
        tracer = Tracer()
        metrics = MetricsRegistry()
        OpAntiEntropySimulation(AntiEntropyConfig(n_sites=3, n_updates=4,
                                                  seed=1),
                                tracer=tracer, metrics=metrics).run()
        assert tracer.count("converged") == 1
        assert metrics.snapshot()["counters"]["syncg.sessions"] >= 1


class TestHybrid:
    def build(self, **kwargs):
        system = HybridOpSystem(applier=log_applier, initial_state=(),
                                **kwargs)
        system.create_object("A", "obj")
        system.clone_replica("A", "B", "obj")
        return system

    def test_truncation_counted(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        system = self.build(tracer=tracer, metrics=metrics)
        for index in range(3):
            system.update("A", "obj", f"x{index}")
            system.pull("B", "A", "obj")
        dropped = system.truncate_history("A", "obj")
        assert dropped > 0
        assert tracer.select("truncate")[0].fields["archived"] == dropped
        counters = metrics.snapshot()["counters"]
        assert counters["hybrid.truncations"] == 1
        assert counters["hybrid.ops_archived"] == dropped

    def test_snapshot_fallback_counted(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        system = self.build(tracer=tracer, metrics=metrics)
        for index in range(3):
            system.update("A", "obj", f"x{index}")
            system.pull("B", "A", "obj")
        system.truncate_history("A", "obj")
        system.registry.add("D")  # late joiner needs archived bodies
        system.clone_replica("A", "D", "obj")
        assert metrics.snapshot()["counters"]["hybrid.snapshot_fallbacks"] == 1
        event = tracer.select("snapshot_fallback")[0]
        assert event.party == "D" and event.fields["peer"] == "A"
