"""Integer time: the simulated clock counts whole nanoseconds.

Every run leaves the kernel clock an ``int``, every queued event time is
one, and the causal analyzer's hop attribution sums to each hop's
elapsed nanoseconds by integer addition.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError

from repro.net import simulator
from repro.net.channel import ChannelSpec
from repro.net.cluster import ClusterConfig, ClusterRunner, launch_cluster
from repro.net.faults import chaos_faults
from repro.net.simulator import to_ns
from repro.net.topology import LinkProfile, TopologySpec
from repro.net.wire import Encoding
from repro.obs.causal import _categorize, analyze_tracer
from repro.obs.trace import Tracer
from repro.replication import antientropy
from repro.replication.antientropy import (AntiEntropyConfig,
                                           AntiEntropySimulation)
from repro.store import cluster as store_cluster
from repro.workload.clients import StoreWorkloadConfig, run_store_workload
from repro.workload.cluster import (gossip_schedule, site_names,
                                    update_schedule)
from repro.workload.epidemic import epidemic_schedule, sharded_update_schedule

ENC = Encoding(site_bits=8, value_bits=16)


def lossy_fleet():
    """A small sharded fleet over 10%-loss interconnects (ARQ engaged)."""
    spec = TopologySpec.grid(
        2, 4, intra=LinkProfile(0.002, 1e6),
        inter=LinkProfile(0.04, 250e3, loss=0.1),
        replication=2, chaos_seed=3)
    runner = launch_cluster(spec, protocol="srv", n_objects=16, batch_size=4,
                            encoding=Encoding.for_system(spec.n_sites, 64))
    sessions = epidemic_schedule(spec, runner.shards, rounds=3, seed=1)
    updates = sharded_update_schedule(spec, runner.shards, n_updates=24,
                                      seed=2)
    return runner, sessions, updates


def record_simulators(monkeypatch, module):
    """Every Simulator ``module`` builds from now on, in a list."""
    made = []

    class Recorded(simulator.Simulator):
        __slots__ = ()

        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            made.append(self)

    monkeypatch.setattr(module, "Simulator", Recorded)
    return made


class TestFloatTimeIsRejected:
    """One float event would turn ``now`` into a float for the rest of
    the run, so the kernel refuses every non-int time it is handed."""

    @pytest.mark.parametrize("time", [1.5, 2.0, True, "3"])
    def test_call_at_and_schedule(self, time):
        sim = simulator.Simulator()
        with pytest.raises(SimulationError, match="int nanoseconds"):
            sim.call_at(time, lambda: None)
        with pytest.raises(SimulationError, match="int nanoseconds"):
            sim.schedule(time, lambda: None)
        assert sim.pending_events == 0

    def test_call_after_a_float_delay(self):
        sim = simulator.Simulator()
        with pytest.raises(SimulationError, match="int nanoseconds"):
            sim.call_after(1.5, lambda: None)

    def test_run_until(self):
        sim = simulator.Simulator()
        sim.schedule(1, lambda: None)
        with pytest.raises(SimulationError, match="int nanoseconds"):
            sim.run(until=1.5)
        assert sim.run(until=2) == 2 and type(sim.now) is int

    def test_the_past_is_still_rejected(self):
        sim = simulator.Simulator()
        sim.run(until=5)
        with pytest.raises(SimulationError, match="before now=5"):
            sim.schedule(4, lambda: None)


class TestTheClockIsAnInt:
    def test_after_a_cluster_run(self):
        runner, sessions, updates = lossy_fleet()
        result = runner.run(sessions, updates)
        assert type(runner.sim.now) is int
        assert result.totals.retries > 0
        assert to_ns(result.completion_time) == runner.sim.now

    def test_every_queued_event_time_mid_run(self):
        runner, sessions, updates = lossy_fleet()
        queues = []

        def peek():
            queues.append([entry[0] for entry in runner.sim._queue])

        for at in (0.5, 1.0, 1.5, 2.0):
            runner.sim.call_at(to_ns(at), peek)
        runner.run(sessions, updates)
        assert all(len(times) > 10 for times in queues)
        assert all(type(time) is int for times in queues for time in times)

    def test_after_a_store_run(self, monkeypatch):
        made = record_simulators(monkeypatch, store_cluster)
        result = run_store_workload(StoreWorkloadConfig(
            n_sites=4, n_keys=8, ops=120, loss_rate=0.05, seed=5))
        assert result.converged
        (sim,) = made
        assert type(sim.now) is int
        assert to_ns(result.store.completion_time) == sim.now

    def test_after_an_antientropy_run(self, monkeypatch):
        made = record_simulators(monkeypatch, antientropy)
        AntiEntropySimulation(AntiEntropyConfig(
            n_sites=4, gossip_period=1.0, update_interval=0.5, n_updates=6,
            seed=3)).run()
        (sim,) = made
        assert type(sim.now) is int and sim.now > 0


@settings(max_examples=8, deadline=None)
@given(loss=st.sampled_from([0.05, 0.2, 0.3]),
       chaos_seed=st.integers(0, 2**16),
       workload_seed=st.integers(0, 2**16))
def test_lossy_hops_attribute_whole_nanoseconds(loss, chaos_seed,
                                                 workload_seed):
    sites = site_names(4)
    channel = ChannelSpec(latency=0.01, bandwidth=1e5,
                          faults=chaos_faults(loss, latency=0.01,
                                              seed=chaos_seed))
    tracer = Tracer()
    ClusterRunner(sites, ClusterConfig(protocol="srv", channel=channel,
                                       encoding=ENC),
                  tracer=tracer).run(
        gossip_schedule(sites, rounds=3, seed=workload_seed),
        update_schedule(sites, n_updates=6, interval=0.1,
                        seed=workload_seed + 1))
    analysis = analyze_tracer(tracer)
    graph = analysis.graph
    for node in graph.nodes.values():
        for source_seq, edge_kind in node.preds:
            source = graph.nodes[source_seq]
            parts = _categorize(source, node, edge_kind,
                                graph.channel_for(node)
                                or graph.channel_for(source))
            assert all(type(value) is int for value in parts.values())
            assert sum(parts.values()) == node.ns - source.ns
    path = analysis.critical_path
    for hop in path["hops"]:
        assert sum(map(to_ns, hop["categories"].values())) \
            == to_ns(hop["elapsed"])
    assert sum(map(to_ns, path["attribution"].values())) \
        == to_ns(path["elapsed"])
