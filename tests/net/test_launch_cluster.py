"""Tests for the unified ``launch_cluster`` entry point.

The API-redesign contract: one ``TopologySpec`` drives everything —
sites, channels, sharding, gossip — with no per-knob kwargs beside it,
and two launches of the same spec and seed producing byte-identical
reports.
"""

import json
from dataclasses import replace

import pytest

from repro.net.channel import ChannelSpec
from repro.net.cluster import launch_cluster, replay_sequential
from repro.net.topology import GossipSpec, LinkProfile, TopologySpec
from repro.net.wire import Encoding
from repro.obs.monitor import ClusterMonitor, MonitorConfig
from repro.workload.cluster import (SessionRequest, gossip_schedule,
                                    update_schedule)
from repro.workload.epidemic import (closing_sweep, epidemic_schedule,
                                     sharded_update_schedule)
from tests.helpers import same_objects, session_timing

ENC = Encoding(site_bits=8, value_bits=16)


def fleet_spec(seed=0):
    return TopologySpec.grid(
        2, 4, intra=LinkProfile(latency=0.002, bandwidth=1_000_000.0),
        inter=LinkProfile(latency=0.04, bandwidth=250_000.0, loss=0.02),
        replication=2, seed=seed, chaos_seed=11)


def run_fleet(spec, *, n_objects=12, rounds=2):
    runner = launch_cluster(spec, protocol="srv", n_objects=n_objects,
                            batch_size=4, encoding=ENC)
    shards = runner.shards
    sessions = epidemic_schedule(spec, shards, rounds=rounds)
    updates = sharded_update_schedule(spec, shards,
                                      n_updates=2 * spec.n_sites)
    last = max([r.at for r in sessions] + [u.at for u in updates])
    sessions = sessions + closing_sweep(shards, start=last + 500.0)
    return runner, runner.run(sessions, updates)


def report(runner, result):
    """Everything observable about one run, as one JSON string."""
    return json.dumps({
        "sites": runner.sites,
        "records": [[r.index, r.src, r.dst, r.requested_at, r.started_at,
                     list(r.objects), [v.name for v in r.verdicts],
                     list(r.reconciled_objects)]
                    for r in result.records],
        "total_bits": result.total_bits,
        "completion_time": result.completion_time,
        "updates_applied": result.updates_applied,
        "reconciliations": result.reconciliations,
        "skipped": result.skipped_sessions,
        "state": {site: {str(obj): vec.to_version_vector().as_dict()
                         for obj, vec in sorted(objs.items())}
                  for site, objs in sorted(result.objects.items())},
    }, sort_keys=True)


class TestApiSurface:
    def test_spec_drives_sites_sharding_and_channels(self):
        spec = fleet_spec()
        runner = launch_cluster(spec, n_objects=8, encoding=ENC)
        assert runner.sites == spec.site_names()
        assert runner.shards is not None
        assert runner.shards.n_objects == 8
        assert runner.config.topology is spec

    def test_unsharded_spec_launches_the_classic_layout(self):
        spec = TopologySpec.single(4, seed=0)
        runner = launch_cluster(spec, n_objects=4, encoding=ENC)
        assert runner.shards is None
        assert runner.sites == ["S000", "S001", "S002", "S003"]
        # Every site hosts every object id, keyed as on a sharded fleet.
        assert all(list(held) == [0, 1, 2, 3]
                   for held in runner.objects.values())
        # The gossip fanout sizes epidemic rounds; it reaches the session
        # config only as part of the spec.
        wide = replace(spec, gossip=GossipSpec(fanout=2))
        assert launch_cluster(wide, n_objects=4, encoding=ENC).config \
            == replace(runner.config, topology=wide)

    def test_shard_flag_forces_either_way(self):
        assert launch_cluster(TopologySpec.single(4, replication=2),
                              n_objects=4, encoding=ENC,
                              shard=False).shards is None
        forced = launch_cluster(TopologySpec.single(4, replication=2),
                                n_objects=4, encoding=ENC, shard=True)
        assert forced.shards is not None

    def test_positional_knobs_rejected(self):
        with pytest.raises(TypeError):
            launch_cluster(fleet_spec(), "srv")  # keyword-only

    def test_unknown_kwargs_raise_type_error(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            launch_cluster(fleet_spec(), encoding=ENC, fan_out=3)
        # The fleet-shape knobs live on the spec and nowhere else.
        for retired in ({"fanout": 2}, {"channel": ChannelSpec()},
                        {"chaos_loss": 0.1}, {"backend": "linked"}):
            with pytest.raises(TypeError, match="unexpected keyword"):
                launch_cluster(fleet_spec(), encoding=ENC, **retired)


class TestDeterminism:
    def test_same_spec_same_seed_byte_identical_reports(self):
        first = report(*run_fleet(fleet_spec(seed=3)))
        second = report(*run_fleet(fleet_spec(seed=3)))
        assert first == second

    def test_different_seed_different_report(self):
        assert report(*run_fleet(fleet_spec(seed=3))) \
            != report(*run_fleet(fleet_spec(seed=4)))

    def test_the_fleet_converges_and_sharding_scopes_state(self):
        spec = fleet_spec()
        runner, result = run_fleet(spec)
        assert result.consistent()
        for site, objs in result.objects.items():
            assert sorted(objs) == list(runner.shards.hosted[site])


def wide_gossip_spec(loss):
    """An unsharded 2×4 grid whose gossip contacts two peers per round."""
    return TopologySpec.grid(
        2, 4, inter=LinkProfile(0.04, 250e3, loss=loss),
        gossip=GossipSpec(fanout=2), chaos_seed=11)


def run_wide_gossip(spec, **observers):
    """Gossip 4 objects over ``spec``, then a star sweep through the first
    site so the fleet ends converged."""
    runner = launch_cluster(spec, n_objects=4, batch_size=2,
                            encoding=ENC, **observers)
    sites = runner.sites
    sessions = gossip_schedule(sites, rounds=4, seed=5)
    updates = update_schedule(sites, n_updates=16, interval=0.2,
                              n_objects=4, seed=6)
    at = max(request.at for request in sessions) + 10.0
    sweep = [SessionRequest(at, site, sites[0]) for site in sites[1:]]
    sweep += [SessionRequest(at + 10.0, sites[0], site)
              for site in sites[1:]]
    return runner, runner.run(sessions + sweep, updates)


class TestGossipFanoutIsNotSessionCapacity:
    """``GossipSpec.fanout`` sizes epidemic rounds and nothing else: a
    lossy unsharded fleet that gossips with two peers launches, and an
    object still has one holder, so the replay and the closure oracle
    hold on every session."""

    def test_lossy_wide_gossip_launches_and_replays_exactly(self):
        spec = wide_gossip_spec(loss=0.01)
        runner, result = run_wide_gossip(spec)
        assert spec.has_faults and result.consistent()
        sequential, objects = replay_sequential(runner.sites, runner.config,
                                                result.log)
        assert result.per_session_bits() \
            == [r.stats.total_bits for r in sequential]
        assert [session_timing(r.result) for r in result.records] \
            == [session_timing(r) for r in sequential]
        assert same_objects(result.objects, objects)

    def test_lossless_wide_gossip_checks_closure_on_every_session(self):
        monitor = ClusterMonitor(MonitorConfig(strict=True,
                                               spot_check_period=1))
        checked = []
        check = monitor._check_closure

        def counting(record, snapshot, now):
            checked.append(record.index)
            check(record, snapshot, now)

        monitor._check_closure = counting
        runner, result = run_wide_gossip(wide_gossip_spec(loss=0.0),
                                         monitor=monitor)
        assert result.consistent()
        assert sorted(checked) == [record.index for record in result.records]
        assert monitor.violation_count == 0
