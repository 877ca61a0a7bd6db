"""Tests for epidemic dissemination schedules (`repro.workload.epidemic`)."""

import pytest

from repro.errors import ValidationError
from repro.net.sharding import build_shard_map
from repro.net.topology import GossipSpec, LinkProfile, TopologySpec
from repro.workload.epidemic import (closing_sweep, epidemic_schedule,
                                     sharded_update_schedule)

SPEC = TopologySpec.grid(
    2, 6, intra=LinkProfile(latency=0.002),
    inter=LinkProfile(latency=0.04, bandwidth=250_000.0),
    replication=3, seed=0)
SHARDS = build_shard_map(SPEC, 48)


class TestEpidemicSchedule:
    def test_deterministic_in_spec_and_seed(self):
        assert epidemic_schedule(SPEC, SHARDS, rounds=3) \
            == epidemic_schedule(SPEC, SHARDS, rounds=3)
        assert epidemic_schedule(SPEC, SHARDS, rounds=3) \
            != epidemic_schedule(SPEC, SHARDS, rounds=3, seed=1)

    def test_every_session_pairs_shard_peers(self):
        for request in epidemic_schedule(SPEC, SHARDS, rounds=3):
            assert request.src != request.dst
            assert request.src in SHARDS.shard_peers[request.dst]
            assert SHARDS.shared_objects(request.src, request.dst)

    def test_fanout_sizes_each_round(self):
        wide = TopologySpec.grid(2, 6, replication=3,
                                 gossip=GossipSpec(fanout=2))
        shards = build_shard_map(wide, 48)
        plan = epidemic_schedule(wide, shards, rounds=1)
        assert len(plan) == 2 * wide.n_sites

    def test_push_pull_alternates_direction(self):
        # Round 1 (odd) pushes: each site appears as src for its own
        # draws.  With push_pull off, every round is a pull (the site is
        # always dst).
        plan = epidemic_schedule(SPEC, SHARDS, rounds=2, jitter=0.0)
        round2 = [r for r in plan if r.at > 1.5]
        assert {r.src for r in round2} == set(SPEC.site_names())
        pull_spec = TopologySpec.grid(
            2, 6, replication=3, gossip=GossipSpec(push_pull=False))
        pull_shards = build_shard_map(pull_spec, 48)
        pull_plan = epidemic_schedule(pull_spec, pull_shards, rounds=2,
                                      jitter=0.0)
        assert {r.dst for r in pull_plan} == set(pull_spec.site_names())

    def test_local_bias_keeps_traffic_regional(self):
        def cross_region_fraction(bias):
            spec = TopologySpec.grid(
                2, 6, replication=3,
                gossip=GossipSpec(local_bias=bias))
            shards = build_shard_map(spec, 48)
            plan = epidemic_schedule(spec, shards, rounds=20)
            cross = sum(spec.region_of(r.src) != spec.region_of(r.dst)
                        for r in plan)
            return cross / len(plan)

        assert cross_region_fraction(0.9) < cross_region_fraction(0.1)

    def test_requests_sorted_and_jitter_bounded(self):
        plan = epidemic_schedule(SPEC, SHARDS, rounds=3, period=2.0,
                                 jitter=0.25)
        assert plan == sorted(plan, key=lambda r: r.at)
        assert all(0.75 * 2.0 <= r.at <= 3 * 2.0 * 1.25 for r in plan)

    def test_validation(self):
        with pytest.raises(ValidationError):
            epidemic_schedule(SPEC, SHARDS, rounds=0)
        with pytest.raises(ValidationError):
            epidemic_schedule(SPEC, SHARDS, rounds=1, period=0.0)


class TestShardedUpdateSchedule:
    def test_updates_land_only_on_hosting_replicas(self):
        for update in sharded_update_schedule(SPEC, SHARDS, n_updates=60):
            assert update.site in SHARDS.replicas[update.obj]

    def test_leader_only_pins_every_update_to_the_ring_leader(self):
        plan = sharded_update_schedule(SPEC, SHARDS, n_updates=60,
                                       leader_only=True)
        assert all(u.site == SHARDS.replicas[u.obj][0] for u in plan)
        # One writer per object: the conflict-free regime BRV needs.
        writers = {u.obj: set() for u in plan}
        for u in plan:
            writers[u.obj].add(u.site)
        assert all(len(sites) == 1 for sites in writers.values())

    def test_deterministic_and_exponentially_spaced(self):
        a = sharded_update_schedule(SPEC, SHARDS, n_updates=40)
        assert a == sharded_update_schedule(SPEC, SHARDS, n_updates=40)
        times = [u.at for u in a]
        assert times == sorted(times)
        assert len(set(times)) == len(times)

    def test_validation(self):
        with pytest.raises(ValidationError):
            sharded_update_schedule(SPEC, SHARDS, n_updates=-1)
        with pytest.raises(ValidationError):
            sharded_update_schedule(SPEC, SHARDS, n_updates=1,
                                    interval=0.0)


class TestClosingSweep:
    def test_two_phases_leader_pull_then_push(self):
        plan = closing_sweep(SHARDS, start=100.0, settle=500.0)
        assert len(plan) % 2 == 0
        half = len(plan) // 2
        pulls, pushes = plan[:half], plan[half:]
        # Phase 2 mirrors phase 1 with the direction reversed, pair by
        # pair, and starts a settle-gap after phase 1 ends.
        for pull, push in zip(pulls, pushes):
            assert (push.src, push.dst) == (pull.dst, pull.src)
            assert push.objs == pull.objs
        assert pushes[0].at - pulls[-1].at >= 500.0

    def test_sessions_scoped_to_led_objects(self):
        plan = closing_sweep(SHARDS, start=0.0)
        half = len(plan) // 2
        covered = set()
        for request in plan[:half]:
            member, leader = request.src, request.dst
            for obj in request.objs:
                assert SHARDS.replicas[obj][0] == leader
                assert member in SHARDS.replicas[obj]
                covered.add((member, obj))
        # Every non-leader replica of every object is swept.
        expected = {(member, obj)
                    for obj, group in enumerate(SHARDS.replicas)
                    for member in group[1:]}
        assert covered == expected

    def test_validation(self):
        with pytest.raises(ValidationError):
            closing_sweep(SHARDS, start=0.0, spacing=0.0)
        with pytest.raises(ValidationError):
            closing_sweep(SHARDS, start=0.0, settle=0.0)
