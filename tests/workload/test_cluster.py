"""Tests for the precomputed cluster workload schedules."""

import pytest

from repro.errors import ValidationError
from repro.net.topology import RingTopology
from repro.workload.cluster import (gossip_schedule, site_names,
                                    update_schedule)


class TestSiteNames:
    def test_canonical_zero_padded_names(self):
        assert site_names(3) == ["S000", "S001", "S002"]
        assert len(site_names(128)) == 128


class TestGossipSchedule:
    def test_every_site_initiates_once_per_round(self):
        sites = site_names(6)
        schedule = gossip_schedule(sites, rounds=4, seed=1)
        assert len(schedule) == 24

    def test_sorted_by_time_and_deterministic(self):
        sites = site_names(8)
        first = gossip_schedule(sites, rounds=3, seed=2)
        second = gossip_schedule(sites, rounds=3, seed=2)
        assert first == second
        times = [r.at for r in first]
        assert times == sorted(times)

    def test_seed_changes_the_schedule(self):
        sites = site_names(8)
        assert gossip_schedule(sites, rounds=3, seed=0) \
            != gossip_schedule(sites, rounds=3, seed=1)

    def test_no_self_pairs(self):
        schedule = gossip_schedule(site_names(5), rounds=6, seed=3)
        assert all(r.src != r.dst for r in schedule)

    def test_topology_is_honored(self):
        sites = site_names(6)
        ring = {frozenset((sites[i], sites[(i + 1) % 6])) for i in range(6)}
        schedule = gossip_schedule(sites, rounds=3, seed=4,
                                   topology=RingTopology())
        assert all(frozenset((r.src, r.dst)) in ring for r in schedule)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError, match="rounds"):
            gossip_schedule(site_names(4), rounds=0)
        with pytest.raises(ValidationError, match="period"):
            gossip_schedule(site_names(4), rounds=1, period=0.0)


class TestUpdateSchedule:
    def test_counts_and_monotone_times(self):
        schedule = update_schedule(site_names(4), n_updates=12, seed=5)
        assert len(schedule) == 12
        times = [u.at for u in schedule]
        assert times == sorted(times)
        assert all(u.at > 0 for u in schedule)

    def test_single_writer_restriction(self):
        sites = site_names(6)
        schedule = update_schedule(sites, n_updates=20, seed=6,
                                   writers=[sites[0]])
        assert {u.site for u in schedule} == {sites[0]}

    def test_deterministic_for_a_seed(self):
        assert update_schedule(site_names(4), n_updates=9, seed=7) \
            == update_schedule(site_names(4), n_updates=9, seed=7)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError, match="n_updates"):
            update_schedule(site_names(4), n_updates=-1)
        with pytest.raises(ValidationError, match="interval"):
            update_schedule(site_names(4), n_updates=1, interval=0.0)
        with pytest.raises(ValidationError, match="n_objects"):
            update_schedule(site_names(4), n_updates=1, n_objects=0)
        with pytest.raises(ValidationError, match="writers"):
            update_schedule(site_names(4), n_updates=1, writers=[])

