"""Tests for the declarative fleet topology (`repro.net.topology`)."""

import random
from dataclasses import asdict

import pytest

from repro.errors import ValidationError
from repro.net.topology import (GossipSpec, LinkProfile, RegionLink,
                                RegionSpec, TopologySpec, select_peer,
                                uniform_peer_rounds)
from repro.store.cluster import gossip_peers
from repro.workload.cluster import site_names

INTRA = LinkProfile(latency=0.002, bandwidth=1_000_000.0)
INTER = LinkProfile(latency=0.04, bandwidth=250_000.0, loss=0.01)


def three_regions(**kwargs):
    return TopologySpec.grid(3, 4, intra=INTRA, inter=INTER, **kwargs)


class TestLinkProfile:
    def test_lossless_profile_has_no_faults(self):
        faults = LinkProfile().faults(seed=7)
        assert faults.drop == 0 and faults.duplicate == 0
        assert faults.reorder == 0

    def test_loss_expands_to_the_standard_chaos_mix(self):
        profile = LinkProfile(latency=0.01, loss=0.1)
        faults = profile.faults(seed=11)
        assert faults.drop == 0.1
        assert faults.duplicate == 0.05
        assert faults.reorder == 0.1
        assert faults.reorder_window == pytest.approx(0.04)
        assert faults.seed == 11

    def test_channel_carries_the_profile(self):
        channel = LinkProfile(latency=0.03, bandwidth=5e5).channel(seed=0)
        assert channel.latency == 0.03
        assert channel.bandwidth == 5e5

    @pytest.mark.parametrize("kwargs", [
        {"latency": -0.1}, {"bandwidth": 0.0}, {"loss": 1.0},
        {"loss": -0.01}, {"latency": float("nan")},
        {"bandwidth": float("nan")}, {"loss": float("nan")}])
    def test_invalid_profiles_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            LinkProfile(**kwargs)

    @pytest.mark.parametrize("value", [float("inf"), -float("inf")])
    def test_infinite_latency_rejected(self, value):
        with pytest.raises(ValidationError, match="latency must be finite"):
            LinkProfile(value, 1e6, 0.01)
        assert LinkProfile(0.01, float("inf")).channel(seed=0).bandwidth \
            == float("inf")


class TestRegionAndLinkValidation:
    def test_region_needs_a_clean_name_and_sites(self):
        with pytest.raises(ValidationError):
            RegionSpec("", 4)
        with pytest.raises(ValidationError):
            RegionSpec("two words", 4)
        with pytest.raises(ValidationError):
            RegionSpec("eu", 0)

    def test_region_link_must_join_distinct_regions(self):
        with pytest.raises(ValidationError):
            RegionLink("eu", "eu", LinkProfile())

    def test_gossip_knobs_validated(self):
        with pytest.raises(ValidationError):
            GossipSpec(fanout=0)
        with pytest.raises(ValidationError):
            GossipSpec(local_bias=1.5)

    def test_spec_rejects_duplicate_regions_and_bad_links(self):
        with pytest.raises(ValidationError):
            TopologySpec(regions=())
        with pytest.raises(ValidationError):
            TopologySpec(regions=(RegionSpec("eu", 2),
                                  RegionSpec("eu", 2)))
        with pytest.raises(ValidationError):
            TopologySpec(regions=(RegionSpec("eu", 2),),
                         links=(RegionLink("eu", "mars", LinkProfile()),))
        regions = (RegionSpec("eu", 2), RegionSpec("us", 2))
        with pytest.raises(ValidationError):
            TopologySpec(regions=regions,
                         links=(RegionLink("eu", "us", LinkProfile()),
                                RegionLink("us", "eu", LinkProfile())))

    def test_replication_bounded_by_fleet_size(self):
        with pytest.raises(ValidationError):
            TopologySpec.grid(2, 2, replication=5)
        with pytest.raises(ValidationError):
            TopologySpec.grid(2, 2, replication=0)


class TestNamingAndLookup:
    def test_single_region_names_match_the_legacy_fleet(self):
        spec = TopologySpec.single(6)
        assert spec.site_names() == site_names(6)
        assert spec.n_sites == 6

    def test_multi_region_names_are_region_prefixed(self):
        spec = three_regions()
        names = spec.site_names()
        assert names[0] == "r0-000" and names[4] == "r1-000"
        assert len(names) == spec.n_sites == 12

    def test_region_of_and_region_sites_agree(self):
        spec = three_regions()
        for name in spec.site_names():
            assert name in spec.region_sites(spec.region_of(name))
        assert spec.region_sites("r2") == [f"r2-{i:03d}" for i in range(4)]
        with pytest.raises(KeyError):
            spec.region_of("mars-000")


class TestChannels:
    def test_intra_and_inter_profiles_resolve(self):
        spec = three_regions()
        assert spec.link_between("r0", "r0") is INTRA
        assert spec.link_between("r0", "r1") is INTER

    def test_named_link_overrides_the_default_inter(self):
        fat = LinkProfile(latency=0.01, bandwidth=2e6)
        spec = TopologySpec(
            regions=(RegionSpec("eu", 2), RegionSpec("us", 2),
                     RegionSpec("ap", 2)),
            inter=INTER, links=(RegionLink("eu", "us", fat),))
        assert spec.link_between("us", "eu") is fat
        assert spec.link_between("eu", "ap") is INTER

    def test_channel_for_is_symmetric_and_cached(self):
        spec = three_regions()
        forward = spec.channel_for("r0-000", "r1-002")
        assert spec.channel_for("r1-002", "r0-000") is forward
        assert spec.channel_for("r0-001", "r1-000") is forward
        assert forward.latency == INTER.latency

    def test_has_faults_tracks_every_profile(self):
        assert three_regions().has_faults  # lossy inter
        clean = TopologySpec.grid(2, 2, intra=LinkProfile(),
                                  inter=LinkProfile(latency=0.04))
        assert not clean.has_faults


class TestSpecIsPureData:
    def test_hashable_and_asdictable(self):
        spec = three_regions(replication=3, chaos_seed=11)
        assert hash(spec) == hash(three_regions(replication=3,
                                                chaos_seed=11))
        doc = asdict(spec)
        assert doc["regions"][0]["name"] == "r0"
        assert doc["inter"]["loss"] == 0.01
        assert doc["replication"] == 3

    def test_derived_caches_stay_out_of_equality(self):
        a, b = three_regions(), three_regions()
        a.channel_for("r0-000", "r1-000")  # warm one cache only
        assert a == b


class TestUniformPeerRounds:
    def test_matches_the_store_gossip_stream_byte_for_byte(self):
        # The load-bearing identity: the store's anti-entropy plan (and
        # every committed digest built on it) must be reproduced exactly
        # by the shared sampler.
        sites = site_names(7)
        assert uniform_peer_rounds(sites, rounds=5, seed=3) \
            == gossip_peers(sites, rounds=5, seed=3)

    def test_matches_the_historical_inline_oracle(self):
        # The pre-topology implementation, inlined: one rng.choice over
        # the filtered peer list per (round, dst).
        sites = site_names(5)
        rng = random.Random("store-gossip:9")
        oracle = [(float(r), rng.choice([s for s in sites if s != dst]),
                   dst)
                  for r in range(4) for dst in sites]
        assert uniform_peer_rounds(sites, rounds=4, seed=9) == oracle

    def test_every_site_pulls_once_per_round_never_from_itself(self):
        plan = uniform_peer_rounds(site_names(6), rounds=3, seed=0)
        assert len(plan) == 18
        for round_no, src, dst in plan:
            assert src != dst
        pulls = {(round_no, dst) for round_no, _, dst in plan}
        assert len(pulls) == 18


class TestSelectPeer:
    def test_never_returns_the_site_itself(self):
        rng = random.Random(0)
        sites = site_names(4)
        for _ in range(50):
            assert select_peer(rng, "S001", sites) != "S001"

    def test_same_rng_state_same_peer(self):
        sites = site_names(9)
        assert select_peer(random.Random(42), "S000", sites) \
            == select_peer(random.Random(42), "S000", sites)
