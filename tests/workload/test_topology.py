"""Tests for the pair samplers of repro.net.topology."""

import hashlib
import random

import pytest

from repro.net.topology import (RandomPairTopology, RingTopology,
                                StarTopology)

SITES = [f"S{i:03d}" for i in range(8)]


class TestRandomPair:
    def test_distinct_pair(self):
        topology = RandomPairTopology()
        rng = random.Random(0)
        for step in range(100):
            src, dst = topology.pair(rng, step, SITES)
            assert src != dst
            assert src in SITES and dst in SITES

    def test_covers_many_pairs(self):
        topology = RandomPairTopology()
        rng = random.Random(0)
        pairs = {topology.pair(rng, step, SITES) for step in range(500)}
        assert len(pairs) > 30


class TestRing:
    def test_clockwise_progression(self):
        topology = RingTopology()
        rng = random.Random(0)
        assert topology.pair(rng, 1, SITES) == ("S000", "S001")
        assert topology.pair(rng, 2, SITES) == ("S001", "S002")

    def test_wraps_around(self):
        topology = RingTopology()
        rng = random.Random(0)
        assert topology.pair(rng, 0, SITES) == ("S007", "S000")
        assert topology.pair(rng, 8, SITES) == ("S007", "S000")


class TestStar:
    def test_hub_is_always_involved(self):
        topology = StarTopology()
        rng = random.Random(0)
        for step in range(50):
            src, dst = topology.pair(rng, step, SITES)
            assert "S000" in (src, dst)

    def test_direction_alternates(self):
        topology = StarTopology()
        rng = random.Random(0)
        _, dst_even = topology.pair(rng, 0, SITES)
        src_odd, _ = topology.pair(rng, 1, SITES)
        assert dst_even == "S000"
        assert src_odd == "S000"


@pytest.mark.parametrize("sampler, digest", [
    (RandomPairTopology(), "547706c8d2d5c317"),
    (RingTopology(), "d4f8be10c8af3587"),
    (StarTopology(), "cfb64843a846c978"),
], ids=["random", "ring", "star"])
def test_seeded_streams_are_pinned(sampler, digest):
    # Every seeded schedule (gossip_schedule, generate_trace, the
    # anti-entropy loop) inherits these streams; a sampler that draws
    # differently moves every committed experiment that uses it.
    rng = random.Random(0)
    pairs = [sampler.pair(rng, step, SITES) for step in range(200)]
    assert hashlib.sha256(repr(pairs).encode()).hexdigest()[:16] == digest
