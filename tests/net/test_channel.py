"""Tests for the link model and its β product."""

import pytest

from repro.errors import ValidationError
from repro.net.channel import ChannelSpec, serialization_ns
from repro.errors import SimulationError
from repro.net.simulator import to_ns, to_seconds


class TestValidation:
    def test_defaults_are_sane(self):
        spec = ChannelSpec()
        assert spec.latency > 0
        assert spec.bandwidth > 0

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            ChannelSpec(latency=-1)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            ChannelSpec(bandwidth=0)

    def test_ack_bits_must_be_positive(self):
        with pytest.raises(ValueError):
            ChannelSpec(ack_bits=0)

    @pytest.mark.parametrize("field", ["latency", "bandwidth", "ack_bits"])
    def test_nan_rejected(self, field):
        # NaN passes every `< 0` check; a NaN latency "completed" a timed
        # session in microseconds, a NaN bandwidth made its time NaN.
        with pytest.raises(ValidationError, match=field):
            ChannelSpec(**{field: float("nan")})

    @pytest.mark.parametrize("value", [float("inf"), -float("inf")])
    def test_infinite_latency_rejected(self, value):
        # Every delivery would fall due at t = inf.
        with pytest.raises(ValidationError, match="latency must be finite"):
            ChannelSpec(latency=value)

    def test_infinite_bandwidth_is_legal(self):
        ChannelSpec(bandwidth=float("inf"))
        assert serialization_ns(100, float("inf")) == 0


class TestDerivedQuantities:
    def test_rtt(self):
        assert ChannelSpec(latency=0.05).rtt == pytest.approx(0.1)

    def test_beta_is_bandwidth_times_rtt(self):
        spec = ChannelSpec(latency=0.1, bandwidth=1000)
        assert spec.beta_bits == pytest.approx(200)

    def test_serialization_delay(self):
        spec = ChannelSpec(bandwidth=1000)
        assert serialization_ns(500, spec.bandwidth) == 500_000_000

    def test_serialization_rounds_up_to_whole_nanoseconds(self):
        # 1 bit at 3 bit/s is 333,333,333.3… ns: the link stays busy
        # through the partial nanosecond.
        assert serialization_ns(1, 3) == 333_333_334

    @pytest.mark.parametrize("latency, bandwidth, bits, latency_ns, busy_ns", [
        (0.002, 1e6, 8, 2_000_000, 8_000),
        (0.005, 1e6, 1_234, 5_000_000, 1_234_000),
        (0.04, 250e3, 8, 40_000_000, 32_000),
        (0.04, 250e3, 4_321, 40_000_000, 17_284_000),
    ])
    def test_bench_links_are_exact(self, latency, bandwidth, bits,
                                   latency_ns, busy_ns):
        spec = ChannelSpec(latency=latency, bandwidth=bandwidth)
        assert spec.latency_ns == latency_ns
        assert serialization_ns(bits, spec.bandwidth) == busy_ns

    def test_latency_ns_is_derived_not_a_field(self):
        # Equality, hashing and asdict see the float inputs only.
        a, b = ChannelSpec(latency=0.04), ChannelSpec(latency=0.04)
        assert a == b and hash(a) == hash(b)
        assert "latency_ns" not in repr(a)

    def test_stop_and_wait_overhead(self):
        spec = ChannelSpec(latency=0.1, bandwidth=100, ack_bits=10)
        assert spec.stop_and_wait_ns() == 200_000_000 + 100_000_000


class TestConverter:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf")])
    def test_non_finite_seconds_rejected(self, value):
        with pytest.raises(SimulationError, match="finite"):
            to_ns(value)

    def test_rounds_to_the_nearest_nanosecond(self):
        assert to_ns(1.4e-9) == 1 and to_ns(1.6e-9) == 2
        assert to_ns(0.1) == 100_000_000 and to_ns(-2.5) == -2_500_000_000

    def test_round_trip_through_seconds_is_exact(self):
        for ns in (0, 1, 999_999_999, 123_456_789_012, 9_999_999_999_999):
            assert to_ns(to_seconds(ns)) == ns
