"""Tests for the link model and its β product."""

import pytest

from repro.errors import ValidationError
from repro.net.channel import ChannelSpec


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
        assert ChannelSpec(bandwidth=float("inf")).serialization_delay(
            100) == 0.0


class TestDerivedQuantities:
    def test_rtt(self):
        assert ChannelSpec(latency=0.05).rtt == pytest.approx(0.1)

    def test_beta_is_bandwidth_times_rtt(self):
        spec = ChannelSpec(latency=0.1, bandwidth=1000)
        assert spec.beta_bits == pytest.approx(200)

    def test_serialization_delay(self):
        spec = ChannelSpec(bandwidth=1000)
        assert spec.serialization_delay(500) == pytest.approx(0.5)

    def test_one_way_delay(self):
        spec = ChannelSpec(latency=0.2, bandwidth=100)
        assert spec.one_way_delay(50) == pytest.approx(0.7)

    def test_stop_and_wait_overhead(self):
        spec = ChannelSpec(latency=0.1, bandwidth=100, ack_bits=10)
        assert spec.stop_and_wait_overhead() == pytest.approx(0.2 + 0.1)
