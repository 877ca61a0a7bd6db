"""Fault specs, the seeded injector, and the ARQ retry policy."""

import random

import pytest

from repro.errors import ReproError, ValidationError
from repro.net.channel import ChannelSpec
from repro.net.faults import (FaultInjector, FaultSpec, RetryPolicy,
                              derive_seed)
from repro.net.simulator import to_ns


class TestFaultSpecValidation:
    @pytest.mark.parametrize("field", ["drop", "duplicate", "reorder"])
    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_probabilities_must_be_in_unit_interval(self, field, value):
        with pytest.raises(ValidationError):
            FaultSpec(**{field: value})

    def test_validation_error_is_a_repro_error(self):
        with pytest.raises(ReproError):
            FaultSpec(drop=2.0)
        with pytest.raises(ValueError):  # and a ValueError, for old callers
            FaultSpec(drop=2.0)

    def test_negative_reorder_window_rejected(self):
        with pytest.raises(ValidationError):
            FaultSpec(reorder=0.5, reorder_window=-1.0)

    def test_zero_window_with_reordering_is_accepted(self):
        # A zero window is legal even with reordering on: every drawn
        # delay is then 0 ns, so nothing is held back.
        spec = FaultSpec(reorder=0.5, reorder_window=0.0)
        injector = FaultInjector(spec)
        assert {injector.fate(0) for _ in range(50)} == {(0,)}
        assert injector.reorders > 0

    def test_partition_windows_must_be_ordered(self):
        with pytest.raises(ValidationError):
            FaultSpec(partitions=((3.0, 1.0),))
        with pytest.raises(ValidationError):
            FaultSpec(partitions=((-1.0, 2.0),))

    def test_nan_window_and_partition_bounds_rejected(self):
        nan = float("nan")
        with pytest.raises(ValidationError, match="reorder_window"):
            FaultSpec(reorder=0.5, reorder_window=nan)
        for window in ((nan, 2.0), (1.0, nan)):
            with pytest.raises(ValidationError, match="partition"):
                FaultSpec(partitions=(window,))
        assert FaultSpec(partitions=((1.0, float("inf")),)).partitioned(9e9)

    @pytest.mark.parametrize("value", [float("inf"), -float("inf")])
    def test_infinite_reorder_window_rejected(self, value):
        # A reordered copy would land at t = inf.
        with pytest.raises(ValidationError,
                           match="reorder_window must be finite"):
            FaultSpec(reorder=0.5, reorder_window=value)

    def test_enabled_reflects_any_fault_source(self):
        assert not FaultSpec().enabled
        assert FaultSpec(drop=0.01).enabled
        assert FaultSpec(duplicate=0.01).enabled
        assert FaultSpec(reorder=0.01, reorder_window=0.1).enabled
        assert FaultSpec(partitions=((1.0, 2.0),)).enabled

    def test_partitioned_is_half_open(self):
        spec = FaultSpec(partitions=((1.0, 2.0),))
        assert not spec.partitioned(0.5)
        assert spec.partitioned(1.0)
        assert spec.partitioned(1.999)
        assert not spec.partitioned(2.0)


class TestChannelSpecValidation:
    def test_negative_latency_raises_repro_error(self):
        with pytest.raises(ReproError):
            ChannelSpec(latency=-0.01)

    def test_non_positive_bandwidth_raises_repro_error(self):
        with pytest.raises(ReproError):
            ChannelSpec(bandwidth=0)
        with pytest.raises(ReproError):
            ChannelSpec(bandwidth=-1e6)

    def test_fault_probability_out_of_range_raises_repro_error(self):
        with pytest.raises(ReproError):
            ChannelSpec(faults=FaultSpec(drop=1.01))

    def test_faults_must_be_a_fault_spec(self):
        with pytest.raises(ValidationError):
            ChannelSpec(faults={"drop": 0.1})

    def test_default_channel_has_no_faults(self):
        assert not ChannelSpec().faults.enabled


class TestFaultInjector:
    def test_same_seed_replays_identical_schedule(self):
        spec = FaultSpec(drop=0.3, duplicate=0.2, reorder=0.3,
                         reorder_window=0.5, seed=7)
        fates_a = [FaultInjector(spec).fate(0) for _ in range(200)]
        fates_b = [FaultInjector(spec).fate(0) for _ in range(200)]
        assert fates_a == fates_b

    def test_seed_override_changes_the_schedule(self):
        spec = FaultSpec(drop=0.5, seed=1)
        base = [FaultInjector(spec).fate(0) for _ in range(100)]
        other = [FaultInjector(spec, seed=999).fate(0)
                 for _ in range(100)]
        assert base != other

    def test_counters_track_injected_faults(self):
        spec = FaultSpec(drop=0.4, duplicate=0.4, reorder=0.4,
                         reorder_window=0.2, seed=3)
        injector = FaultInjector(spec)
        fates = [injector.fate(0) for _ in range(300)]
        assert injector.drops == sum(1 for f in fates if not f)
        assert injector.duplicates == sum(1 for f in fates if len(f) > 1)
        assert injector.drops > 0
        assert injector.duplicates > 0
        assert injector.reorders > 0

    def test_partition_drops_consume_no_randomness(self):
        """A clock-dependent partition must not shift later draws."""
        spec = FaultSpec(drop=0.3, partitions=((1.0, 2.0),), seed=5)
        plain = FaultInjector(FaultSpec(drop=0.3, seed=5))
        parted = FaultInjector(spec)
        assert parted.fate(to_ns(1.5)) == ()  # inside the window: lost
        # Afterwards the two injectors agree draw for draw.
        assert [parted.fate(to_ns(3.0)) for _ in range(50)] \
            == [plain.fate(to_ns(3.0)) for _ in range(50)]

    def test_clean_delivery_is_a_single_on_time_copy(self):
        injector = FaultInjector(FaultSpec())
        assert injector.fate(0) == (0,)

    def test_reorder_delay_bounded_by_window(self):
        # Each draw lies in [0, window) s, rounded to whole ns; a
        # duplicate adds a second draw to the first.
        spec = FaultSpec(reorder=1.0, duplicate=0.5, reorder_window=0.25,
                         seed=9)
        injector = FaultInjector(spec)
        window = to_ns(0.25)
        for _ in range(100):
            fate = injector.fate(0)
            assert all(type(delay) is int for delay in fate)
            assert 0 <= fate[0] <= window
            assert 0 <= fate[-1] - fate[0] <= window


class TestDeriveSeed:
    def test_deterministic_and_index_sensitive(self):
        assert derive_seed(11, 3) == derive_seed(11, 3)
        seeds = {derive_seed(11, i) for i in range(100)}
        assert len(seeds) == 100
        assert derive_seed(11, 0) != derive_seed(12, 0)

    def test_result_is_a_non_negative_int(self):
        assert derive_seed(2**70, 5) >= 0


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValidationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValidationError):
            RetryPolicy(initial_rto=0.0)
        with pytest.raises(ValidationError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValidationError):
            RetryPolicy(max_rto=0.0)
        with pytest.raises(ValidationError):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(ValidationError):
            RetryPolicy(max_session_attempts=0)

    @pytest.mark.parametrize("field",
                             ["initial_rto", "backoff", "max_rto", "jitter"])
    def test_nan_rejected(self, field):
        with pytest.raises(ValidationError, match=field):
            RetryPolicy(**{field: float("nan")})

    @pytest.mark.parametrize("field", ["initial_rto", "jitter"])
    def test_infinite_first_timeout_rejected(self, field):
        # A lost message's retransmission would be scheduled at t = inf;
        # an infinite ceiling is fine, the backoff starts finite.
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            RetryPolicy(**{field: float("inf")})
        assert RetryPolicy(max_rto=float("inf")).next_rto(1.0) == 2.0

    def test_default_rto_is_twice_the_ack_wait(self):
        channel = ChannelSpec(latency=0.05, bandwidth=1e6)
        policy = RetryPolicy()
        # Out 50 ms, the 8-bit ack serializes in 8 µs, back 50 ms.
        assert to_ns(policy.rto_for(channel)) == 2 * 100_008_000

    def test_pinned_rto_wins(self):
        assert RetryPolicy(initial_rto=1.5).rto_for(ChannelSpec()) == 1.5

    def test_drawn_timeout_is_whole_ns_within_the_jitter(self):
        policy = RetryPolicy(jitter=0.25)
        rng = random.Random(4)
        for _ in range(100):
            timeout = policy.draw_timeout(0.2, rng)
            assert type(timeout) is int
            assert to_ns(0.2) <= timeout <= to_ns(0.25)

    def test_backoff_saturates_at_max_rto(self):
        policy = RetryPolicy(initial_rto=1.0, backoff=3.0, max_rto=5.0)
        rto = policy.rto_for(ChannelSpec())
        rto = policy.next_rto(rto)
        assert rto == 3.0
        assert policy.next_rto(rto) == 5.0
        assert policy.next_rto(5.0) == 5.0
