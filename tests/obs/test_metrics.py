"""Tests for the process-local metrics registry."""

import json

import pytest

from repro.errors import ReproError
from repro.net.stats import TransferStats
from repro.obs import MetricsRegistry, observe_session
from repro.obs.metrics import Counter, Gauge, Histogram


class TestInstruments:
    def test_counter_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_gauge_last_write_wins(self):
        gauge = Gauge()
        assert gauge.value is None
        gauge.set(1.0)
        gauge.set(2.5)
        assert gauge.value == 2.5

    def test_histogram_summary(self):
        histogram = Histogram()
        for value in (1, 2, 3, 4, 10):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 5
        assert summary["total"] == 20
        assert summary["min"] == 1
        assert summary["max"] == 10
        assert summary["p50"] == 3
        assert summary["p95"] == 10
        assert summary["p999"] == 10

    def test_p999_separates_the_extreme_tail(self):
        histogram = Histogram()
        for _ in range(999):
            histogram.observe(1.0)
        histogram.observe(100.0)
        summary = histogram.summary()
        assert summary["p99"] == 1.0
        assert summary["p999"] == 100.0

    def test_empty_histogram_summary_is_zeroed(self):
        summary = Histogram().summary()
        assert summary["count"] == 0
        assert summary["p95"] == 0.0
        assert summary["p999"] == 0.0

    def test_percentile_of_empty_histogram_raises(self):
        with pytest.raises(ReproError):
            Histogram().percentile(99)

    def test_percentile_out_of_range_raises(self):
        histogram = Histogram()
        histogram.observe(1.0)
        with pytest.raises(ReproError):
            histogram.percentile(-0.1)
        with pytest.raises(ReproError):
            histogram.percentile(100.5)

    def test_percentile_single_observation(self):
        histogram = Histogram()
        histogram.observe(42.0)
        for p in (0, 50, 95, 100):
            assert histogram.percentile(p) == 42.0

    def test_percentile_endpoints(self):
        histogram = Histogram()
        for value in (5, 1, 3, 2, 4):
            histogram.observe(value)
        assert histogram.percentile(0) == 1
        assert histogram.percentile(100) == 5


class TestRegistry:
    def test_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    @pytest.mark.parametrize("kind, cls", [
        ("counter", Counter), ("gauge", Gauge), ("histogram", Histogram)])
    def test_hit_constructs_no_instrument(self, monkeypatch, kind, cls):
        registry = MetricsRegistry()
        lookup = getattr(registry, kind)
        first = lookup("x")
        built = []
        original = cls.__init__

        def counting_init(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(cls, "__init__", counting_init)
        assert all(lookup("x") is first for _ in range(5))
        assert built == []
        lookup("y")
        assert len(built) == 1

    def test_snapshot_after_repeated_lookups(self):
        registry = MetricsRegistry()
        for _ in range(3):
            registry.counter("c").inc()
            registry.gauge("g").set(2.5)
            registry.histogram("h").observe(4.0)
        registry.gauge("unset")
        assert registry.snapshot() == {
            "counters": {"c": 3},
            "gauges": {"g": 2.5, "unset": None},
            "histograms": {"h": {
                "count": 3, "total": 12.0, "min": 4.0, "max": 4.0,
                "mean": 4.0, "p50": 4.0, "p90": 4.0, "p95": 4.0,
                "p99": 4.0, "p999": 4.0}},
        }

    def test_snapshot_is_plain_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b").inc(2)
        registry.counter("a").inc()
        registry.gauge("g").set(3.0)
        registry.histogram("h").observe(1.0)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a", "b"]
        assert snapshot["counters"]["b"] == 2
        assert snapshot["gauges"]["g"] == 3.0
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_merge_folds_all_instruments(self):
        one, two = MetricsRegistry(), MetricsRegistry()
        one.counter("c").inc(1)
        two.counter("c").inc(2)
        two.gauge("g").set(7.0)
        one.histogram("h").observe(1.0)
        two.histogram("h").observe(2.0)
        one.merge(two)
        assert one.counter("c").value == 3
        assert one.gauge("g").value == 7.0
        assert sorted(one.histogram("h").observations) == [1.0, 2.0]

    def test_merge_keeps_unset_gauge(self):
        one, two = MetricsRegistry(), MetricsRegistry()
        one.gauge("g").set(5.0)
        two.gauge("g")  # created but never set
        one.merge(two)
        assert one.gauge("g").value == 5.0


def _worker_registry(index: int) -> MetricsRegistry:
    """What one bench worker would fill: counters, gauge, histogram."""
    registry = MetricsRegistry()
    registry.counter("sessions").inc(index + 1)
    registry.counter(f"worker.{index}.private").inc()
    registry.gauge("last_score").set(float(index))
    for value in range(index + 2):
        registry.histogram("bits").observe(float(value * (index + 1)))
    return registry


def _canonical(registry: MetricsRegistry) -> str:
    return json.dumps(registry.snapshot(), sort_keys=True)


class TestMergeAlgebra:
    """merge() must make workers=N indistinguishable from a serial run.

    The parallel bench driver folds per-worker registries into the
    parent *in grid order*; these tests pin the algebra that makes that
    sound: folding pre-filled worker registries one by one equals having
    written every observation into a single registry (serial), and the
    fold is associative, so any grouping of workers gives the same
    snapshot bytes.
    """

    def test_grid_order_fold_matches_serial(self):
        # Serial: one registry sees every observation in grid order.
        serial = MetricsRegistry()
        for index in range(4):
            serial.merge(_worker_registry(index))
        # Parallel: each worker fills a private registry; the parent
        # folds them back in the same grid order.
        parent = MetricsRegistry()
        workers = [_worker_registry(index) for index in range(4)]
        for worker in workers:
            parent.merge(worker)
        assert _canonical(parent) == _canonical(serial)

    def test_merge_is_associative(self):
        # (a ⊕ b) ⊕ c
        left = MetricsRegistry()
        left.merge(_worker_registry(0))
        left.merge(_worker_registry(1))
        left.merge(_worker_registry(2))
        # a ⊕ (b ⊕ c)
        tail = _worker_registry(1)
        tail.merge(_worker_registry(2))
        right = MetricsRegistry()
        right.merge(_worker_registry(0))
        right.merge(tail)
        assert _canonical(left) == _canonical(right)

    def test_counters_and_histograms_commute(self):
        # Gauges are last-write-wins, so only order-insensitive
        # instruments participate in the commutativity claim.
        def build(index):
            registry = MetricsRegistry()
            registry.counter("c").inc(index + 1)
            registry.histogram("h").observe(float(index))
            return registry

        forward = MetricsRegistry()
        forward.merge(build(0))
        forward.merge(build(1))
        backward = MetricsRegistry()
        backward.merge(build(1))
        backward.merge(build(0))
        snap_f, snap_b = forward.snapshot(), backward.snapshot()
        assert snap_f["counters"] == snap_b["counters"]
        assert snap_f["histograms"] == snap_b["histograms"]


class TestObserveSession:
    def _stats(self) -> TransferStats:
        stats = TransferStats()
        stats.forward.record("ElementSMsg", 27)
        stats.forward.record("Halt", 1)
        stats.backward.record("Skip", 5)
        return stats

    def test_standard_instruments(self):
        registry = MetricsRegistry()
        observe_session(registry, self._stats(), protocol="srv")
        snapshot = registry.snapshot()
        assert snapshot["counters"]["srv.sessions"] == 1
        assert snapshot["counters"]["srv.messages.forward.ElementSMsg"] == 1
        assert snapshot["counters"]["srv.messages.backward.Skip"] == 1
        assert snapshot["histograms"]["srv.bits_per_session"]["total"] == 33

    def test_completion_time_optional(self):
        registry = MetricsRegistry()
        observe_session(registry, self._stats(), protocol="srv",
                        completion_time=0.25)
        histogram = registry.histogram("srv.completion_seconds")
        assert histogram.observations == [0.25]
