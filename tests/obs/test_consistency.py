"""The consistency observatory: gauges, watermarks, auditor, digest."""

import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvariantViolationError
from repro.obs.consistency import (AUDIT_CHECKS, CONSISTENCY_GAUGE_NAMES,
                                   CONSISTENCY_SCHEMA, DIGEST_SCHEMA_ID,
                                   ConsistencyConfig, ConsistencyMonitor,
                                   validate_consistency)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import CONSISTENCY_VIOLATION, Tracer
from repro.store.kv import ReadResult, SiteStore
from repro.workload.clients import StoreWorkloadConfig, run_store_workload

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Small enough to stay fast, busy enough to exercise every gauge.
SMALL = StoreWorkloadConfig(n_sites=4, n_keys=8, n_clients=8, ops=400,
                            op_interval=0.002, sync_period=0.2, seed=7)


class _FakeSim:
    def __init__(self, now=0.0):
        self.now = now


class _FakeConfig:
    topology = None


class _FakeCluster:
    """The minimal surface ``attach``/``summary`` read from a cluster."""

    def __init__(self, sites, tracer=None):
        self.sites = list(sites)
        self.tracer = tracer
        self.stores = {site: SiteStore(site) for site in sites}
        self.sim = _FakeSim()
        self.config = _FakeConfig()


def _monitored_run(config=SMALL, **monitor_overrides):
    monitor = ConsistencyMonitor(ConsistencyConfig(**monitor_overrides))
    result = run_store_workload(config, monitor=monitor)
    return monitor, result


class TestConfigValidation:
    @pytest.mark.parametrize("overrides", [
        {"cadence": 0.0},
        {"cadence": -1.0},
        {"ring_capacity": 0},
        {"ring_capacity": 2.5},
        {"visibility_k": 0},
        {"worst_keys": -1},
        {"cadence": float("nan")},
    ])
    def test_rejects_nonsense(self, overrides):
        with pytest.raises(ValueError):
            ConsistencyConfig(**overrides)

    def test_monitor_is_one_shot(self):
        monitor = ConsistencyMonitor()
        monitor.attach(_FakeCluster(["S0", "S1"]))
        with pytest.raises(InvariantViolationError):
            monitor.attach(_FakeCluster(["S0", "S1"]))


class TestGauges:
    def test_every_site_records_every_gauge(self):
        monitor, _ = _monitored_run()
        assert monitor.samples > 1
        for site in monitor.sites:
            for name in CONSISTENCY_GAUGE_NAMES:
                series = monitor.series(site, name)
                assert series, f"{site}/{name} recorded no samples"
                times = [time for time, _ in series]
                assert times == sorted(times)

    def test_converged_run_drains_replication_lag(self):
        monitor, result = _monitored_run()
        assert result.converged
        for site in monitor.sites:
            assert monitor.latest(site, "replication_lag") == 0.0

    def test_gauges_flow_into_a_metrics_registry(self):
        metrics = MetricsRegistry()
        monitor = ConsistencyMonitor(ConsistencyConfig(), metrics=metrics)
        run_store_workload(SMALL, monitor=monitor)
        assert metrics.counter("consistency.samples").value == monitor.samples
        site = monitor.sites[0]
        for name in CONSISTENCY_GAUGE_NAMES:
            gauge = metrics.gauge(f"consistency.{site}.{name}")
            assert gauge.value == monitor.latest(site, name)


class TestVisibilityWatermarks:
    def test_all_writes_become_visible_on_convergence(self):
        monitor, result = _monitored_run()
        assert result.converged
        digest = result.consistency
        assert digest["writes_tracked"] == result.writes + result.deletes
        assert digest["writes_visible_all"] == digest["writes_tracked"]
        assert digest["writes_pending"] == 0
        assert monitor.w_all.summary()["count"] == digest["writes_tracked"]

    def test_w_k_never_exceeds_w_all(self):
        _, result = _monitored_run()
        w_k = result.consistency["w_k_seconds"]
        w_all = result.consistency["w_all_seconds"]
        for quantile in ("p50", "p90", "p99", "p999", "max"):
            assert w_k[quantile] <= w_all[quantile]

    def test_k_one_means_instant_visibility_at_the_coordinator(self):
        _, result = _monitored_run(visibility_k=1)
        w_k = result.consistency["w_k_seconds"]
        assert result.consistency["visibility_k"] == 1
        assert w_k["max"] == 0.0

    def test_k_caps_at_the_fleet_size(self):
        _, result = _monitored_run(visibility_k=99)
        assert result.consistency["visibility_k"] == SMALL.n_sites

    def test_watermark_regression_is_a_violation(self):
        monitor = ConsistencyMonitor()
        monitor.attach(_FakeCluster(["S0", "S1"]))
        monitor.on_absorb("S0", "key", updated_at=2.0, now=2.0)
        assert monitor.violation_count == 0
        monitor.on_absorb("S0", "key", updated_at=1.0, now=3.0)
        assert monitor.violation_count == 1
        assert monitor.violations[0].check == "visibility_watermark"

    def test_strict_mode_raises_on_first_violation(self):
        monitor = ConsistencyMonitor(ConsistencyConfig(strict=True))
        monitor.attach(_FakeCluster(["S0", "S1"]))
        monitor.on_absorb("S0", "key", updated_at=2.0, now=2.0)
        with pytest.raises(InvariantViolationError):
            monitor.on_absorb("S0", "key", updated_at=1.0, now=3.0)

    def test_violations_emit_trace_events(self):
        tracer = Tracer()
        monitor = ConsistencyMonitor()
        monitor.attach(_FakeCluster(["S0", "S1"], tracer=tracer))
        monitor.on_absorb("S0", "key", updated_at=2.0, now=2.0)
        monitor.on_absorb("S0", "key", updated_at=1.0, now=3.0)
        events = [event for event in tracer.events
                  if event.kind == CONSISTENCY_VIOLATION]
        assert len(events) == 1
        assert events[0].fields["check"] == "visibility_watermark"

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.tuples(st.sampled_from(["S0", "S1", "S2"]),
                              st.sampled_from(["a", "b"]),
                              st.floats(min_value=0.0, max_value=100.0,
                                        allow_nan=False)),
                    max_size=40))
    def test_monotone_feeds_never_violate(self, events):
        """Per-(site, key) running-max feeds — the shape real absorbs
        produce, since ``KeyRecord.updated_at`` only moves forward —
        ratchet the watermark without ever tripping the checker."""
        monitor = ConsistencyMonitor()
        monitor.attach(_FakeCluster(["S0", "S1", "S2"]))
        high = {}
        now = 0.0
        for site, key, value in events:
            high[(site, key)] = max(high.get((site, key), 0.0), value)
            now = max(now, value)
            monitor.on_absorb(site, key, updated_at=high[(site, key)],
                              now=now)
            assert monitor.key_watermark(site, key) == high[(site, key)]
        assert monitor.violation_count == 0


class TestAuditor:
    def _read(self, key, values, context):
        return ReadResult(key=key, values=tuple(values), context=context)

    def test_read_your_writes_violation(self):
        monitor = ConsistencyMonitor()
        monitor.audit_op(1, "put", "k", self._read("k", ("v1",),
                                                   {"S0": 3}), 1.0)
        monitor.audit_op(1, "get", "k", self._read("k", ("v0",),
                                                   {"S0": 1}), 2.0)
        assert monitor.audit_counts()["read_your_writes"] == 1

    def test_monotonic_reads_violation(self):
        monitor = ConsistencyMonitor()
        monitor.audit_op(2, "get", "k", self._read("k", ("v1",),
                                                   {"S0": 3}), 1.0)
        monitor.audit_op(2, "get", "k", self._read("k", ("v1",),
                                                   {"S0": 1}), 2.0)
        assert monitor.audit_counts()["monotonic_reads"] == 1

    def test_resurrection_is_flagged_once_per_value(self):
        monitor = ConsistencyMonitor()
        monitor.audit_op(3, "get", "k", self._read("k", ("old", "new"),
                                                   {"S0": 1}), 1.0)
        monitor.audit_op(3, "get", "k", self._read("k", ("new",),
                                                   {"S0": 2}), 2.0)
        monitor.audit_op(3, "get", "k", self._read("k", ("old", "new"),
                                                   {"S0": 3}), 3.0)
        monitor.audit_op(3, "get", "k", self._read("k", ("old", "new"),
                                                   {"S0": 4}), 4.0)
        assert monitor.audit_counts()["resurrection"] == 1

    def test_clean_session_passes_every_check(self):
        monitor = ConsistencyMonitor()
        monitor.audit_op(4, "put", "k", self._read("k", ("v1",),
                                                   {"S0": 1}), 1.0)
        monitor.audit_op(4, "get", "k", self._read("k", ("v1",),
                                                   {"S0": 1}), 2.0)
        monitor.audit_op(4, "get", "k", self._read("k", ("v2",),
                                                   {"S0": 2}), 3.0)
        assert monitor.violation_count == 0

    def test_audit_off_skips_the_checks(self):
        monitor = ConsistencyMonitor(ConsistencyConfig(audit=False))
        monitor.audit_op(5, "put", "k", self._read("k", ("v1",),
                                                   {"S0": 3}), 1.0)
        monitor.audit_op(5, "get", "k", self._read("k", ("v0",),
                                                   {"S0": 1}), 2.0)
        assert monitor.violation_count == 0

    def test_workload_resurrection_fires_end_to_end(self):
        """The documented union-resurrection limitation (docs/STORE.md)
        is now a measured quantity: a contended workload trips the
        auditor's resurrection check."""
        config = StoreWorkloadConfig(n_sites=4, n_keys=8, n_clients=16,
                                     ops=1500, seed=0)
        monitor, result = _monitored_run(config)
        audit = result.consistency["audit"]
        assert audit["ops_audited"] == config.ops
        assert audit["resurrections"] > 0
        assert audit["clients_affected"] > 0
        worst = result.consistency["worst_keys"]
        assert worst[0]["violations"] >= max(entry["violations"]
                                             for entry in worst)


class TestDigest:
    def test_digest_validates_against_its_schema(self):
        _, result = _monitored_run()
        assert validate_consistency(result.consistency) == []
        assert result.consistency["schema"] == DIGEST_SCHEMA_ID

    def test_checked_in_schema_matches_the_source(self):
        path = REPO_ROOT / "schemas" / "repro.obs.consistency.schema.json"
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle) == CONSISTENCY_SCHEMA

    def test_schema_rejects_a_broken_digest(self):
        _, result = _monitored_run()
        digest = dict(result.consistency)
        digest.pop("w_all_seconds")
        digest["samples"] = -1
        errors = validate_consistency(digest)
        assert any("w_all_seconds" in error for error in errors)
        assert any("samples" in error for error in errors)

    def test_two_monitored_runs_are_byte_identical(self):
        _, first = _monitored_run()
        _, second = _monitored_run()
        assert (json.dumps(first.consistency, sort_keys=True)
                == json.dumps(second.consistency, sort_keys=True))
        assert first.digest() == second.digest()

    def test_monitored_store_digest_matches_unmonitored(self):
        """``monitor=None`` is the byte-identical default: attaching the
        observatory must not perturb the workload's own digest.  The
        fingerprint is pinned so a change to *both* paths at once cannot
        slip through as "still equal".  (Re-pinned when store sessions
        came to work on copies: a write at a session's sender no longer
        waits for it, so the puts' contexts and the final siblings
        moved; and again when a read-repair came to bar only the
        clients it handed its union: 38 deferred ops fell to 19, and the
        schedule and final siblings moved.)"""
        baseline = run_store_workload(SMALL).digest()
        _, monitored = _monitored_run()
        assert monitored.digest() == baseline
        assert baseline["state_sha256"] == (
            "0bcc3c6b2fc6984bd8b1d23a5065da3bab4dc6f72e774a87e1a76e6651fbbe70")

    def test_worst_keys_limit_is_honored(self):
        monitor, _ = _monitored_run(worst_keys=2)
        assert len(monitor.summary()["worst_keys"]) <= 2

    def test_audit_checks_all_reported(self):
        _, result = _monitored_run()
        audit = result.consistency["audit"]
        for check in AUDIT_CHECKS:
            name = "resurrections" if check == "resurrection" else check
            assert name in audit
