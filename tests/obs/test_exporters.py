"""Tests for the Prometheus/OTLP exporters, schema validator, dashboard."""

import json
import pathlib

import pytest

from repro.errors import ValidationError
from repro.net.channel import ChannelSpec
from repro.net.cluster import ClusterConfig, ClusterRunner
from repro.net.wire import Encoding
from repro.obs.consistency import ConsistencyConfig, ConsistencyMonitor
from repro.obs.dashboard import (render_consistency_dashboard,
                                 render_consistency_html_report,
                                 render_dashboard, render_html_report,
                                 sparkline, write_consistency_html_report,
                                 write_html_report)
from repro.obs.exporters import to_otlp, to_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import ClusterMonitor, MonitorConfig
from repro.obs.otlp_schema import OTLP_SCHEMA, validate, validate_otlp
from repro.obs.trace import Tracer
from repro.workload.cluster import (gossip_schedule, site_names,
                                    update_schedule)
from repro.workload.clients import StoreWorkloadConfig, run_store_workload

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
ENC = Encoding(site_bits=8, value_bits=16)


def monitored_fixture(protocol="srv", n_sites=3):
    """One small monitored + traced + metered cluster run."""
    sites = site_names(n_sites)
    registry = MetricsRegistry()
    monitor = ClusterMonitor(MonitorConfig(), metrics=registry)
    config = ClusterConfig(protocol=protocol, encoding=ENC,
                           channel=ChannelSpec(latency=0.01, bandwidth=1e6))
    runner = ClusterRunner(sites, config, monitor=monitor, metrics=registry)
    sessions = gossip_schedule(sites, rounds=2, seed=1)
    updates = update_schedule(sites, n_updates=4, interval=0.1, seed=2)
    runner.run(sessions, updates)
    return monitor, runner, registry


def consistency_fixture():
    """One small consistency-monitored store workload run."""
    monitor = ConsistencyMonitor(ConsistencyConfig())
    result = run_store_workload(
        StoreWorkloadConfig(n_sites=4, n_keys=8, n_clients=8, ops=400,
                            op_interval=0.002, sync_period=0.2, seed=7),
        monitor=monitor)
    return monitor, result


class TestPrometheus:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.counter("sessions").inc(3)
        registry.gauge("score").set(0.5)
        registry.histogram("bits").observe(10.0)
        text = to_prometheus(registry)
        assert "# TYPE repro_sessions_total counter" in text
        assert "repro_sessions_total 3" in text
        assert "# TYPE repro_score gauge" in text
        assert "repro_score 0.5" in text
        assert "# TYPE repro_bits summary" in text
        assert 'repro_bits{quantile="0.95"} 10' in text
        assert "repro_bits_sum 10" in text
        assert "repro_bits_count 1" in text
        assert text.endswith("\n")

    def test_unset_gauge_omitted(self):
        registry = MetricsRegistry()
        registry.gauge("never_set")
        assert "never_set" not in to_prometheus(registry)

    def test_names_sanitized(self):
        registry = MetricsRegistry()
        registry.counter("srv.messages.forward").inc()
        assert "repro_srv_messages_forward_total 1" in to_prometheus(registry)

    def test_monitor_series_labeled_by_site(self):
        monitor, _, _ = monitored_fixture()
        text = to_prometheus(monitor=monitor)
        assert "# TYPE repro_monitor_convergence_score gauge" in text
        assert 'repro_monitor_convergence_score{site="S000"} ' in text
        assert "repro_monitor_invariant_violations_total 0" in text
        assert f"repro_monitor_samples_total {monitor.samples}" in text
        assert ('repro_monitor_pressure_events_total'
                '{site="S000",kind="retries"} 0') in text

    def test_summary_carries_the_p999_quantile(self):
        registry = MetricsRegistry()
        registry.histogram("bits").observe(10.0)
        text = to_prometheus(registry)
        assert 'repro_bits{quantile="0.999"} 10' in text

    def test_consistency_families(self):
        monitor, _ = consistency_fixture()
        text = to_prometheus(consistency=monitor)
        assert "# TYPE repro_consistency_replication_lag gauge" in text
        assert "# TYPE repro_consistency_sibling_population gauge" in text
        assert 'repro_consistency_replication_lag{site="S000"} ' in text
        assert ("# TYPE repro_consistency_visibility_wall_seconds summary"
                in text)
        assert 'repro_consistency_visibility_wall_seconds{quantile="0.999"}' \
            in text
        assert (f"repro_consistency_samples_total {monitor.samples}"
                in text)
        assert (f"repro_consistency_violations_total "
                f"{monitor.violation_count}" in text)
        assert 'repro_consistency_violations_total{check="resurrection"}' \
            in text

    def test_empty_export_is_empty(self):
        assert to_prometheus() == ""

    @staticmethod
    def _typed_names(text):
        return [line.split()[2] for line in text.splitlines()
                if line.startswith("# TYPE ")]

    def test_monitor_sharing_a_registry_writes_each_family_once(self):
        registry = MetricsRegistry()
        monitor = ClusterMonitor(MonitorConfig(), metrics=registry)
        runner = ClusterRunner(site_names(2), ClusterConfig(
            protocol="srv", encoding=ENC,
            channel=ChannelSpec(latency=0.01, bandwidth=1e6)),
            monitor=monitor, metrics=registry)
        runner.run(gossip_schedule(runner.sites, rounds=1, seed=1))
        # Count one violation so the registry also holds the
        # invariant-violation counter the monitor's family names.
        monitor._violate("accounting", 0.0, "injected")
        text = to_prometheus(registry, monitor)
        names = self._typed_names(text)
        assert len(names) == len(set(names))
        # The observer's own families are the ones kept.
        assert f"repro_monitor_samples_total {monitor.samples}\n" in text
        assert "repro_monitor_invariant_violations_total 1\n" in text
        assert "repro_monitor_spot_checks_total" in names

    def test_consistency_sharing_a_registry_writes_each_family_once(self):
        registry = MetricsRegistry()
        monitor = ConsistencyMonitor(ConsistencyConfig(), metrics=registry)
        run_store_workload(
            StoreWorkloadConfig(n_sites=4, n_keys=4, n_clients=16, ops=600,
                                op_interval=0.002, sync_period=0.2, seed=7),
            metrics=registry, monitor=monitor)
        assert monitor.violation_count > 0
        text = to_prometheus(registry, consistency=monitor)
        names = self._typed_names(text)
        assert len(names) == len(set(names))
        assert (f"repro_consistency_samples_total {monitor.samples}\n"
                in text)
        assert (f"repro_consistency_violations_total "
                f"{monitor.violation_count}\n" in text)


class TestOtlp:
    def test_full_export_validates(self):
        monitor, runner, registry = monitored_fixture()
        document = to_otlp(tracer=runner.tracer, metrics=registry,
                           monitor=monitor)
        assert validate_otlp(document) == []

    def test_round_trips_through_json(self):
        monitor, runner, registry = monitored_fixture()
        document = to_otlp(tracer=runner.tracer, metrics=registry,
                           monitor=monitor)
        assert validate_otlp(json.loads(json.dumps(document))) == []

    def test_spans_cover_every_session(self):
        monitor, runner, _ = monitored_fixture()
        document = to_otlp(tracer=runner.tracer, monitor=monitor)
        spans = document["resourceSpans"][0]["scopeSpans"][0]["spans"]
        assert spans
        for span in spans:
            assert len(span["traceId"]) == 32
            assert len(span["spanId"]) == 16
            assert int(span["endTimeUnixNano"]) \
                >= int(span["startTimeUnixNano"])

    def test_monitor_series_become_gauge_points(self):
        monitor, _, _ = monitored_fixture()
        document = to_otlp(monitor=monitor)
        metrics = (document["resourceMetrics"][0]
                   ["scopeMetrics"][0]["metrics"])
        by_name = {entry["name"]: entry for entry in metrics}
        gauge = by_name["repro.monitor.convergence_score"]
        points = gauge["gauge"]["dataPoints"]
        # One data point per (site, sample), attributed by site.
        assert len(points) == monitor.samples * len(monitor.sites)
        sites = {attr["value"]["stringValue"]
                 for point in points for attr in point["attributes"]
                 if attr["key"] == "site"}
        assert sites == set(monitor.sites)
        violations = by_name["repro.monitor.invariant_violations"]
        assert violations["sum"]["isMonotonic"] is True

    def test_consistency_export_validates(self):
        monitor, result = consistency_fixture()
        document = to_otlp(monitor.tracer, result.metrics,
                           consistency=monitor)
        assert validate_otlp(document) == []
        metrics = (document["resourceMetrics"][0]
                   ["scopeMetrics"][0]["metrics"])
        by_name = {entry["name"]: entry for entry in metrics}
        lag = by_name["repro.consistency.replication_lag"]
        points = lag["gauge"]["dataPoints"]
        assert len(points) == monitor.samples * len(monitor.sites)
        w_all = by_name["repro.consistency.visibility_wall_seconds"]
        point = w_all["summary"]["dataPoints"][0]
        quantiles = {entry["quantile"]
                     for entry in point["quantileValues"]}
        assert 0.999 in quantiles

    def test_empty_export_still_validates(self):
        assert validate_otlp(to_otlp(tracer=Tracer())) == []


class TestSchemaValidator:
    def test_missing_required_key(self):
        errors = validate({"a": 1}, {"type": "object", "required": ["b"]})
        assert errors == ["$: missing required key 'b'"]

    def test_type_mismatch_stops_descent(self):
        errors = validate("not-a-dict", OTLP_SCHEMA)
        assert len(errors) == 1
        assert "expected object" in errors[0]

    def test_pattern_and_enum(self):
        schema = {"type": "object", "properties": {
            "n": {"type": "string", "pattern": r"^[0-9]+$"},
            "k": {"enum": [1, 2]},
        }}
        assert validate({"n": "42", "k": 1}, schema) == []
        errors = validate({"n": "4x2", "k": 7}, schema)
        assert any("does not match" in e for e in errors)
        assert any("not in" in e for e in errors)

    def test_minimum_excludes_booleans(self):
        schema = {"properties": {"q": {"minimum": 0}}}
        assert validate({"q": -1}, schema)
        assert validate({"q": True}, schema) == []

    def test_items_reports_index(self):
        schema = {"type": "array", "items": {"type": "integer"}}
        errors = validate([1, "two", 3], schema)
        assert errors == ["$[1]: expected integer, got str"]

    def test_bad_span_id_rejected(self):
        document = to_otlp(tracer=Tracer())
        document["resourceSpans"][0]["scopeSpans"][0]["spans"] = [{
            "traceId": "x" * 32, "spanId": "1" * 16, "name": "s",
            "kind": 1, "startTimeUnixNano": "0", "endTimeUnixNano": "0",
        }]
        errors = validate_otlp(document)
        assert any("traceId" in e for e in errors)

    def test_checked_in_schema_file_matches_embedded(self):
        path = REPO_ROOT / "schemas" / "repro.obs.otlp.schema.json"
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle) == OTLP_SCHEMA


class TestSparkline:
    def test_empty_is_blank(self):
        assert sparkline([]).strip() == ""

    def test_width_respected(self):
        line = sparkline(list(range(100)), width=8)
        assert len(line) == 8

    def test_rising_series_rises(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0], width=4)
        assert line[0] < line[-1]

    def test_flat_positive_renders_high(self):
        line = sparkline([5.0, 5.0], width=2)
        assert set(line) <= {"█", "▇"}

    @pytest.mark.parametrize("width", [0, -1])
    @pytest.mark.parametrize("values", [[], [1.0, 2.0]])
    def test_rejects_width_below_one(self, values, width):
        with pytest.raises(ValidationError, match="width"):
            sparkline(values, width=width)


class TestDashboard:
    def test_renders_sites_and_gauges(self):
        monitor, _, _ = monitored_fixture()
        text = render_dashboard(monitor)
        for site in monitor.sites:
            assert site in text
        assert "score" in text
        assert "all checks passed" in text

    def test_html_report_is_self_contained(self, tmp_path):
        monitor, _, _ = monitored_fixture()
        html = render_html_report({"srv": monitor})
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html
        assert "srv" in html
        # Self-contained: no external fetches of any kind.
        assert "http://" not in html and "https://" not in html
        path = tmp_path / "report.html"
        write_html_report(path, {"srv": monitor})
        assert path.read_text(encoding="utf-8") == html


class TestConsistencyDashboard:
    def test_renders_sites_gauges_and_audit(self):
        monitor, _ = consistency_fixture()
        text = render_consistency_dashboard(monitor)
        for site in monitor.sites:
            assert site in text
        assert "repl lag" in text
        assert "write visibility" in text
        assert "worst keys" in text

    def test_html_report_is_self_contained(self, tmp_path):
        monitor, _ = consistency_fixture()
        html = render_consistency_html_report({"store:srv": monitor})
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html
        assert "store:srv" in html
        assert "http://" not in html and "https://" not in html
        path = tmp_path / "consistency.html"
        write_consistency_html_report(path, {"store:srv": monitor})
        assert path.read_text(encoding="utf-8") == html
