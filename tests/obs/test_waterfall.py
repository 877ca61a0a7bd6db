"""Tests for the waterfall renderers and HTML name escaping."""

from repro.net.channel import ChannelSpec
from repro.net.cluster import ClusterConfig, ClusterRunner
from repro.net.wire import Encoding
from repro.obs.causal import analyze_tracer
from repro.obs.dashboard import render_html_report
from repro.obs.monitor import ClusterMonitor, MonitorConfig
from repro.obs.trace import Tracer
from repro.obs.waterfall import (render_waterfall, render_waterfall_html,
                                 write_waterfall_html)
from repro.workload.cluster import SessionRequest, UpdateRequest

ENC = Encoding(site_bits=8, value_bits=16)
CHANNEL = ChannelSpec(latency=0.05, bandwidth=1e5)

#: A site name that is an XSS attempt as far as any HTML report knows.
HOSTILE = 'B<script>alert("x")&'


def analyzed_run(sites=("A", "B", "C"), monitor=None):
    """A small star run returning its analysis document."""
    sites = list(sites)
    tracer = Tracer()
    runner = ClusterRunner(
        sites,
        ClusterConfig(protocol="brv", channel=CHANNEL, encoding=ENC),
        tracer=tracer, monitor=monitor)
    runner.run(
        [SessionRequest(0.1, sites[0], sites[1]),
         SessionRequest(0.15, sites[0], sites[2])],
        [UpdateRequest(0.0, sites[0])])
    return analyze_tracer(tracer).to_dict()


class TestTerminalWaterfall:
    def test_renders_hops_sessions_and_attribution(self):
        text = render_waterfall(analyzed_run())
        assert "converged=yes" in text
        assert "critical path:" in text
        assert "attribution:" in text
        assert "sessions:" in text
        assert "░" in text  # latency-dominated transmit hops

    def test_empty_document_renders_placeholder(self):
        text = render_waterfall({"mode": "wire", "converged": False})
        assert "nothing to draw" in text


class TestHtmlWaterfall:
    def test_self_contained_html(self, tmp_path):
        document = analyzed_run()
        html = render_waterfall_html(document)
        assert html.startswith("<!DOCTYPE html>")
        assert "Convergence critical path" in html
        assert "http://" not in html and "https://" not in html
        path = tmp_path / "waterfall.html"
        write_waterfall_html(path, document)
        assert path.read_text(encoding="utf-8") == html

    def test_hostile_site_names_are_escaped(self):
        document = analyzed_run(sites=("A", HOSTILE, "C"))
        html = render_waterfall_html(document, title=HOSTILE)
        assert "<script>" not in html
        assert "B&lt;script&gt;" in html

    def test_hostile_names_escaped_in_terminal_output_too(self):
        # Terminal output is not an injection surface, but the name must
        # still round-trip legibly.
        text = render_waterfall(analyzed_run(sites=("A", HOSTILE, "C")))
        assert HOSTILE in text


class TestDashboardEscaping:
    """ISSUE satellite: the PR 5 dashboard must escape site names."""

    def test_hostile_site_and_label_names_are_escaped(self):
        monitor = ClusterMonitor(MonitorConfig())
        analyzed_run(sites=("A", HOSTILE, "C"), monitor=monitor)
        html = render_html_report({HOSTILE: monitor}, title=HOSTILE)
        assert "<script>" not in html
        assert "B&lt;script&gt;" in html
