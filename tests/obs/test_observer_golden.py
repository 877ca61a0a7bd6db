"""Golden digests of every observer output.

One small seeded multi-region fleet run under a ClusterMonitor, one
tampered two-site run whose checkers fire, and one small store run under
a ConsistencyMonitor.  Every ring series, digest, dashboard, HTML report
and export of those runs is pinned by its SHA-256: a refactor of the
observers, the dashboard or the exporters must reproduce each byte.

The ``*.otlp``, ``*.registry``, ``*.series``, ``store.prometheus`` and
``store.summary`` digests were re-pinned when the simulated clock became
integer nanoseconds: every output kept its structure and every integer,
and only float time values moved, each by under 0.03 µs.

The ``fleet.*`` digests other than ``fleet.health_summary``, and
``tampered.html`` (which embeds the fleet), were re-pinned when a fleet
session came to hold only the objects it syncs: the sharded fleet's
sessions on disjoint objects overlap at a site, so its queue wait fell
from 3.82 s to 0.90 s over the same 27 sessions, the start order and
with it each session's fault draws moved (7 retries to 6, 788 bits to
787), and the sampled gauges and per-site pressure followed.

``fleet.otlp`` was re-pinned when the session-capacity knob went: the
run span lost its ``fanout`` attribute and nothing else moved.

To re-pin after an intended output change, run this file directly
(``PYTHONPATH=src python tests/obs/test_observer_golden.py``); it prints
the new table.
"""

import hashlib
import json
from types import SimpleNamespace

import pytest

from repro.net.channel import ChannelSpec
from repro.net.cluster import ClusterConfig, ClusterRunner
from repro.net.stats import TransferStats
from repro.net.wire import Encoding
from repro.obs.cli import run_monitored_region_fleet
from repro.obs.consistency import (CONSISTENCY_GAUGE_NAMES,
                                   ConsistencyConfig, ConsistencyMonitor)
from repro.obs.dashboard import (render_consistency_dashboard,
                                 render_consistency_html_report,
                                 render_dashboard, render_html_report)
from repro.obs.exporters import to_otlp, to_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import GAUGE_NAMES, ClusterMonitor, MonitorConfig
from repro.workload.clients import StoreWorkloadConfig, run_store_workload

#: SHA-256 of each output, by name.
GOLDEN = {
    "fleet.dashboard":
        "b18acacf81f5094a7f33b6d4c07df741deb3437d08d51e81677867b8e9603c22",
    "fleet.dashboard_truncated":
        "98b1a056c3087d4eb7fbbbb5bcbb654f9cc2340bf7c8ea13b8924b9ae09bdd4b",
    "fleet.health_summary":
        "1bd23f83f1c092cb670282a837b37488cac33297b4349e7bdca7cd2e389232bf",
    "fleet.html":
        "573cf387220d9de32893acae54e8a6ab9e47937a63d32e9dc80ff2117c3d036d",
    "fleet.otlp":
        "a8f74c8d190491db605ad509cd1aa6a016837ec6a527659866eb571feb2f60d9",
    "fleet.prometheus":
        "a2e9e0616ae52e3dda3cfffdb46cb960893401e22c721a56b0528bf20876c1bd",
    "fleet.registry":
        "a59e85f291553d1e68a5a3e66eb9af286fc358d3420f0e1ed2813171c88ba241",
    "fleet.series":
        "a627ea622455e8b61b39b8406d8f7f231431e39a6b20c696acf6f0e798faa89f",
    "store.dashboard":
        "92a4e8a7cc34f99845638493859f70d04f68345954ba898772ec4ec228885d2b",
    "store.dashboard_truncated":
        "1a0b4ebaf010576ba4480c9e20db17d88dec0bcb541c0201d7e98f986dd01008",
    "store.html":
        "c1ea2dd3aff46775bac1de7ac7214b92806a39d48e9ee7441e657ccce81e4faa",
    "store.otlp":
        "81b4b51763e7673ad3ef269d866ad09d0f58dda9625a5356bcaffaefeb2bb71f",
    "store.prometheus":
        "2fdf8ff1d91db01d0093876f751cea33632fb6237777849f0e0f58e4a7ffd7b9",
    "store.registry":
        "2ee52b6ff0bed54d826c54395750934fc4b2c5f9a2a1c39d6bd9ff0e6452dacc",
    "store.series":
        "aeddb10b1ab995c300da53c5df77292ecb30f49aa3c9a5669aa5063de7dc1fef",
    "store.summary":
        "d14787c014ad3540ff30714004ddc1de88fb13eef553dd3c2a0ca21da9f063e9",
    "tampered.dashboard":
        "5a74ad104d002fe6dea5546e61ce21c4a70b7fdbe3423ee65d5769ee611f69b2",
    "tampered.health_summary":
        "ca0581696e2e8cbf0e7895d28b59929c33f63341cfdcc008fb1b11c842cc7193",
    "tampered.html":
        "ee1b5d5ce3e789efb158a499ad3b77df361df845f1daa9c2408d3b73b9e71d19",
    "tampered.otlp":
        "f08aaa1a89eaf929f43288c6384623d00d0f8b514a05b2f35a87d4f03c30752d",
    "tampered.prometheus":
        "a2bfed2a397071c6f2d2c93f8d2efb3cf21bbe6fd58fe167e9a3aaa6614dcea8",
    "tampered.series":
        "6e9715ec1c7a55ed2239bbf584ed2cbd5cde1ab253d94f7ae331ca750635dd9b",
}

#: Few keys under many clients, so the auditor counts resurrections.
STORE = StoreWorkloadConfig(n_sites=4, n_keys=4, n_clients=16, ops=600,
                            op_interval=0.002, sync_period=0.2, seed=7)


def _json(value):
    return json.dumps(value, sort_keys=True).encode()


def _series(monitor, names):
    return _json({site: {name: monitor.series(site, name)
                         for name in names}
                  for site in monitor.sites})


def _otlp(*args, **kwargs):
    return _json(to_otlp(*args, **kwargs))


def _tampered_monitor():
    """A two-site run whose closure and totals checkers both fire."""
    monitor = ClusterMonitor(MonitorConfig(spot_check_period=0))
    runner = ClusterRunner(
        ["A", "B"],
        ClusterConfig(protocol="srv",
                      channel=ChannelSpec(latency=0.05, bandwidth=1e5),
                      encoding=Encoding(site_bits=8, value_bits=16)),
        monitor=monitor)
    monitor.attach(runner)
    record = SimpleNamespace(index=0, src="A", dst="B", objects=(0,))
    monitor.on_session_start(record)
    runner.objects["B"][0].record_update("B")
    stats = TransferStats()
    stats.forward.record("ElementSMsg", 32)
    monitor.on_session_commit(record)
    monitor.on_session_end(record, SimpleNamespace(stats=stats))
    monitor.finalize()
    return monitor, runner


def observer_outputs():
    """Every pinned output, by name, as bytes.

    The fleet's lossy WAN gives it ARQ pressure, and its topology and
    shard map give it the per-region and shard rollups.
    """
    outputs = {}
    registry = MetricsRegistry()
    fleet, runner, _ = run_monitored_region_fleet(
        "srv", regions=2, sites_per_region=3, n_objects=8, rounds=1,
        loss=0.1, metrics=registry)
    outputs["fleet.series"] = _series(fleet, GAUGE_NAMES)
    outputs["fleet.health_summary"] = _json(fleet.health_summary())
    outputs["fleet.registry"] = _json(registry.snapshot())
    outputs["fleet.dashboard"] = render_dashboard(fleet).encode()
    outputs["fleet.dashboard_truncated"] = render_dashboard(
        fleet, max_sites=2, offenders=3, width=8).encode()
    outputs["fleet.html"] = render_html_report({"srv": fleet}).encode()
    outputs["fleet.prometheus"] = to_prometheus(monitor=fleet).encode()
    outputs["fleet.otlp"] = _otlp(runner.tracer, monitor=fleet)

    tampered, tampered_runner = _tampered_monitor()
    outputs["tampered.series"] = _series(tampered, GAUGE_NAMES)
    outputs["tampered.health_summary"] = _json(tampered.health_summary())
    outputs["tampered.dashboard"] = render_dashboard(tampered).encode()
    outputs["tampered.html"] = render_html_report(
        {"srv": fleet, "tampered": tampered}).encode()
    outputs["tampered.prometheus"] = to_prometheus(
        monitor=tampered).encode()
    outputs["tampered.otlp"] = _otlp(tampered_runner.tracer,
                                     monitor=tampered)

    store_registry = MetricsRegistry()
    store = ConsistencyMonitor(ConsistencyConfig(), metrics=store_registry)
    result = run_store_workload(STORE, monitor=store)
    outputs["store.series"] = _series(store, CONSISTENCY_GAUGE_NAMES)
    outputs["store.summary"] = _json(store.summary())
    outputs["store.registry"] = _json(store_registry.snapshot())
    outputs["store.dashboard"] = render_consistency_dashboard(
        store).encode()
    outputs["store.dashboard_truncated"] = render_consistency_dashboard(
        store, max_sites=2, offenders=3, width=8).encode()
    outputs["store.html"] = render_consistency_html_report(
        {"store:srv": store}).encode()
    outputs["store.prometheus"] = to_prometheus(
        consistency=store).encode()
    outputs["store.otlp"] = _otlp(store.tracer, result.metrics,
                                  consistency=store,
                                  service_name="repro-store")
    return outputs


def digests():
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in observer_outputs().items()}


@pytest.fixture(scope="module")
def computed():
    return digests()


def test_every_output_is_pinned(computed):
    assert sorted(computed) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden(computed, name):
    assert computed[name] == GOLDEN[name], name


if __name__ == "__main__":
    for name, digest in sorted(digests().items()):
        print(f'    "{name}":\n        "{digest}",')
