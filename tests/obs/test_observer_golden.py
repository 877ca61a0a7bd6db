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
        "4e46ae85efa4498d08d809f3192642bef964bb7ce3b89150f422ad485b30b0f4",
    "fleet.dashboard_truncated":
        "0794a3ec7d99360613909783b0d5adca6343b56b760cf5a17edee7b606ff5f97",
    "fleet.health_summary":
        "1bd23f83f1c092cb670282a837b37488cac33297b4349e7bdca7cd2e389232bf",
    "fleet.html":
        "05e2ff77f8d2b9ddf28e53c39e2484331ecb98389723e8420e586df487e62c2e",
    "fleet.otlp":
        "bb18f1ef8a006f2f998753c8bba30c2855f5d073a06ce02750363ee158b4015f",
    "fleet.prometheus":
        "d3c58b5d370a2aa53f249e038308a4ec40d38a2ca91fd87b5f7d40c8be172b4e",
    "fleet.registry":
        "530d1f248e5911d7400be682ea47f7ca950de19240a5f1487220d19df4a777f4",
    "fleet.series":
        "54239a6bc9522389c7925f2943e273a34dbd36f8e40bdb5b5f857aee5af07f82",
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
        "4d5d60bafbb60901f0a765c9f4bd14b1d60f2f915dfdf3f9a7aa3d268178bceb",
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
    record = SimpleNamespace(index=0, src="A", dst="B")
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
