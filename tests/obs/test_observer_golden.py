"""Golden digests of every observer output.

One small seeded multi-region fleet run under a ClusterMonitor, one
tampered two-site run whose checkers fire, and one small store run under
a ConsistencyMonitor.  Every ring series, digest, dashboard, HTML report
and export of those runs is pinned by its SHA-256: a refactor of the
observers, the dashboard or the exporters must reproduce each byte.

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
        "ef71bc70e5a758e5daa7fc151014978ed9c656d7d2209fd9027ac453a391be9a",
    "fleet.dashboard_truncated":
        "6c6b61ab4bb795180495f48120f5aa532c3f21c0c8baf143e7474d6da61bf34c",
    "fleet.health_summary":
        "1e487faf635e7918b33ab5e5cf133d3c0cb4a9d20aa0301dc0c1318f178dcf82",
    "fleet.html":
        "841f509376411759984c0b6c8196b99a1dcdf89f51d7a1c7865e7b0b6ff20c0d",
    "fleet.otlp":
        "d42d958eb030553aaa8bfd474782c0e2bc52f6650e94c4ef68a734bdfd35658a",
    "fleet.prometheus":
        "c7f5e30ce2cf28fd82cecce687f170a1944957d7cb122a38247aa41e5b3141f6",
    "fleet.registry":
        "5097fc3354a33b6d5f0e29c170013f4cc4422c96da3f7dd0f4d7a17638a22bcd",
    "fleet.series":
        "89430e1c35892025d616832250f7f66cdbf83f393da9f7659c28faf085a23b9f",
    "store.dashboard":
        "6844518ceea1356a08dffaff280c154da74880f6497ae099bbb9c850a5e62513",
    "store.dashboard_truncated":
        "fca548fb784e2fe27d336c9ce20642cd653c57e9ffe490fed488336dd1c2c832",
    "store.html":
        "ecf6653497239d2a9b1e6124f45a131d570c2ac3be820c81bbdfb5ebafe55537",
    "store.otlp":
        "506a7b1dbfe463efd537b708d57c92d1c3d8646c8c653c7884a3e3622fd12020",
    "store.prometheus":
        "69b884308ebf1187b9dd197a8d8033ac56a5a4c18f0ae5c70fa57eb52b7ac1e7",
    "store.registry":
        "c2ca89bea684b98201fd0127dd2b34fbae3e49f5329a67b3d0612b7f9b15379b",
    "store.series":
        "94a7dae7d1471244e186a33471122adac56037eb4f33db51e71bf5bbb4d59d97",
    "store.summary":
        "7804ccd0692efc74901efdd6fd4ba686863e326ca902eb98c2aadb3ce6ccb62f",
    "tampered.dashboard":
        "5a74ad104d002fe6dea5546e61ce21c4a70b7fdbe3423ee65d5769ee611f69b2",
    "tampered.health_summary":
        "ca0581696e2e8cbf0e7895d28b59929c33f63341cfdcc008fb1b11c842cc7193",
    "tampered.html":
        "c6d9a8427850ce1484917b0b4722c93b98ddcf4d4ee1b414f7fa11dfbaa2ceed",
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
