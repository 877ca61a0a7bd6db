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

The ``store.*`` digests were re-pinned when store sessions came to work
on copies: gets no longer wait for a session at either endpoint, nor
writes at its sender, so the store run's deferred ops fell from 195 to
65 and its schedule moved (153 sessions to 145, 123 read-repairs to
115, 46,432 wire bits to 45,510); the audit still finds 0
read-your-writes and 0 monotonic-reads violations.

The ``fleet.dashboard``, ``fleet.dashboard_truncated``, ``fleet.html``,
``fleet.otlp`` and ``fleet.series`` digests, and ``tampered.html``, were
re-pinned when a fleet attempt on a faulted link came to merge into
copies that its commit installs: a gauge sample taken mid-session at
such a receiver now reads its committed state, not a half-merged vector.
15 of the 612 gauge samples moved, at unchanged sample times, and the
run's sessions, bits and schedule did not.

The ``store.*`` digests were re-pinned again when a read-repair came
to bar only the clients it handed its union, not every read of its key:
the store run's deferred ops fell from 65 to 20 (12 of them reads a
repair barred), and its schedule moved (145 sessions to 148, 115
read-repairs to 118, 45,510 wire bits to 43,580); the audit still finds
0 read-your-writes and 0 monotonic-reads violations.

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
        "facc8ce7d52e62b7d8c602e6ade04d71314cf8cfbd0dd3b873b029e14584375c",
    "fleet.dashboard_truncated":
        "bebf5f92073e1790b38078e4db8b8bd137357690089af0bc91bafdc5434adfca",
    "fleet.health_summary":
        "1bd23f83f1c092cb670282a837b37488cac33297b4349e7bdca7cd2e389232bf",
    "fleet.html":
        "090504846b7b32b1e5c6de6337b2cd165c697773613175503505ecb051915486",
    "fleet.otlp":
        "7082e8b7c6daa4cda9fffc217cd2da346692d93f4c9a7a2ef28691f0947c1329",
    "fleet.prometheus":
        "a2e9e0616ae52e3dda3cfffdb46cb960893401e22c721a56b0528bf20876c1bd",
    "fleet.registry":
        "a59e85f291553d1e68a5a3e66eb9af286fc358d3420f0e1ed2813171c88ba241",
    "fleet.series":
        "be66058e19d5fb4fc23217dbcd2b2ec95fcbba1c15f6f0412e8ec8e06bd29079",
    "store.dashboard":
        "6929003f86ceb947d60e60305d678d92b1a82af05132579b75a278d954f53ddc",
    "store.dashboard_truncated":
        "6631c58bc3f6d13e008163fe1be2902a89094a86f6bad9fac68f435ea012a802",
    "store.html":
        "54dc4c8c9603e0b1e516b2cee49bf78edce20f2621e9c229c6c567e224120cce",
    "store.otlp":
        "c1661266896a3482b610318673a8615d0cb232700a2708d8d711270dd641e8d7",
    "store.prometheus":
        "84673bba5a4f91a1b4b94e55cbefdc47cb6fbcfb34230cff05606facf2b37e2f",
    "store.registry":
        "5ba1c903fbe969b38a400e1695cec167ca86583cb977b679deb052ea22353e2d",
    "store.series":
        "294e4f6759eede9cd31b462c219a549680e21b20903b8c9ebba1732fbcb3756a",
    "store.summary":
        "7a0f478784ff674bb59261ac48cb421726a45cdf42ef3a88afcf78fca07ccfc5",
    "tampered.dashboard":
        "5a74ad104d002fe6dea5546e61ce21c4a70b7fdbe3423ee65d5769ee611f69b2",
    "tampered.health_summary":
        "ca0581696e2e8cbf0e7895d28b59929c33f63341cfdcc008fb1b11c842cc7193",
    "tampered.html":
        "32452f0feb20cb56d3a23371e702e92c9776953f3811a1a7aec0d64b2ae1a18f",
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
