"""E9 (system-level) — eventual consistency in finite time (§2.1).

Anti-entropy simulations on the discrete-event clock: identical gossip
and update schedules run under each metadata scheme; convergence behavior
is scheme-independent (the schedule decides it) while metadata traffic
differs — plus the increment-oscillation finding under a strict ring.
"""

import pytest

from repro.analysis.report import format_table
from repro.errors import ReproError
from repro.net.topology import RingTopology
from repro.replication.antientropy import (AntiEntropyConfig,
                                           AntiEntropySimulation,
                                           compare_schemes)


def config(**overrides):
    defaults = dict(n_sites=8, gossip_period=1.0, update_interval=0.6,
                    n_updates=25, seed=17)
    defaults.update(overrides)
    return AntiEntropyConfig(**defaults)


def test_e9_convergence_latency_vs_gossip_period(benchmark, report_writer):
    rows = []
    latencies = []
    for period in (0.25, 1.0, 4.0):
        result = AntiEntropySimulation(config(gossip_period=period)).run()
        latencies.append(result.convergence_latency)
        rows.append([f"{period:.2f} s",
                     f"{result.convergence_latency:.2f} s",
                     result.syncs_performed,
                     f"{result.metadata_bits / 8:.0f} B"])
    assert latencies[0] < latencies[-1]  # faster gossip → faster settling
    body = format_table(
        ["gossip period", "convergence latency", "syncs",
         "metadata traffic"], rows)
    report_writer("e9_convergence_latency",
                  "E9 — time to eventual consistency vs gossip period "
                  "(8 sites, 25 updates, SRV)", body)
    benchmark(lambda: AntiEntropySimulation(config(n_updates=8)).run())


def test_e9_schemes_share_schedule_differ_in_traffic(benchmark,
                                                     report_writer):
    results = compare_schemes(config())
    rows = []
    times = set()
    for scheme, result in results:
        times.add(result.convergence_time)
        rows.append([scheme.upper(),
                     f"{result.convergence_latency:.2f} s",
                     f"{result.metadata_bits / 8:.0f} B",
                     f"{result.payload_bits / 8:.0f} B"])
    assert len(times) == 1  # convergence is the schedule's property
    traffic = {scheme: r.metadata_bits for scheme, r in results}
    assert traffic["srv"] != traffic["vv"]
    body = format_table(
        ["scheme", "convergence latency", "metadata traffic",
         "payload traffic"], rows)
    report_writer("e9_scheme_traffic",
                  "E9b — identical schedule, per-scheme traffic", body)
    benchmark(lambda: AntiEntropySimulation(config(n_updates=8)).run())


def test_e9_partition_availability(benchmark, report_writer):
    """§1's availability claim: updates flow through a partition, and the
    backlog reconciles once it heals."""
    left = frozenset({"S000", "S001", "S002", "S003"})
    partitioned = AntiEntropySimulation(config(
        seed=23, update_interval=0.3,
        partitions=((0.0, 40.0, left),))).run()
    smooth = AntiEntropySimulation(config(seed=23,
                                          update_interval=0.3)).run()
    assert partitioned.updates_applied == smooth.updates_applied
    assert partitioned.convergence_time >= 40.0
    rows = [
        ["updates accepted", partitioned.updates_applied,
         smooth.updates_applied],
        ["last update at", f"{partitioned.last_update_time:.1f} s",
         f"{smooth.last_update_time:.1f} s"],
        ["converged at", f"{partitioned.convergence_time:.1f} s",
         f"{smooth.convergence_time:.1f} s"],
        ["metadata traffic", f"{partitioned.metadata_bits / 8:.0f} B",
         f"{smooth.metadata_bits / 8:.0f} B"],
    ]
    body = format_table(
        ["quantity", "40 s partition (4|4 split)", "no partition"], rows)
    body += ("\n\nNo update was ever blocked; the partitioned fleet "
             "converges right after the heal —\noptimistic replication's "
             "availability-first tradeoff, measured.")
    report_writer("e9_partition",
                  "E9d — availability through a network partition", body)
    benchmark(lambda: AntiEntropySimulation(
        config(n_updates=8, seed=23)).run())


def test_e9_increment_oscillation_finding(benchmark, report_writer):
    """Symmetric ring gossip: values converge, vectors never do."""
    with pytest.raises(ReproError):
        AntiEntropySimulation(config(
            n_sites=5, topology=RingTopology(), convergence="full",
            max_time=300.0)).run()
    values = AntiEntropySimulation(config(
        n_sites=5, topology=RingTopology(), convergence="values")).run()
    randomized = AntiEntropySimulation(config(n_sites=5)).run()
    rows = [
        ["strict ring, full consistency", "never (oscillation)"],
        ["strict ring, value consistency",
         f"{values.convergence_latency:.2f} s"],
        ["random gossip, full consistency",
         f"{randomized.convergence_latency:.2f} s"],
    ]
    body = format_table(["configuration", "convergence latency"], rows)
    body += ("\n\nThe §2.2 increment after every reconciliation is itself "
             "a new update; under a perfectly\nsymmetric deterministic "
             "schedule two reconciliation waves chase each other around "
             "the\nring indefinitely.  Any schedule asymmetry (jittered "
             "random gossip) collapses them.")
    report_writer("e9_oscillation",
                  "E9c — increment-on-merge oscillation (finding)", body)
    benchmark(lambda: AntiEntropySimulation(
        config(n_sites=5, n_updates=8)).run())
