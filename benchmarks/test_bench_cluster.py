"""Cluster harness regression — fleet-scale traffic under one clock.

The accounting guarantee the whole harness rests on: an object has one
session holder, so running many sessions *concurrently* on one simulator
moves exactly the bits the same sessions move when replayed
*sequentially* — scheduling affects time, never traffic.  The bench
document itself (``BENCH_cluster.json``) is regenerated and checked by
``python -m repro bench`` and ``tests/perf/test_bench.py``, not here.
"""

from repro.analysis.report import format_table
from repro.net.cluster import ClusterConfig, ClusterRunner, replay_sequential
from repro.net.wire import Encoding
from repro.workload.cluster import (gossip_schedule, site_names,
                                    update_schedule)
from tests.helpers import same_objects


def test_concurrent_bits_match_sequential_replay(benchmark, report_writer):
    """The paired assertion: concurrency changes time, not traffic."""
    sites = site_names(8)
    sessions = gossip_schedule(sites, rounds=4, seed=21)
    rows = []
    for protocol in ("brv", "crv", "srv"):
        writers = [sites[0]] if protocol == "brv" else None
        updates = update_schedule(sites, n_updates=16, seed=22,
                                  writers=writers)
        config = ClusterConfig(protocol=protocol,
                               encoding=Encoding(site_bits=8, value_bits=16))
        result = ClusterRunner(sites, config).run(sessions, updates)
        sequential, objects = replay_sequential(sites, config, result.log)
        concurrent_bits = result.per_session_bits()
        sequential_bits = [r.stats.total_bits for r in sequential]
        assert concurrent_bits == sequential_bits
        assert same_objects(result.objects, objects)
        rows.append([protocol.upper(), str(result.sessions),
                     str(result.total_bits),
                     f"{result.completion_time:.2f} s",
                     str(result.reconciliations), "identical"])
    body = format_table(
        ["scheme", "sessions", "total bits", "sim time",
         "reconciliations", "vs sequential replay"], rows)
    body += ("\n\nEach vector is touched by one session at a time, so "
             "per-session traffic\ndepends only on endpoint states at "
             "session start — the schedule decides\nwhen bits move, "
             "never how many.")
    report_writer("cluster_paired",
                  "Cluster harness — concurrent vs sequential accounting",
                  body)
    benchmark(lambda: ClusterRunner(sites, ClusterConfig()).run(
        sessions, update_schedule(sites, n_updates=16, seed=22)))
