"""Cluster harness regression — fleet-scale traffic under one clock.

Two guarantees are pinned here.  First, the accounting guarantee the
whole harness rests on: with ``fanout=1``, running many sessions
*concurrently* on one simulator moves exactly the bits the same sessions
move when replayed *sequentially* — scheduling affects time, never
traffic.  Second, the regression document itself: the n=8 sweep runs the
full driver, validates the emitted ``BENCH_cluster.json`` against its
schema, and persists it under ``benchmarks/reports/`` so successive PRs
can diff the trajectory field by field.
"""

import pathlib

from repro.analysis.report import format_table
from repro.net.cluster import ClusterConfig, ClusterRunner, replay_sequential
from repro.net.wire import Encoding
from repro.perf.bench import (BenchConfig, bench_fingerprint,
                              format_bench_table, run_cluster_bench,
                              write_bench)
from repro.perf.schema import validate_file
from repro.workload.cluster import (gossip_schedule, site_names,
                                    update_schedule)

REPORTS_DIR = pathlib.Path(__file__).parent / "reports"


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
        sequential, vectors = replay_sequential(sites, config, result.log)
        concurrent_bits = result.per_session_bits()
        sequential_bits = [r.stats.total_bits for r in sequential]
        assert concurrent_bits == sequential_bits
        assert all(result.vectors[s].same_values(vectors[s]) for s in sites)
        rows.append([protocol.upper(), str(result.sessions),
                     str(result.total_bits),
                     f"{result.completion_time:.2f} s",
                     str(result.reconciliations), "identical"])
    body = format_table(
        ["scheme", "sessions", "total bits", "sim time",
         "reconciliations", "vs sequential replay"], rows)
    body += ("\n\nWith fanout=1 each vector is touched by one session at a "
             "time, so per-session\ntraffic depends only on endpoint states "
             "at session start — the schedule decides\nwhen bits move, "
             "never how many.")
    report_writer("cluster_paired",
                  "Cluster harness — concurrent vs sequential accounting",
                  body)
    benchmark(lambda: ClusterRunner(sites, ClusterConfig()).run(
        sessions, update_schedule(sites, n_updates=16, seed=22)))


def test_bench_document_regression(benchmark, report_writer):
    """The n=8 sweep end to end: run, validate, persist, report."""
    config = BenchConfig(site_counts=(8,))
    document = run_cluster_bench(config)
    path = write_bench(document, str(REPORTS_DIR / "BENCH_cluster.json"))
    assert validate_file(path) == []
    for run in document["runs"]:
        assert run["total_bits"] > 0
        assert run["sim_completion_seconds"] > 0
        assert run["consistent"] or run["updates"] > 0
    body = format_bench_table(document)
    # Relative to the checkout, so the report reads the same from any clone.
    shown = pathlib.Path(path).resolve().relative_to(
        REPORTS_DIR.resolve().parents[1]).as_posix()
    body += (f"\n\nDocument: {shown}\nEvery run re-validated against "
             f"{document['schema']} and cross-checked against a\nsequential "
             "replay of its own execution log before emission "
             "(BenchConfig.paired).")
    report_writer("cluster_bench",
                  "Cluster benchmark regression (n=8 smoke of the "
                  "8/32/128 sweep)", body)
    benchmark(lambda: run_cluster_bench(
        BenchConfig(site_counts=(8,), protocols=("srv",), paired=False,
                    topology=None)))


def test_batched_sweep_reduces_wire_bits_per_object(benchmark,
                                                    report_writer):
    """The E10-style batched scenario: framing amortizes per-session cost.

    Same fleet, same schedule, same objects — ``batch_size=64`` coalesces
    each pair's 32 per-object sessions into one framed session (one
    header, one ack per frame), and the document records the bits-per-
    object drop.
    """
    config = BenchConfig(site_counts=(), protocols=())
    document = run_cluster_bench(config)
    by_size = {run["batch_size"]: run for run in document["runs"]
               if run["scenario"] == "batched-many-objects"}
    unbatched, batched = by_size[1], by_size[64]
    assert unbatched["sessions"] == batched["sessions"]
    assert batched["total_bits"] < unbatched["total_bits"]
    assert batched["wire_bits_per_object"] \
        < unbatched["wire_bits_per_object"] / 2
    assert batched["traffic"]["frames"] > 0
    assert unbatched["traffic"]["frames"] == 0
    rows = [[str(run["batch_size"]), str(run["sessions"]),
             str(run["total_bits"]),
             f"{run['wire_bits_per_object']:.1f}",
             str(run["traffic"]["frames"])]
            for run in (unbatched, batched)]
    body = format_table(
        ["batch size", "sessions", "total bits", "bits/object", "frames"],
        rows)
    body += ("\n\nStop-and-wait with a 64-bit session header: unframed "
             "sessions pay one header\nand one ack stream per object; "
             "framing pays one header per pair encounter and\none ack "
             "per frame, which is where §1's many-objects overhead goes.")
    report_writer("cluster_batched",
                  "Batched many-objects scenario — bits/object vs "
                  "batch size", body)
    benchmark(lambda: run_cluster_bench(
        BenchConfig(site_counts=(), protocols=(), paired=False,
                    batched_sizes=(64,), topology=None)))


def test_parallel_sweep_is_byte_identical_to_serial(benchmark,
                                                    report_writer):
    """Fanning the grid across workers must not change the document.

    Every grid cell derives its schedules from the config seed alone and
    the document reads no host clock, so a parallel run and a serial run
    emit the same bytes.
    """
    config = BenchConfig(site_counts=(8,))
    serial = run_cluster_bench(config)
    parallel = run_cluster_bench(config, workers=4)
    assert serial == parallel
    body = (f"serial fingerprint   {bench_fingerprint(serial)}\n"
            f"parallel fingerprint {bench_fingerprint(parallel)}\n\n"
            f"{len(serial['runs'])} runs; the two documents are equal.\n"
            "The pool maps the grid in order and metrics merge in that "
            "same order, so the\nparallel driver is an accounting no-op.")
    report_writer("cluster_parallel",
                  "Parallel bench driver — serial vs 4-worker fingerprint",
                  body)
    benchmark(lambda: run_cluster_bench(
        BenchConfig(site_counts=(8,), protocols=("srv",), paired=False,
                    batched_sizes=(), topology=None),
        workers=2))
