"""Command-line entry point: run the bundled demos.

Usage::

    python -m repro                       # list the demos
    python -m repro quickstart            # run one
    python -m repro all                   # run every demo in sequence
    python -m repro --seed 7 fuzz         # reseed the randomized demos
    python -m repro trace quickstart      # run traced, render the timeline
    python -m repro trace fuzz --jsonl t.jsonl   # also export JSONL
    python -m repro bench --sites 8,32    # cluster benchmark regression

The demos are the scripts in ``examples/`` packaged behind one command so
an installed distribution can show itself without the source tree.  The
``trace`` subcommand attaches a :class:`repro.obs.Tracer` to the chosen
demo and prints the structured timeline afterwards (optionally exporting
the raw events as JSON lines).  The ``bench`` subcommand runs the
cluster-scale performance harness (:mod:`repro.perf.bench`) and writes
``BENCH_cluster.json``; like ``store``, ``monitor``, ``analyze`` and
``otlp-validate`` it owns its flag set — ask it with ``--help``.
"""

from __future__ import annotations

import importlib
import sys
from typing import TYPE_CHECKING, Callable, Dict, Optional

if TYPE_CHECKING:
    from repro.obs.trace import Tracer

#: Default seed of the randomized demos; ``--seed N`` overrides it.
DEFAULT_SEED = 0


def _demo_quickstart(*, tracer: Optional[Tracer] = None,
                     seed: Optional[int] = None) -> None:
    """The five-minute API tour (examples/quickstart.py)."""
    from repro import Encoding, SkipRotatingVector
    from repro.protocols.comparep import compare_remote
    from repro.protocols.fullsync import sync_full_vector
    from repro.protocols.syncs import sync_srv

    encoding = Encoding(site_bits=8, value_bits=16)
    alice = SkipRotatingVector()
    alice.record_update("alice")
    bob = alice.copy()
    bob.record_update("bob")
    alice.record_update("alice")
    verdict, session = compare_remote(alice, bob, encoding=encoding,
                                      tracer=tracer)
    print(f"compare: {verdict} in {session.stats.total_bits} bits")
    result = sync_srv(alice, bob, encoding=encoding, tracer=tracer)
    alice.record_update("alice")
    print(f"SYNCS: {result.stats.total_bits} bits → {alice}")
    for round_no in range(50):
        alice.record_update(f"site{round_no % 10}")
    stale = alice.copy()
    alice.record_update("alice")
    incremental = sync_srv(stale.copy(), alice, encoding=encoding,
                           tracer=tracer)
    full = sync_full_vector(stale.copy(), alice, encoding=encoding)
    print(f"one update behind: SYNCS {incremental.stats.total_bits} bits "
          f"vs full vector {full.stats.total_bits} bits")


def _demo_figures(*, tracer: Optional[Tracer] = None,
                  seed: Optional[int] = None) -> None:
    """Regenerate the paper's Figures 1–3 checks."""
    from repro.core.skip import SkipRotatingVector
    from repro.graphs.crg import coalesce
    from repro.protocols.syncg import sync_graph
    from repro.workload.scenarios import (FIGURE1_VECTORS, figure1_graph,
                                          figure1_vectors, figure3_graphs)

    thetas = figure1_vectors(SkipRotatingVector)
    assert all(thetas[k].to_version_vector().as_dict() == FIGURE1_VECTORS[k]
               for k in thetas)
    print("Figure 1: all nine θ vectors reproduced exactly")
    crg = coalesce(figure1_graph())
    print(f"Figure 2: CRG has {len(crg)} nodes; "
          f"Π_θ9 = {sorted(crg.pi_set(9))}")
    site_a, site_c = figure3_graphs()
    result = sync_graph(site_c, site_a, tracer=tracer)
    print(f"Figure 3: SYNCG transmitted "
          f"{result.sender_result.nodes_sent} nodes (paper: 4)")


def _demo_pipelining(*, tracer: Optional[Tracer] = None,
                     seed: Optional[int] = None) -> None:
    """Timed pipelining comparison on a simulated link."""
    from repro.core.rotating import BasicRotatingVector
    from repro.net.channel import ChannelSpec
    from repro.net.runner import SessionOptions, run_timed
    from repro.net.wire import Encoding
    from repro.protocols.syncb import syncb_receiver, syncb_sender

    encoding = Encoding(site_bits=8, value_bits=16)
    channel = ChannelSpec(latency=0.05, bandwidth=1e6)
    b = BasicRotatingVector.from_pairs([(f"S{i}", 1) for i in range(30)])
    pipelined = run_timed(SessionOptions.for_pair(
        syncb_sender(b, tracer=tracer),
        syncb_receiver(BasicRotatingVector(), tracer=tracer),
        channel=channel, encoding=encoding, tracer=tracer),
        span_name="SYNCB")
    blocking = run_timed(SessionOptions.for_pair(
        syncb_sender(b), syncb_receiver(BasicRotatingVector()),
        channel=channel, encoding=encoding, stop_and_wait=True))
    print(f"30 elements over a 100 ms-rtt link: "
          f"pipelined {pipelined.completion_time:.2f}s, "
          f"stop-and-wait {blocking.completion_time:.2f}s")


def _demo_chaos(*, tracer: Optional[Tracer] = None,
                seed: Optional[int] = None) -> None:
    """SYNCS over a lossy link: ARQ retransmission and goodput accounting."""
    from repro.core.skip import SkipRotatingVector
    from repro.net.channel import ChannelSpec
    from repro.net.faults import FaultSpec, RetryPolicy
    from repro.net.runner import SessionOptions, run_timed
    from repro.net.wire import Encoding
    from repro.protocols.syncs import syncs_receiver, syncs_sender

    encoding = Encoding(site_bits=8, value_bits=16)
    effective = DEFAULT_SEED if seed is None else seed
    a = SkipRotatingVector()
    for site in ("alice", "bob", "alice", "carol"):
        a.record_update(site)
    b = a.copy()
    for site in ("dave", "bob", "dave", "erin", "bob"):
        b.record_update(site)
    faults = FaultSpec(drop=0.25, duplicate=0.1, reorder=0.2,
                       reorder_window=0.3, seed=effective)
    channel = ChannelSpec(latency=0.05, bandwidth=1e6, faults=faults)
    reconcile = a.compare(b).is_concurrent
    result = run_timed(SessionOptions.for_pair(
        syncs_sender(b, tracer=tracer),
        syncs_receiver(a, reconcile=reconcile, tracer=tracer),
        channel=channel, encoding=encoding, tracer=tracer,
        retry=RetryPolicy(max_retries=8, seed=effective)),
        span_name="SYNCS-chaos")
    stats = result.stats
    print(f"seed {effective}: SYNCS over 25% loss converged in "
          f"{result.completion_time:.2f}s simulated")
    print(f"  goodput {stats.total_goodput_bits} bits + retransmitted "
          f"{stats.total_retransmitted_bits} bits = "
          f"{stats.total_bits} bits on the wire")
    print(f"  {stats.retries} retransmissions, {stats.timeouts} timeouts "
          f"→ {a}")


def _demo_antientropy(*, tracer: Optional[Tracer] = None,
                      seed: Optional[int] = None) -> None:
    """Eventual consistency on the discrete-event clock."""
    from repro.replication.antientropy import (AntiEntropyConfig,
                                               AntiEntropySimulation,
                                               compare_schemes)

    config = AntiEntropyConfig(n_sites=8, n_updates=15,
                               seed=5 if seed is None else seed)
    if tracer is not None:
        # A traced run covers one scheme; the side-by-side table stays
        # untraced so the comparison output matches the plain demo.
        AntiEntropySimulation(config, tracer=tracer).run()
    results = compare_schemes(config)
    for scheme, result in results:
        print(f"{scheme.upper():4}: converged "
              f"{result.convergence_latency:.2f}s after the last update, "
              f"{result.metadata_bits / 8:.0f} B of metadata")


def _demo_fuzz(*, tracer: Optional[Tracer] = None,
               seed: Optional[int] = None) -> None:
    """SYNCS under the randomized driver (adversarial delivery delays)."""
    import random

    from repro.core.skip import SkipRotatingVector
    from repro.net.wire import Encoding
    from repro.protocols.session import run_session_randomized
    from repro.protocols.syncs import syncs_receiver, syncs_sender

    encoding = Encoding(site_bits=8, value_bits=16)
    effective = DEFAULT_SEED if seed is None else seed
    rng = random.Random(effective)
    a = SkipRotatingVector()
    for site in ("alice", "bob", "alice"):
        a.record_update(site)
    b = a.copy()
    for site in ("carol", "bob", "dave", "carol"):
        b.record_update(site)
    a.record_update("alice")
    reconcile = a.compare(b).is_concurrent
    result = run_session_randomized(
        syncs_sender(b, tracer=tracer),
        syncs_receiver(a, reconcile=reconcile, tracer=tracer),
        rng=rng, encoding=encoding, tracer=tracer, span_name="SYNCS")
    report = result.receiver_result
    print(f"seed {effective}: SYNCS under random delays moved "
          f"{result.stats.total_bits} bits, Δ={report.new_elements}, "
          f"γ={result.sender_result.skips_honored} → {a}")


DEMOS: Dict[str, Callable[..., None]] = {
    "quickstart": _demo_quickstart,
    "figures": _demo_figures,
    "pipelining": _demo_pipelining,
    "chaos": _demo_chaos,
    "antientropy": _demo_antientropy,
    "fuzz": _demo_fuzz,
}


#: Subcommands with their own argparse parser: ``name → (module, main)``.
SUBCOMMANDS = {
    "bench": ("repro.perf.bench", "bench_main"),
    "store": ("repro.store.cli", "store_main"),
    "monitor": ("repro.obs.cli", "monitor_main"),
    "analyze": ("repro.obs.cli", "analyze_main"),
    "otlp-validate": ("repro.obs.otlp_schema", "schema_main"),
}


def _usage() -> None:
    print("usage: python -m repro [--seed N] <demo>|all\n"
          "       python -m repro [--seed N] trace <demo>|<trace.jsonl> "
          "[--stats] [--jsonl PATH] [--filter kind,...]\n"
          "       python -m repro bench|store|monitor|analyze|"
          "otlp-validate [--help]\n\n"
          "demos:")
    for name, fn in DEMOS.items():
        print(f"  {name:12} {fn.__doc__.splitlines()[0]}")


def _run_traced(name: str, *, seed: Optional[int], jsonl: Optional[str],
                kinds: Optional[list[str]] = None,
                stats: bool = False) -> int:
    from repro.obs.export import render_timeline, write_jsonl
    from repro.obs.trace import Tracer

    tracer = Tracer()
    print(f"=== trace {name} ===")
    DEMOS[name](tracer=tracer, seed=seed)
    print()
    if stats:
        from repro.obs.export import format_trace_stats, trace_stats
        print(format_trace_stats(trace_stats(tracer.events)))
    else:
        print(render_timeline(tracer.events, max_events=60, kinds=kinds))
        print(f"\n{len(tracer.events)} events, "
              f"{tracer.message_bits()} message bits")
    if jsonl is not None:
        count = write_jsonl(tracer.events, jsonl)
        print(f"wrote {count} events to {jsonl}")
    return 0


def _trace_file(path: str, *, stats: bool,
                kinds: Optional[list[str]] = None) -> int:
    """Summarize (or render) an existing JSONL trace without re-running."""
    from repro.obs.export import (events_from_jsonl, format_trace_stats,
                                  render_timeline, trace_stats)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            events = list(events_from_jsonl(handle))
    except (OSError, ValueError, KeyError) as error:
        print(f"cannot load trace {path!r}: {error}")
        return 2
    if stats:
        print(format_trace_stats(trace_stats(events)))
    else:
        print(render_timeline(events, max_events=60, kinds=kinds))
        print(f"\n{len(events)} events")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Dispatch ``python -m repro <demo>``; returns an exit code."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] in SUBCOMMANDS:
        # These own their flag sets (each answers ``--help``); hand the
        # raw tail over before the demo-oriented parsing below can
        # reject it.
        module, entry = SUBCOMMANDS[arguments[0]]
        return getattr(importlib.import_module(module), entry)(arguments[1:])
    seed: Optional[int] = None
    jsonl: Optional[str] = None
    kinds: Optional[list[str]] = None
    stats = False
    positional: list[str] = []
    index = 0
    while index < len(arguments):
        argument = arguments[index]
        if argument in ("-h", "--help"):
            _usage()
            return 0
        if argument == "--stats":
            stats = True
            index += 1
        elif argument in ("--seed", "--jsonl", "--filter"):
            if index + 1 >= len(arguments):
                print(f"{argument} requires a value")
                return 2
            if argument == "--seed":
                try:
                    seed = int(arguments[index + 1])
                except ValueError:
                    print(f"--seed expects an integer, "
                          f"got {arguments[index + 1]!r}")
                    return 2
            elif argument == "--filter":
                kinds = [part.strip()
                         for part in arguments[index + 1].split(",")
                         if part.strip()]
            else:
                jsonl = arguments[index + 1]
            index += 2
        else:
            positional.append(argument)
            index += 1
    if not positional:
        _usage()
        return 1
    if positional[0] == "trace":
        import os
        if (len(positional) == 2 and positional[1] not in DEMOS
                and os.path.isfile(positional[1])):
            return _trace_file(positional[1], stats=stats, kinds=kinds)
        if len(positional) != 2 or positional[1] not in DEMOS:
            print(f"usage: python -m repro trace <demo>|<trace.jsonl> "
                  f"[--stats] [--jsonl PATH] "
                  f"[--filter kind,...]; demos: {', '.join(DEMOS)}")
            return 2
        return _run_traced(positional[1], seed=seed, jsonl=jsonl,
                           kinds=kinds, stats=stats)
    selected = list(DEMOS) if positional[0] == "all" else positional
    for name in selected:
        if name not in DEMOS:
            print(f"unknown demo {name!r}; try: {', '.join(DEMOS)}")
            return 2
        print(f"=== {name} ===")
        DEMOS[name](seed=seed)
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
