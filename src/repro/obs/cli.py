"""The ``repro monitor`` subcommand: run a fleet under live observation.

Runs the standard chaos fleet (the bench's E11 cell: 8 sites × 32
objects, batch 8, the standard drop/duplicate/reorder mix for the chosen
loss rate) once per protocol with a :class:`~repro.obs.monitor.ClusterMonitor`
attached, renders the terminal dashboard for each, and optionally writes
the Prometheus text dump, the OTLP-style JSON export (validated against
the checked-in schema before it hits disk), and the self-contained HTML
report.  ``--strict-invariants`` makes any inline-checker failure abort
the run with a non-zero exit instead of being counted.
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import InvariantViolationError
from repro.net.cluster import ClusterRunner
from repro.obs.dashboard import render_dashboard, write_html_report
from repro.obs.exporters import to_otlp, to_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import ClusterMonitor, MonitorConfig
from repro.obs.otlp_schema import validate_otlp
from repro.obs.trace import SamplingPolicy, Tracer
from repro.perf.bench import SCENARIOS, BenchConfig, bench_topology
from repro.protocols import registry
from repro.workload.cluster import SessionRequest


def run_monitored_fleet(protocol: str, *, n_sites: int = 8,
                        n_objects: int = 32, batch_size: int = 8,
                        loss: float = 0.1, rounds: int = 3, seed: int = 0,
                        chaos_seed: int = 11, latency: float = 0.005,
                        bandwidth: float = 1_000_000.0,
                        monitor_config: MonitorConfig = MonitorConfig(),
                        metrics: Optional[MetricsRegistry] = None,
                        converge_sweep: bool = True,
                        tracer: Optional[Tracer] = None
                        ) -> Tuple[ClusterMonitor, ClusterRunner, Any]:
    """One monitored chaos-fleet run; returns (monitor, runner, result).

    ``tracer`` overrides the monitor's private tracer (e.g. to apply a
    :class:`~repro.obs.trace.SamplingPolicy` for ``repro analyze``); the
    monitor still observes the live stream through its subscription.

    The fleet *is* the benchmark's chaos cell — built by the ``chaos``
    row of :data:`repro.perf.bench.SCENARIOS`, so same config, same
    schedules, same per-session fault seeds — and what the dashboard
    shows is the regime the regression gate measures.  ``loss=0`` runs
    the fleet on a perfect link (useful for a fast smoke pass).

    ``converge_sweep`` appends a deterministic star sweep well after the
    gossip schedule: every site pushes into ``sites[0]`` (the hub, which
    then holds the global element-wise max), then the hub pushes back
    out.  Under ``fanout=1`` every sweep session shares the hub, so they
    serialize in request order and the fleet provably ends converged —
    the dashboard's convergence scores must all close at 1.0, which is
    itself a checkable property of the whole pipeline.
    """
    fleet = SCENARIOS["chaos"].build(
        BenchConfig(rounds=rounds, seed=seed, latency=latency,
                    bandwidth=bandwidth, batched_site_count=n_sites,
                    batched_objects=n_objects, chaos_batch_size=batch_size,
                    chaos_seed=chaos_seed),
        protocol, loss, metrics=metrics,
        monitor=ClusterMonitor(monitor_config, metrics=metrics),
        tracer=tracer)
    runner, sessions = fleet.runner, fleet.sessions
    if converge_sweep:
        hub, spokes = runner.sites[0], runner.sites[1:]
        last = max([request.at for request in sessions]
                   + [update.at for update in fleet.updates], default=0.0)
        # The 50-second idle margins let the gossip/gather queues drain
        # fully (simulated time is free) before the next phase begins.
        gather_at = last + 50.0
        scatter_at = gather_at + 2.0 * n_sites + 50.0
        sessions = list(sessions)
        sessions.extend(
            SessionRequest(src=site, dst=hub, at=gather_at + index * 0.01)
            for index, site in enumerate(spokes))
        sessions.extend(
            SessionRequest(src=hub, dst=site, at=scatter_at + index * 0.01)
            for index, site in enumerate(spokes))
    return runner.monitor, runner, runner.run(sessions, fleet.updates)


def run_monitored_region_fleet(protocol: str, *, regions: int = 3,
                               sites_per_region: int = 8,
                               n_objects: int = 64, replication: int = 3,
                               batch_size: int = 8, loss: float = 0.01,
                               rounds: int = 3, seed: int = 0,
                               chaos_seed: int = 11,
                               monitor_config: MonitorConfig
                               = MonitorConfig(),
                               metrics: Optional[MetricsRegistry] = None,
                               tracer: Optional[Tracer] = None
                               ) -> Tuple[ClusterMonitor, ClusterRunner,
                                          Any]:
    """One monitored *sharded multi-region* run.

    The multi-region analogue of :func:`run_monitored_fleet`, built by
    the ``multiregion`` row of :data:`repro.perf.bench.SCENARIOS` on a
    :func:`~repro.perf.bench.bench_topology` fleet (slow lossy WAN
    between regions, fast clean LAN inside them): consistent-hash
    sharding at the given replication factor, epidemic push/pull
    dissemination among shard peers, and the deterministic two-phase
    closing sweep — so the run provably ends with every replica group
    converged, which the dashboard's per-region scores make visible.
    """
    fleet = SCENARIOS["multiregion"].build(
        BenchConfig(seed=seed, mr_objects=n_objects, mr_rounds=rounds,
                    mr_batch_size=batch_size,
                    topology=bench_topology(
                        regions, sites_per_region, loss=loss,
                        replication=replication, seed=seed,
                        chaos_seed=chaos_seed)),
        protocol, metrics=metrics,
        monitor=ClusterMonitor(monitor_config, metrics=metrics),
        tracer=tracer)
    return fleet.runner.monitor, fleet.runner, fleet.run()


def _add_fleet_arguments(parser: argparse.ArgumentParser) -> None:
    """The chaos-cell shape flags ``monitor`` and ``analyze`` share."""
    parser.add_argument("--sites", type=int, default=8,
                        help="fleet size (default: 8)")
    parser.add_argument("--objects", type=int, default=32,
                        help="replicated objects per site (default: 32)")
    parser.add_argument("--batch", type=int, default=8,
                        help="objects per wire frame (default: 8)")
    parser.add_argument("--loss", type=float, default=0.1,
                        help="nominal loss rate of the chaos mix "
                             "(default: 0.1; 0 disables faults)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="gossip rounds (default: 3)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default: 0)")
    parser.add_argument("--chaos-seed", type=int, default=11,
                        help="fault-injection seed (default: 11)")


def _fleet_shape(args: argparse.Namespace) -> Dict[str, Any]:
    """Those flags as the fleet builders' keyword arguments."""
    return dict(n_objects=args.objects, batch_size=args.batch,
                loss=args.loss, rounds=args.rounds, seed=args.seed,
                chaos_seed=args.chaos_seed)


def monitor_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro monitor [--protocols ...] [--strict-invariants]``."""
    parser = argparse.ArgumentParser(
        prog="repro monitor",
        description="Run the chaos fleet under live health monitoring and "
                    "render a per-site dashboard.")
    parser.add_argument("--protocols", default="brv,crv,srv",
                        help="comma-separated protocol list "
                             "(default: brv,crv,srv)")
    _add_fleet_arguments(parser)
    parser.add_argument("--regions", type=int, default=0,
                        help="run a sharded multi-region fleet with this "
                             "many regions (--sites in each) instead of "
                             "the classic single-region chaos cell "
                             "(default: 0 = classic)")
    parser.add_argument("--replication", type=int, default=3,
                        help="replicas per object in multi-region mode "
                             "(default: 3)")
    parser.add_argument("--cadence", type=float, default=0.25,
                        help="simulated seconds between health samples "
                             "(default: 0.25)")
    parser.add_argument("--strict-invariants", action="store_true",
                        help="abort on the first invariant violation "
                             "instead of counting")
    parser.add_argument("--prom", metavar="PATH", default=None,
                        help="write a Prometheus text-format dump")
    parser.add_argument("--otlp", metavar="PATH", default=None,
                        help="write an OTLP-style JSON export "
                             "(schema-validated)")
    parser.add_argument("--html", metavar="PATH", default=None,
                        help="write the self-contained HTML report")
    args = parser.parse_args(argv)

    protocols = [name.strip() for name in args.protocols.split(",")
                 if name.strip()]
    for name in protocols:
        if name not in registry.names():
            print(f"unknown protocol {name!r}; "
                  f"expected {', '.join(registry.names())}")
            return 2
    monitor_config = MonitorConfig(cadence=args.cadence,
                                   strict=args.strict_invariants)
    metrics = MetricsRegistry()
    monitors: Dict[str, ClusterMonitor] = {}
    last_runner: Optional[ClusterRunner] = None
    total_violations = 0
    for protocol in protocols:
        try:
            if args.regions > 0:
                print(f"=== monitor {protocol}: {args.regions} regions × "
                      f"{args.sites} sites × {args.objects} objects, "
                      f"replication {args.replication}, "
                      f"loss {args.loss:g} ===")
                monitor, runner, result = run_monitored_region_fleet(
                    protocol, regions=args.regions,
                    sites_per_region=args.sites,
                    replication=args.replication, **_fleet_shape(args),
                    monitor_config=monitor_config, metrics=metrics)
            else:
                print(f"=== monitor {protocol}: {args.sites} sites × "
                      f"{args.objects} objects, loss {args.loss:g} ===")
                monitor, runner, result = run_monitored_fleet(
                    protocol, n_sites=args.sites, **_fleet_shape(args),
                    monitor_config=monitor_config, metrics=metrics)
        except InvariantViolationError as error:
            print(f"ABORTED: {error}")
            return 1
        monitors[protocol] = monitor
        last_runner = runner
        total_violations += monitor.violation_count
        print(render_dashboard(
            monitor, max_sites=24 if len(monitor.sites) > 32 else None))
        print(f"{result.sessions} sessions, {result.total_bits} bits, "
              f"consistent={result.consistent()}, "
              f"sim {result.completion_time:.2f}s")
        print()
    if args.prom is not None:
        # One registry accumulated across all protocols; the monitor
        # gauges come from the last run (each dump is per-fleet state).
        text = to_prometheus(metrics, next(reversed(monitors.values()))
                             if monitors else None)
        with open(args.prom, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote Prometheus dump to {args.prom}")
    if args.otlp is not None:
        last_monitor = next(reversed(monitors.values())) if monitors else None
        document = to_otlp(last_runner.tracer if last_runner else None,
                           metrics, last_monitor)
        errors = validate_otlp(document)
        if errors:
            print(f"OTLP export failed schema validation: {errors[:3]}")
            return 1
        with open(args.otlp, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote OTLP JSON to {args.otlp} (schema-valid)")
    if args.html is not None:
        write_html_report(args.html, monitors)
        print(f"wrote HTML report to {args.html}")
    if total_violations:
        print(f"{total_violations} invariant violation(s) counted")
        return 1
    return 0


def _format_critical_path(document: Dict[str, Any]) -> str:
    """Terminal rendering of the critical-path hop chain."""
    from repro.obs.causal import CATEGORIES
    path = document.get("critical_path")
    if path is None:
        return "no timed events — no critical path"
    lines = [f"critical path: {path['elapsed']:.6f}s over "
             f"{len(path['hops'])} hop(s), {path['rounds']} round(s)"]
    end = path["end"]
    verdict = ("convergence" if document.get("converged")
               else "last event (run did NOT converge)")
    lines.append(f"  ends at {verdict}: seq {end['seq']} "
                 f"{end['kind']} @ {end['time']:.6f}s")
    for hop in path["hops"]:
        source, target = hop["from"], hop["to"]
        categories = ", ".join(
            f"{name}={value:.6f}"
            for name in CATEGORIES
            for value in [hop["categories"].get(name)]
            if value)
        lines.append(
            f"  {source['kind']:>15} → {target['kind']:<15} "
            f"[{hop['edge']:>8}] +{hop['elapsed']:.6f}s"
            + (f"  ({categories})" if categories else ""))
    return "\n".join(lines)


def _format_attribution(document: Dict[str, Any]) -> str:
    """Terminal rendering of the per-site/protocol attribution rollup."""
    from repro.obs.causal import CATEGORIES
    lines = ["latency attribution (all causal hops, per session):"]
    for summary in document.get("sessions", []):
        attribution = summary["attribution"]
        parts = ", ".join(f"{name}={attribution[name]:.6f}"
                          for name in CATEGORIES if attribution[name])
        lines.append(
            f"  #{summary['session']} "
            f"{summary.get('src') or '?'}→{summary.get('dst') or '?'}"
            f" ({summary.get('protocol') or '?'}): {parts or '0'}"
            f"  coverage={summary.get('coverage', 1.0):.3f}")
    for title, key in (("per destination site", "sites"),
                       ("per protocol", "protocols")):
        rollup = document.get(key) or {}
        if not rollup:
            continue
        lines.append(f"{title}:")
        for label in sorted(rollup):
            bucket = rollup[label]
            attribution = bucket["attribution"]
            parts = ", ".join(f"{name}={attribution[name]:.6f}"
                              for name in CATEGORIES if attribution[name])
            lines.append(f"  {label}: {bucket['sessions']} session(s), "
                         f"{bucket['bits']} bits, "
                         f"queue {bucket['queue_wait']:.6f}s; {parts or '0'}")
    return "\n".join(lines)


def analyze_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro analyze [trace.jsonl | --fleet] [...]``."""
    parser = argparse.ArgumentParser(
        prog="repro analyze",
        description="Reconstruct the causal graph of a traced run and "
                    "report the convergence critical path, latency "
                    "attribution, and a waterfall rendering.")
    parser.add_argument("trace", nargs="?", default=None,
                        help="JSONL trace file (from `repro trace --jsonl` "
                             "or any tracer export); omit with --fleet")
    parser.add_argument("--fleet", action="store_true",
                        help="trace and analyze a seeded chaos fleet run "
                             "instead of reading a file")
    parser.add_argument("--protocol", default="srv",
                        choices=registry.names(),
                        help="fleet protocol (default: srv)")
    _add_fleet_arguments(parser)
    parser.add_argument("--sample", action="store_true",
                        help="trace the fleet under deterministic "
                             "per-session sampling")
    parser.add_argument("--sample-head", type=int, default=32,
                        help="droppable events kept per session before "
                             "sampling kicks in (default: 32)")
    parser.add_argument("--sample-tail", type=int, default=8,
                        help="trailing droppable events recovered at "
                             "session end (default: 8)")
    parser.add_argument("--sample-rate", type=float, default=0.0,
                        help="keep probability for mid-session events "
                             "(default: 0)")
    parser.add_argument("--sample-seed", type=int, default=0,
                        help="sampling hash seed (default: 0)")
    parser.add_argument("--critical-path", action="store_true",
                        help="print the convergence critical path")
    parser.add_argument("--attribute", action="store_true",
                        help="print per-session/site/protocol attribution")
    parser.add_argument("--waterfall", action="store_true",
                        help="print the terminal waterfall")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the schema-validated analysis document")
    parser.add_argument("--html", metavar="PATH", default=None,
                        help="write the self-contained HTML waterfall")
    args = parser.parse_args(argv)

    from repro.obs.causal import analyze_events, validate_analysis
    from repro.obs.export import events_from_jsonl
    from repro.obs.waterfall import render_waterfall, write_waterfall_html

    if args.fleet == (args.trace is not None):
        print("analyze needs exactly one input: a JSONL trace file "
              "or --fleet")
        return 2
    if args.fleet:
        sampling = (SamplingPolicy(head=args.sample_head,
                                   tail=args.sample_tail,
                                   rate=args.sample_rate,
                                   seed=args.sample_seed)
                    if args.sample else None)
        tracer = Tracer(sampling=sampling)
        print(f"=== analyze fleet {args.protocol}: {args.sites} sites × "
              f"{args.objects} objects, loss {args.loss:g} ===")
        _monitor, _runner, result = run_monitored_fleet(
            args.protocol, n_sites=args.sites, **_fleet_shape(args),
            tracer=tracer)
        tracer.flush_sampling()
        events = tracer.events
        print(f"fleet done: {result.sessions} sessions, "
              f"{result.total_bits} bits, {len(events)} trace events kept")
    else:
        try:
            with open(args.trace, "r", encoding="utf-8") as handle:
                events = list(events_from_jsonl(handle))
        except (OSError, ValueError, KeyError) as error:
            print(f"cannot load trace {args.trace!r}: {error}")
            return 2
    analysis = analyze_events(events)
    document = analysis.to_dict()

    show_all = not (args.critical_path or args.attribute or args.waterfall)
    print(f"{document['nodes']} causal nodes, {document['edges']} edges"
          + (f", {document['dropped_links']} transmit link(s) lost to "
             "sampling" if document["dropped_links"] else "")
          + f"; converged={'yes' if document['converged'] else 'NO'}")
    if not document["acyclic"]:  # pragma: no cover - defensive
        print("WARNING: causal graph has a back-edge; trace is corrupt")
    if args.critical_path or show_all:
        print(_format_critical_path(document))
    if args.attribute or show_all:
        print(_format_attribution(document))
    if args.waterfall or show_all:
        print(render_waterfall(document))
    if args.json is not None:
        errors = validate_analysis(document)
        if errors:  # pragma: no cover - schema and writer move together
            print(f"analysis failed schema validation: {errors[:3]}")
            return 1
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=False)
            handle.write("\n")
        print(f"wrote analysis JSON to {args.json} (schema-valid)")
    if args.html is not None:
        write_waterfall_html(args.html, document,
                             title=f"repro causal waterfall — "
                                   f"{args.protocol if args.fleet else args.trace}")
        print(f"wrote HTML waterfall to {args.html}")
    return 0
