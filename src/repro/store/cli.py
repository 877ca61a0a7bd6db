"""``python -m repro store`` — the replicated-store workload CLI.

Runs one seeded client workload (:mod:`repro.workload.clients`) against
a store fleet and prints a deterministic report: op mix, session and
read-repair counts, wire totals, client-felt latency and staleness
percentiles, and the converged per-key state digest.  Every printed
quantity is a pure function of the flags — no wall-clock numbers — so
two runs of the same seed are byte-identical, which the CI smoke job
checks by diffing them.

``--monitor`` attaches the consistency observatory
(:mod:`repro.obs.consistency`): the report gains w_k/w_all visibility
percentiles, per-site replication-lag gauges, and the session-guarantee
audit summary, and the export flags write the gauge families out through
the standard exporters (``--prom``/``--otlp``/``--html``) plus the
schema-validated digest itself (``--consistency``).

Usage::

    python -m repro store --demo
    python -m repro store --demo --monitor --prom store.prom
    python -m repro store --sites 16 --ops 100000 --seed 7
    python -m repro store --loss 0.1 --seed 3      # chaos faults on

Exits 0 iff the fleet converged (identical per-key sibling sets and
vectors on every site after the final sweep), 1 otherwise — or on a
``--strict-consistency`` abort.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import replace
from typing import List, Optional

from repro.errors import InvariantViolationError, ReproError
from repro.workload.clients import StoreWorkloadConfig, run_store_workload


def _format_summary(summary: dict) -> str:
    return (f"p50 {summary['p50'] * 1000:.3f} ms / "
            f"p90 {summary['p90'] * 1000:.3f} ms / "
            f"p99 {summary['p99'] * 1000:.3f} ms / "
            f"p999 {summary['p999'] * 1000:.3f} ms")


def format_consistency_report(digest: dict) -> str:
    """The observatory section of the store report (digest-driven)."""
    audit = digest["audit"]
    lag = digest["replication_lag_seconds"]
    laggards = [site for site, value in lag.items() if value > 0]
    lines = [
        f"  consistency observatory "
        f"(k={digest['visibility_k']}, {digest['samples']} samples):",
        f"    w_k visibility:   "
        f"{_format_summary(digest['w_k_seconds'])}",
        f"    w_all visibility: "
        f"{_format_summary(digest['w_all_seconds'])}",
        f"    writes: {digest['writes_tracked']} tracked / "
        f"{digest['writes_visible_all']} fully visible / "
        f"{digest['writes_pending']} pending",
        f"    replication lag: max "
        f"{digest['max_replication_lag_seconds'] * 1000:.3f} ms"
        + (f" ({len(laggards)} sites behind)" if laggards
           else " (all sites current)"),
        f"    session audit: {audit['ops_audited']} ops, "
        f"{audit['violations']} violations "
        f"(ryw {audit['read_your_writes']} / "
        f"monotonic {audit['monotonic_reads']} / "
        f"resurrection {audit['resurrections']}), "
        f"{audit['clients_affected']} clients affected",
    ]
    worst = [entry for entry in digest["worst_keys"]
             if entry["violations"] or entry["max_siblings"] > 1]
    if worst:
        ranked = ", ".join(
            f"{entry['key']} ({entry['violations']} violations, "
            f"{entry['max_siblings']} siblings)" for entry in worst)
        lines.append(f"    worst keys: {ranked}")
    return "\n".join(lines)


def format_store_report(result) -> str:
    """The deterministic report for one finished workload run."""
    config = result.config
    store = result.store
    digest = result.digest()
    sets = store.sibling_sets()
    sizes = sorted(len(value) for value in sets.values()) or [0]
    lines = [
        f"store workload: {config.n_sites} sites × {config.n_keys} keys, "
        f"{config.n_clients} clients, {result.ops} ops, "
        f"protocol {config.protocol}, seed {config.seed}"
        + (f", loss {config.loss_rate:g}" if config.loss_rate else ""),
        f"  ops: {result.reads} reads / {result.writes} writes / "
        f"{result.deletes} deletes ({store.ops_deferred} deferred behind "
        f"busy keys, {store.reads_barred} reads barred by repairs)",
        f"  sessions: {store.sessions} "
        f"({store.sessions_abandoned} abandoned), "
        f"{store.read_repairs} read repairs, "
        f"{store.reconciliations} reconciliations",
        f"  anti-entropy: {store.keys_streamed} keys streamed, "
        f"{store.keys_useful} useful, {store.advert_bits} advert bits",
        f"  wire: {store.total_bits} bits; "
        f"sim completion {store.completion_time:.3f} s",
        f"  get latency: {_format_summary(result.latency_summary('get'))}",
        f"  put latency: {_format_summary(result.latency_summary('put'))}",
        f"  staleness:   {_format_summary(result.staleness_summary())}",
        f"  siblings per key: min {sizes[0]} / "
        f"mean {sum(sizes) / len(sizes):.2f} / max {sizes[-1]}",
        f"  state sha256: {digest['state_sha256']}",
        f"  converged: {result.converged}",
    ]
    if result.consistency is not None:
        lines.append(format_consistency_report(result.consistency))
    return "\n".join(lines)


#: ``--demo`` preset: an 8-site fleet sized to finish in a few seconds.
DEMO_CONFIG = StoreWorkloadConfig(n_sites=8, n_keys=32, n_clients=64,
                                  ops=20_000, op_interval=0.0005, seed=0)


#: ``--flag`` → the :class:`StoreWorkloadConfig` field it overrides.
_CONFIG_FLAGS = {"--sites": ("n_sites", int), "--keys": ("n_keys", int),
                 "--clients": ("n_clients", int), "--ops": ("ops", int),
                 "--read-ratio": ("read_ratio", float),
                 "--zipf": ("zipf", float), "--loss": ("loss_rate", float),
                 "--protocol": ("protocol", str), "--seed": ("seed", int)}
_EXPORTS = ("prom", "otlp", "html", "consistency", "trace")


def store_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro store [--demo] [--monitor] [--sites N] ...``."""
    parser = argparse.ArgumentParser(
        prog="repro store",
        description="Run one seeded client workload against the "
                    "replicated store and print a deterministic report.")
    parser.add_argument("--demo", action="store_true",
                        help="the 8-site, 20k-op acceptance preset")
    for flag, (name, parse) in _CONFIG_FLAGS.items():
        parser.add_argument(flag, dest=name, type=parse, default=None,
                            help=f"override StoreWorkloadConfig.{name}")
    parser.add_argument("--monitor", action="store_true",
                        help="attach the consistency observatory")
    parser.add_argument("--strict-consistency", action="store_true",
                        help="abort on the first session-guarantee "
                             "violation (implies --monitor)")
    parser.add_argument("--visibility-k", type=int, default=None,
                        help="sites a write must reach for w_k "
                             "(implies --monitor)")
    for name in _EXPORTS:
        parser.add_argument(f"--{name}", metavar="PATH", default=None,
                            help=f"write the {name} export "
                                 f"(implies --monitor)")
    args = parser.parse_args(argv)
    overrides = {name: getattr(args, name)
                 for name, _ in _CONFIG_FLAGS.values()
                 if getattr(args, name) is not None}
    exports = {name: getattr(args, name) for name in _EXPORTS}

    monitor = None
    if (args.monitor or args.strict_consistency
            or args.visibility_k is not None
            or any(path is not None for path in exports.values())):
        from repro.obs.consistency import (ConsistencyConfig,
                                           ConsistencyMonitor)
        try:
            monitor_config = (
                ConsistencyConfig(strict=args.strict_consistency,
                                  visibility_k=args.visibility_k)
                if args.visibility_k is not None
                else ConsistencyConfig(strict=args.strict_consistency))
        except ValueError as error:
            parser.error(str(error))
        monitor = ConsistencyMonitor(monitor_config)

    base = DEMO_CONFIG if args.demo else StoreWorkloadConfig()
    try:
        result = run_store_workload(replace(base, **overrides),
                                    monitor=monitor)
    except InvariantViolationError as error:
        print(f"ABORTED: {error}")
        return 1
    except ReproError as error:
        print(f"store workload failed: {error}")
        return 2
    print(format_store_report(result))
    if monitor is not None and not _write_exports(result, monitor, exports):
        return 1
    return 0 if result.converged else 1


def _write_exports(result, monitor, exports: dict) -> bool:
    """Write the requested export files; False on a validation failure."""
    if exports["prom"] is not None:
        from repro.obs.exporters import to_prometheus
        with open(exports["prom"], "w", encoding="utf-8") as handle:
            handle.write(to_prometheus(result.metrics,
                                       consistency=monitor))
        print(f"wrote Prometheus text to {exports['prom']}")
    if exports["otlp"] is not None:
        from repro.obs.exporters import to_otlp
        from repro.obs.otlp_schema import validate_otlp
        document = to_otlp(monitor.tracer, result.metrics,
                           consistency=monitor,
                           service_name="repro-store")
        errors = validate_otlp(document)
        if errors:
            print(f"OTLP export failed schema validation "
                  f"({len(errors)} errors):")
            for error in errors[:10]:
                print(f"  {error}")
            return False
        with open(exports["otlp"], "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
        print(f"wrote OTLP JSON to {exports['otlp']}")
    if exports["html"] is not None:
        from repro.obs.dashboard import write_consistency_html_report
        label = f"store:{result.config.protocol}"
        write_consistency_html_report(exports["html"], {label: monitor})
        print(f"wrote HTML report to {exports['html']}")
    if exports["consistency"] is not None:
        from repro.obs.consistency import validate_consistency
        digest = result.consistency
        errors = validate_consistency(digest)
        if errors:
            print(f"consistency digest failed schema validation "
                  f"({len(errors)} errors):")
            for error in errors[:10]:
                print(f"  {error}")
            return False
        with open(exports["consistency"], "w", encoding="utf-8") as handle:
            json.dump(digest, handle, indent=2, sort_keys=True)
        print(f"wrote consistency digest to {exports['consistency']}")
    if exports["trace"] is not None:
        from repro.obs.export import write_jsonl
        count = write_jsonl(monitor.tracer.events, exports["trace"])
        print(f"wrote {count} trace events to {exports['trace']} "
              f"(render with: python -m repro trace {exports['trace']} "
              f"--filter put,get,delete,read_repair,consistency_violation)")
    return True


if __name__ == "__main__":
    raise SystemExit(store_main())
