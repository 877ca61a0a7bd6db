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

import json
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
        f"busy sites)",
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


def store_main(argv: List[str]) -> int:
    """``python -m repro store [--demo] [--monitor] [--sites N] ...``."""
    demo = False
    monitor_on = False
    strict = False
    visibility_k: Optional[int] = None
    exports = {"--prom": None, "--otlp": None, "--html": None,
               "--consistency": None, "--trace": None}
    overrides: dict = {}

    def fail(message: str) -> int:
        print(message)
        print("usage: python -m repro store [--demo] [--sites N] [--keys N] "
              "[--clients N] [--ops N] [--read-ratio F] [--zipf F] "
              "[--loss F] [--protocol brv|crv|srv] [--seed N] "
              "[--monitor] [--strict-consistency] [--visibility-k N] "
              "[--prom PATH] [--otlp PATH] [--html PATH] "
              "[--consistency PATH] [--trace PATH]")
        return 2

    flags = {"--sites": ("n_sites", int), "--keys": ("n_keys", int),
             "--clients": ("n_clients", int), "--ops": ("ops", int),
             "--read-ratio": ("read_ratio", float),
             "--zipf": ("zipf", float), "--loss": ("loss_rate", float),
             "--protocol": ("protocol", str), "--seed": ("seed", int)}
    index = 0
    while index < len(argv):
        argument = argv[index]
        if argument == "--demo":
            demo = True
            index += 1
        elif argument == "--monitor":
            monitor_on = True
            index += 1
        elif argument == "--strict-consistency":
            monitor_on = True
            strict = True
            index += 1
        elif argument == "--visibility-k":
            if index + 1 >= len(argv):
                return fail(f"{argument} requires a value")
            try:
                visibility_k = int(argv[index + 1])
            except ValueError:
                return fail(f"{argument} expects int, "
                            f"got {argv[index + 1]!r}")
            monitor_on = True
            index += 2
        elif argument in exports:
            if index + 1 >= len(argv):
                return fail(f"{argument} requires a value")
            exports[argument] = argv[index + 1]
            monitor_on = True
            index += 2
        elif argument in flags:
            if index + 1 >= len(argv):
                return fail(f"{argument} requires a value")
            name, parse = flags[argument]
            try:
                overrides[name] = parse(argv[index + 1])
            except ValueError:
                return fail(f"{argument} expects {parse.__name__}, "
                            f"got {argv[index + 1]!r}")
            index += 2
        else:
            return fail(f"unknown argument {argument!r}")

    monitor = None
    if monitor_on:
        from repro.obs.consistency import (ConsistencyConfig,
                                           ConsistencyMonitor)
        try:
            monitor_config = (
                ConsistencyConfig(strict=strict, visibility_k=visibility_k)
                if visibility_k is not None
                else ConsistencyConfig(strict=strict))
        except ValueError as error:
            return fail(str(error))
        monitor = ConsistencyMonitor(monitor_config)

    base = DEMO_CONFIG if demo else StoreWorkloadConfig()
    try:
        config = StoreWorkloadConfig(
            **{**{name: getattr(base, name)
                  for name in StoreWorkloadConfig.__dataclass_fields__},
               **overrides})
        result = run_store_workload(config, monitor=monitor)
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
    if exports["--prom"] is not None:
        from repro.obs.exporters import to_prometheus
        with open(exports["--prom"], "w", encoding="utf-8") as handle:
            handle.write(to_prometheus(result.metrics,
                                       consistency=monitor))
        print(f"wrote Prometheus text to {exports['--prom']}")
    if exports["--otlp"] is not None:
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
        with open(exports["--otlp"], "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
        print(f"wrote OTLP JSON to {exports['--otlp']}")
    if exports["--html"] is not None:
        from repro.obs.dashboard import write_consistency_html_report
        label = f"store:{result.config.protocol}"
        write_consistency_html_report(exports["--html"], {label: monitor})
        print(f"wrote HTML report to {exports['--html']}")
    if exports["--consistency"] is not None:
        from repro.obs.consistency import validate_consistency
        digest = result.consistency
        errors = validate_consistency(digest)
        if errors:
            print(f"consistency digest failed schema validation "
                  f"({len(errors)} errors):")
            for error in errors[:10]:
                print(f"  {error}")
            return False
        with open(exports["--consistency"], "w", encoding="utf-8") as handle:
            json.dump(digest, handle, indent=2, sort_keys=True)
        print(f"wrote consistency digest to {exports['--consistency']}")
    if exports["--trace"] is not None:
        from repro.obs.export import write_jsonl
        count = write_jsonl(monitor.tracer.events, exports["--trace"])
        print(f"wrote {count} trace events to {exports['--trace']} "
              f"(render with: python -m repro trace {exports['--trace']} "
              f"--filter put,get,delete,read_repair,consistency_violation)")
    return True


if __name__ == "__main__":
    import sys

    raise SystemExit(store_main(sys.argv[1:]))
