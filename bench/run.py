"""The repo benchmark: one command, every metric by name with its unit.

    python3 bench/run.py                       # the whole suite, seed 0
    python3 bench/run.py --seed 1 --workload store_hot
    python3 bench/run.py --crosscheck store_hot

The benchmark contract's driver calls
``--workload NAME --seed N --seconds S --trace 0|1``; ``--trace 0`` runs
and prints the end-to-end metrics only, ``--trace 1`` the per-layer
metrics only, and without ``--trace`` both are produced.  The last line
of stdout is one JSON object: the contract's result when one workload and
``--trace`` are given, the suite summary (ending ``"claim": null``)
otherwise.

Every pass is a fresh interpreter (``onepass.py``).  End-to-end numbers
are medians over untraced passes, one per sub-seed derived from
``--seed``, taken round-robin across workloads; per-layer numbers come
from one separate traced pass (``trace.py``) plus the observer-overhead
passes.  A pass that fails a correctness check, or a traced/observed pass
whose fingerprint differs from the untraced one, makes the command exit
non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, Iterable, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __package__ in (None, ""):
    # Run as a script: replace the script directory so that bench/trace.py
    # stays ``bench.trace`` and never answers to ``import trace``.
    sys.path[0] = ROOT

OUT_DIR = os.path.join(ROOT, "bench", "out")
ONEPASS = os.path.join(ROOT, "bench", "onepass.py")

#: Workload sizes relative to the ones the issue was profiled at (see
#: workloads.py); chosen so that a run fits the contract's time cap.
SCALES = {"store_hot": 0.7, "store_wide": 0.5, "store_writes": 0.5,
          "fleet_gossip": 0.5, "fleet_sharded_lossy": 0.5}

#: Untraced passes (= sub-seeds) per run at the declared ``run_seconds``;
#: ``--seconds`` scales them in proportion.  More where a pass is short or
#: the simulated tail is seed-sensitive (``store_wide``), so that every run
#: takes about 20 s on the 2-core sandbox.  A table, not a stopwatch: the
#: pass count, and with it every simulated metric, depends on the
#: arguments only, never on how fast the host happens to be.
PASSES = {"store_hot": 3, "store_wide": 4, "store_writes": 4,
          "fleet_gossip": 5, "fleet_sharded_lossy": 3}

#: Seconds ``onepass.calibrate`` takes on the sandbox at its usual speed.
#: Throughput is reported per second of a host this fast: each run's wall
#: times are divided by (its mean calibration time / this).
CALIBRATION_REFERENCE_S = 0.30

#: Measured on the host clock (noisy); every other metric is on the
#: simulated clock and repeats bit-for-bit for the same arguments.
HOST_METRICS = frozenset(
    {"setup_s", "client_ops_per_s", "sessions_per_s", "peak_rss_mb"})

#: Observer-overhead passes: workload -> (observer, per-layer metric).
OBSERVER_PASSES = {
    "store_hot": (("consistency", "obs.consistency.overhead_ratio"),
                  ("tracer", "obs.tracer.overhead_ratio")),
    "fleet_sharded_lossy": (("monitor", "obs.monitor.overhead_ratio"),),
}

#: Percentile metrics and the pass-record sample they are taken over.
SAMPLE_OF = {"get_latency_ms_mean": "get", "get_latency_ms_p90": "get",
             "put_latency_ms_p90": "put", "staleness_ms_p99": "get",
             "session_sim_ms_mean": "sessions",
             "session_sim_ms_p99": "sessions"}


class BenchError(Exception):
    """A pass failed, was incorrect, or disagreed with its reference."""


def load_declaration() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def sub_seed(seed: int, index: int) -> int:
    """The seed of pass ``index``; sessions use it, updates the next one."""
    return seed * 1000 + 2 * index


def passes_for(workload: str, seconds: float, declared_seconds: float
               ) -> int:
    return max(3, round(PASSES[workload] * seconds / declared_seconds))


def run_pass(workload: str, seed: int, *, scale: Optional[float] = None,
             mode: str = "untraced", observer: Optional[str] = None,
             trace_out: Optional[str] = None,
             deadline: Optional[float] = None) -> Dict[str, Any]:
    """One pass in a fresh interpreter; returns its (checked) record."""
    scale = SCALES[workload] if scale is None else scale
    command = [sys.executable, ONEPASS, "--workload", workload,
               "--seed", str(seed), "--scale", repr(scale), "--mode", mode,
               "--t0", repr(time.time())]
    if observer:
        command += ["--observer", observer]
    if trace_out:
        command += ["--trace-out", trace_out]
    timeout = None if deadline is None else max(1.0, deadline - time.time())
    label = f"{workload} seed {seed} ({observer or mode})"
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {label} ran out of time") from None
    if done.returncode != 0:
        raise BenchError(f"pass {label} exited {done.returncode}:\n"
                         f"{done.stderr.strip()}")
    record = json.loads(done.stdout.strip().splitlines()[-1])
    failed_checks = [name for name, ok in record["checks"].items() if not ok]
    if failed_checks or record["failed"]:
        raise BenchError(f"pass {label} is incorrect: checks failed "
                         f"{failed_checks}, {record['failed']} of "
                         f"{record['attempted']} operations failed")
    return record


def require_same_fingerprint(reference: Dict[str, Any],
                             other: Dict[str, Any]) -> None:
    if other["fingerprint"] != reference["fingerprint"]:
        raise BenchError(
            f"{other['workload']}: the {other['observer'] or other['mode']} "
            f"pass changed the simulation (fingerprint "
            f"{other['fingerprint']} != {reference['fingerprint']})")


def host_slowdown(passes: List[Dict[str, Any]]) -> float:
    """How much slower than the reference the host ran during ``passes``."""
    samples = [s for record in passes for s in record["host_calib_s"]]
    return statistics.mean(samples) / CALIBRATION_REFERENCE_S


def end_to_end(passes: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Every end-to-end metric: its median over the passes, and each pass."""
    table: Dict[str, Dict[str, Any]] = {}
    slowdown = host_slowdown(passes)
    for record in passes:
        # Work per second of the reference host: one slowdown per run, from
        # every calibration sample around its passes (a single sample is
        # noisier than the pass it would correct).
        reference_s = record["wall_s"] / slowdown
        record["metrics"].update(
            setup_s=record["setup_s"], peak_rss_mb=record["peak_rss_mb"],
            client_ops_per_s=record["work"]["client_ops"] / reference_s,
            sessions_per_s=record["work"]["sessions"] / reference_s)
    for name in passes[0]["metrics"]:
        values = [record["metrics"][name] for record in passes]
        table[name] = {"value": statistics.median(values), "values": values}
        if name in SAMPLE_OF:
            table[name]["samples_per_pass"] = \
                passes[0]["samples"][SAMPLE_OF[name]]
    return table


def per_layer(base: Dict[str, Any], traced: Dict[str, Any],
              observed: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    """The per-layer metrics one workload produces.

    Time ratios are against the untraced pass of the same sub-seed, so
    both sides simulated exactly the same thing.
    """
    table: Dict[str, float] = dict(traced["layers"])
    table["bench.trace_overhead_ratio"] = traced["wall_s"] / base["wall_s"]
    table.update(base["counts"])
    table.update(traced["traced_counts"])
    for observer, metric in OBSERVER_PASSES.get(base["workload"], ()):
        table[metric] = observed[observer]["wall_s"] / base["wall_s"]
    return table


def measure(passes: Dict[str, int], seed: int, *,
            want_end_to_end: bool, want_layers: bool,
            scale: Optional[float] = None,
            deadline: Optional[float] = None) -> Dict[str, Dict[str, Any]]:
    """Run every pass the request needs; returns per-workload results.

    ``passes`` maps each workload to its number of untraced passes; only
    the first is run when no end-to-end numbers are wanted (it is the
    traced pass's reference).
    """
    workloads = list(passes)
    counts = passes if want_end_to_end else dict.fromkeys(workloads, 1)
    untraced: Dict[str, List[Dict[str, Any]]] = {w: [] for w in workloads}
    common = dict(scale=scale, deadline=deadline)
    # Round-robin, so a drift in host speed spreads over all workloads.
    for index in range(max(counts.values())):
        for workload in workloads:
            if index < counts[workload]:
                untraced[workload].append(run_pass(
                    workload, sub_seed(seed, index), **common))
    results: Dict[str, Dict[str, Any]] = {}
    for workload in workloads:
        passes = untraced[workload]
        base = passes[0]
        result: Dict[str, Any] = {
            "fingerprints": [r["fingerprint"] for r in passes],
            "host_calib_s": [s for r in passes for s in r["host_calib_s"]],
        }
        if want_end_to_end:
            result["end_to_end"] = end_to_end(passes)
        if want_layers:
            traced = run_pass(
                workload, base["seed"], mode="traced", **common,
                trace_out=os.path.join(OUT_DIR, f"trace-{workload}.jsonl"))
            require_same_fingerprint(base, traced)
            observed = {}
            for observer, _ in OBSERVER_PASSES.get(workload, ()):
                observed[observer] = run_pass(
                    workload, base["seed"], observer=observer, **common)
                require_same_fingerprint(base, observed[observer])
            passes = passes + [traced, *observed.values()]
            result["per_layer"] = per_layer(base, traced, observed)
            result["trace_warnings"] = traced["trace_warnings"]
        result["attempted"] = sum(r["attempted"] for r in passes)
        result["failed"] = sum(r["failed"] for r in passes)
        # Every run made, as it reported itself.
        result["passes"] = passes
        results[workload] = result
    return results


def as_declared(declared: Iterable[Dict[str, Any]],
                measured: Dict[str, Any], fill: Any = None) -> Dict[str, Any]:
    """``measured`` in declaration order; refuses undeclared names.

    A per-layer metric of a layer the workload never enters (``store.*``
    on a fleet, an observer pass that belongs to another workload) is
    ``fill``; an end-to-end metric must be measured on every workload.
    """
    names = [entry["name"] for entry in declared]
    undeclared = sorted(set(measured) - set(names))
    missing = [name for name in names if name not in measured]
    if undeclared or (missing and fill is None):
        raise BenchError(
            f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"undeclared {undeclared}")
    return {name: measured.get(name, fill) for name in names}


def report(results: Dict[str, Dict[str, Any]], units: Dict[str, str]
           ) -> None:
    """Every metric by name, with unit, time base and sample counts."""
    for workload, result in results.items():
        calib = result["host_calib_s"]
        print(f"\n== {workload}  (host_calib_s mean "
              f"{statistics.mean(calib):.4f} over {len(calib)} samples; "
              f"reference {CALIBRATION_REFERENCE_S})")
        for name, row in result.get("end_to_end", {}).items():
            base = "host" if name in HOST_METRICS else "sim"
            samples = (f", {row['samples_per_pass']} samples/pass"
                       if "samples_per_pass" in row else "")
            values = row["values"]
            print(f"  {name:<24} {row['value']:>14.6g} {units[name]:<6} "
                  f"{base:<4} median of {len(values)} passes "
                  f"[{min(values):.6g} .. {max(values):.6g}]{samples}")
        for name, value in result.get("per_layer", {}).items():
            print(f"  {name:<40} {value:>14.6g} {units[name]}")
        for missing in result.get("trace_warnings", ()):
            print(f"  warning: trace target {missing} did not resolve; its "
                  f"time falls into its caller's layer")


def crosscheck(workload: str, seed: int) -> int:
    """cProfile folded by module beside the traced shares (report only)."""
    profile = run_pass(workload, sub_seed(seed, 0), mode="profile")
    traced = run_pass(workload, sub_seed(seed, 0), mode="traced")
    folded = profile["profile"]
    profile_total = sum(folded.values())
    spans, traced_total = traced["layers"], traced["wall_s"]
    print(f"{workload}: cProfile tottime by module vs traced self time "
          f"(shares of each run's own total)")
    print(f"  {'layer':<18} {'cProfile':>9} {'traced':>9}")
    rows = [(key[:-len(".self_s")], key) for key in sorted(spans)
            if key.endswith(".self_s")]
    rows.append(("(no layer)", "bench.unattributed_s"))
    for layer, key in rows:
        profiled = folded.get("unlayered" if layer == "(no layer)" else layer,
                              0.0)
        print(f"  {layer:<18} {100 * profiled / profile_total:>8.1f}% "
              f"{100 * spans[key] / traced_total:>8.1f}%")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    declaration = load_declaration()
    names = [entry["name"] for entry in declaration["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=declaration["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=None)
    parser.add_argument("--crosscheck", choices=names, default=None)
    parser.add_argument("--out", default=None,
                        help="where to write the suite summary JSON")
    args = parser.parse_args(argv)

    try:
        if args.crosscheck:
            return crosscheck(args.crosscheck, args.seed)
        contract = args.workload is not None and args.trace is not None
        workloads = [args.workload] if args.workload else names
        results = measure(
            {w: passes_for(w, args.seconds, declaration["run_seconds"])
             for w in workloads}, args.seed,
            want_end_to_end=args.trace in (None, 0),
            want_layers=args.trace in (None, 1),
            deadline=time.time() + 170 if contract else None)
        for result in results.values():
            if "end_to_end" in result:
                result["end_to_end"] = as_declared(
                    declaration["end_to_end"], result["end_to_end"])
            if "per_layer" in result:
                result["per_layer"] = as_declared(
                    declaration["per_layer"], result["per_layer"], fill=0.0)
    except BenchError as error:
        print(f"bench: FAILED: {error}", file=sys.stderr)
        return 1

    units = {entry["name"]: entry["unit"]
             for kind in ("end_to_end", "per_layer")
             for entry in declaration[kind]}
    report(results, units)
    if contract:
        result = results[args.workload]
        if args.trace == 0:
            values = {name: row["value"]
                      for name, row in result["end_to_end"].items()}
        else:
            values = result["per_layer"]
        print(json.dumps({
            "correct": True, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}))
        return 0
    summary = {"schema": "bench-summary/1", "seed": args.seed,
               "seconds": args.seconds, "workloads": results, "claim": None}
    out = args.out or os.path.join(OUT_DIR, f"summary-seed{args.seed}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=1)
    print(f"\nsummary written to {os.path.relpath(out, os.getcwd())}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
