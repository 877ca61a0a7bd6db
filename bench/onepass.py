"""One benchmark pass in a fresh interpreter (spawned by ``run.py``).

Prints the pass record as one JSON object on the last line of stdout.
Modes: ``untraced`` (end-to-end numbers, observers off unless
``--observer``), ``traced`` (``bench.trace`` wrappers installed, per-layer
numbers) and ``profile`` (cProfile, folded by module into layer names; the
cross-check, not the instrument).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from typing import Any, Dict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Replace the script directory: bench/trace.py must stay ``bench.trace``
# and never answer to ``import trace``.
sys.path[0:1] = [ROOT, os.path.join(ROOT, "src")]

CALIBRATION_LOOPS = 2_700_000


def calibrate() -> float:
    """Wall seconds of a fixed pure-Python kernel (about 0.3 s here).

    Taken right before and right after the timed region.  The sandbox's
    speed wanders by tens of percent over seconds to minutes; ``run.py``
    divides it out of the throughput metrics with these samples.
    """
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
        table[i & 1023] = total
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--mode", default="untraced",
                        choices=("untraced", "traced", "profile"))
    parser.add_argument("--observer", default=None)
    parser.add_argument("--t0", type=float, default=None,
                        help="epoch seconds when the parent spawned us")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    t0 = args.t0 if args.t0 is not None else time.time()

    from bench import workloads

    record: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "mode": args.mode, "observer": args.observer}
    if args.mode == "traced":
        _traced_pass(args, workloads, record)
    else:
        prepared = workloads.prepare(args.workload, args.seed, args.scale,
                                     args.observer)
        record["setup_s"] = time.time() - t0
        calibration = [calibrate()]
        if args.mode == "profile":
            result, wall_s = _profiled(prepared.run, record)
        else:
            start = time.perf_counter()
            result = prepared.run()
            wall_s = time.perf_counter() - start
        record["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        calibration.append(calibrate())
        record["host_calib_s"] = calibration
        record["wall_s"] = wall_s
        record.update(prepared.summarize(result))
    print(json.dumps(record))
    return 0


def _traced_pass(args: Any, workloads: Any, record: Dict[str, Any]) -> None:
    from bench import trace

    tracer = trace.LayerTracer()
    installed = trace.install(tracer)
    try:
        with tracer.root("setup"):
            prepared = workloads.prepare(args.workload, args.seed,
                                         args.scale, args.observer)
        with tracer.root("run") as root:
            result = prepared.run()
    finally:
        installed.restore()
    run = root.result
    record["wall_s"] = run.wall_s
    record["trace_warnings"] = installed.warnings
    record.update(prepared.summarize(result))
    layers: Dict[str, float] = {"bench.unattributed_s": run.unattributed_s}
    for layer, (self_s, calls) in run.layers().items():
        layers[f"{layer}.self_s"] = self_s
        layers[f"{layer}.calls"] = calls
    record["layers"] = layers
    calls = tracer.calls
    merges = calls.get("store.kv:merge_siblings", 0)
    ring = [end - start for name, _, start, end, _, _ in tracer.sample
            if name == "net.topology:build_shard_map"]
    record["traced_counts"] = {
        "store.kv.merge_calls": merges,
        "store.kv.merge_inputs_mean":
            tracer.counters.get("merge_inputs", 0) / merges
            if merges else 0.0,
        # Timers armed (call_after delegates to call_at), processes
        # spawned, and process resumptions.
        "net.simulator.events":
            calls.get("net.simulator:Simulator.call_at", 0)
            + calls.get("net.simulator:Simulator.spawn", 0)
            + sum(n for name, n in calls.items() if ":process<" in name),
        "net.topology.ring_build_s": sum(ring),
    }
    if args.trace_out:
        os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
        tracer.write_jsonl(args.trace_out)


def _profiled(run: Any, record: Dict[str, Any]) -> Any:
    import cProfile
    import pstats

    from bench import trace

    profiler = cProfile.Profile()
    start = time.perf_counter()
    result = profiler.runcall(run)
    wall_s = time.perf_counter() - start
    src = os.path.join(ROOT, "src") + os.sep
    folded: Dict[str, float] = {}
    for (filename, _line, _name), row in pstats.Stats(profiler).stats.items():
        layer = None
        if filename.startswith(src):
            module = filename[len(src):-len(".py")].replace(os.sep, ".")
            layer = trace.layer_of_module(module)
        key = layer or "unlayered"
        folded[key] = folded.get(key, 0.0) + row[2]  # tottime
    record["profile"] = folded
    return result, wall_s


if __name__ == "__main__":
    sys.exit(main())
