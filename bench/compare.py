"""Compare two suite summaries: ``python3 bench/compare.py A.json B.json``.

A is the parent (or first) set, B the change (or second).  One row per
(end-to-end metric, workload): both medians, how much worse B is as a
share of A's median, the metric's bound from ``BENCHMARK.json`` and a
verdict:

* ``regression`` - B is worse than A by more than the bound;
* ``improved``   - B is better than A by more than the bound;
* ``unchanged``  - within the bound, and the comparison can resolve it;
* ``unresolved`` - within the bound, but it cannot: the pass-by-pass
  ratios B/A of a host-clock metric spread (distance between their
  quartiles, as a share of their median) wider than the bound, and they
  do not all fall on the better side.

Pass ``i`` of both sets ran the same sub-seed, so ratios are taken pass
by pass and simulated metrics need no noise allowance at all: any
difference there is a real change.  How far the host's speed moved
between the sets (``host_calib_s``) is printed per workload; the
throughput metrics already have it divided out.  Exits non-zero on any
regression or any rise in failed operations.  ``--layers`` also lists the
per-layer metrics (no bounds, so no verdicts).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __package__ in (None, ""):
    sys.path[0] = ROOT

from bench.run import HOST_METRICS, load_declaration  # noqa: E402


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    return (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)


def judge(name: str, entry: Dict[str, Any], a: Dict[str, Any],
          b: Dict[str, Any]) -> Tuple[float, str]:
    change = worse_by(a["value"], b["value"], entry["better"])
    if change > entry["bound"]:
        return change, "regression"
    if name in HOST_METRICS and not resolvable(entry, a["values"],
                                               b["values"]):
        return change, "unresolved"
    return change, "improved" if change < -entry["bound"] else "unchanged"


def resolvable(entry: Dict[str, Any], first: List[float],
               second: List[float]) -> bool:
    """Whether the passes are steady enough to call a host metric."""
    if len(first) != len(second) or len(first) < 2 or not all(first):
        return False
    ratios = [y / x for x, y in zip(first, second)]
    low, _, high = statistics.quantiles(ratios, n=4, method="inclusive")
    if (high - low) / statistics.median(ratios) <= entry["bound"]:
        return True
    better = min if entry["better"] == "higher" else max
    return worse_by(1.0, better(ratios), entry["better"]) < 0


def compare(first: Dict[str, Any], second: Dict[str, Any],
            declaration: Dict[str, Any], layers: bool = False
            ) -> Tuple[List[str], bool]:
    """(report rows, whether anything regressed)."""
    rows: List[str] = []
    regressed = False
    header = (f"{'workload':<20} {'metric':<24} {'A':>13} {'B':>13} "
              f"{'worse by':>9} {'bound':>6}  verdict")
    rows.append(header)
    for workload, a in first["workloads"].items():
        b = second["workloads"].get(workload)
        if b is None:
            rows.append(f"{workload:<20} missing from the second set")
            regressed = True
            continue
        calib_a = statistics.mean(a["host_calib_s"])
        calib_b = statistics.mean(b["host_calib_s"])
        rows.append(f"{workload:<20} host_calib_s {calib_a:.4f} -> "
                    f"{calib_b:.4f} ({100 * (calib_b / calib_a - 1):+.1f}%)")
        if b["failed"] > a["failed"]:
            rows.append(f"{workload:<20} failed operations rose "
                        f"{a['failed']} -> {b['failed']}: regression")
            regressed = True
        for entry in declaration["end_to_end"]:
            name = entry["name"]
            change, verdict = judge(name, entry, a["end_to_end"][name],
                                    b["end_to_end"][name])
            regressed |= verdict == "regression"
            rows.append(
                f"{workload:<20} {name:<24} "
                f"{a['end_to_end'][name]['value']:>13.6g} "
                f"{b['end_to_end'][name]['value']:>13.6g} "
                f"{100 * change:>+8.2f}% {100 * entry['bound']:>5.1f}%  "
                f"{verdict}")
        if layers and "per_layer" in a and "per_layer" in b:
            for entry in declaration["per_layer"]:
                name = entry["name"]
                x, y = a["per_layer"][name], b["per_layer"][name]
                change = worse_by(x, y, entry["better"])
                rows.append(f"{workload:<20} {name:<40} {x:>13.6g} "
                            f"{y:>13.6g} {100 * change:>+8.2f}%")
    return rows, regressed


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first")
    parser.add_argument("second")
    parser.add_argument("--layers", action="store_true")
    args = parser.parse_args(argv)
    summaries = []
    for path in (args.first, args.second):
        with open(path, encoding="utf-8") as f:
            summaries.append(json.load(f))
    rows, regressed = compare(*summaries, load_declaration(),
                              layers=args.layers)
    print("\n".join(rows))
    print("\nREGRESSION" if regressed else "\nno regression")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
