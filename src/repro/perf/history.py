"""Bench-history observatory: per-cell trajectories across documents.

:mod:`repro.perf.compare` diffs *two* ``BENCH_cluster.json`` documents;
this module ingests a chronological *sequence* of them and watches each
cell (one :func:`~repro.perf.compare.run_key`) move through time —
wire bits, bits per object, goodput, simulated completion, wall time,
and (when the bench ran with ``--analyze``) the convergence
critical-path length.  It renders sparkline trajectories and flags
regressions:

* **deterministic metrics** (bits, goodput, simulated seconds,
  critical-path seconds) are pure functions of the code — the latest
  document must match the previous one exactly (floats up to 1 ulp-ish
  relative tolerance); any drift is a flagged change, same doctrine as
  ``compare --require-same-bits``.
* **measured metrics** (wall seconds) are noisy — the latest value is
  compared against the *median of all prior* values and flagged only
  beyond the noise band (default ±50%, so an injected 2× slowdown
  always trips it).

``python -m repro history OLD.json ... NEW.json --gate`` exits non-zero
when anything is flagged, closing the loop between the tracer, the
bench suite, and CI.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.dashboard import sparkline
from repro.perf.compare import RunKey, _format_key, run_key
from repro.perf.schema import load_bench

#: Relative tolerance for "deterministic" float metrics: identical code
#: must reproduce them, but a foreign platform may round the last ulp.
_EXACT_RTOL = 1e-9


@dataclass(frozen=True)
class MetricSpec:
    """One tracked per-run quantity."""

    name: str
    extract: Callable[[Dict[str, Any]], Optional[float]]
    #: Deterministic (exact-match) vs measured (noise-banded).
    exact: bool
    #: Whether an increase is the bad direction (wall time: yes;
    #: goodput: a *decrease* is the regression).
    higher_is_worse: bool = True


def _bits_per_object(run: Dict[str, Any]) -> Optional[float]:
    n_objects = run.get("n_objects")
    if not n_objects:
        return None
    return run["total_bits"] / n_objects


def _consistency_metric(*path: str) -> Callable[[Dict[str, Any]],
                                                Optional[float]]:
    """An extractor into the run's embedded consistency digest.

    Returns ``None`` whenever the block (or any step of the path) is
    absent, so unmonitored documents trend exactly as before.
    """
    def extract(run: Dict[str, Any]) -> Optional[float]:
        node: Any = run.get("consistency")
        for name in path:
            if not isinstance(node, dict):
                return None
            node = node.get(name)
        return node if isinstance(node, (int, float)) else None
    return extract


METRICS: Tuple[MetricSpec, ...] = (
    MetricSpec("total_bits", lambda run: run.get("total_bits"),
               exact=True),
    MetricSpec("bits_per_object", _bits_per_object, exact=True),
    MetricSpec("goodput_bits",
               lambda run: (run.get("traffic", {}).get("reliability", {})
                            .get("goodput_bits")),
               exact=True, higher_is_worse=False),
    MetricSpec("sim_completion_seconds",
               lambda run: run.get("sim_completion_seconds"), exact=True),
    MetricSpec("wall_seconds", lambda run: run.get("wall_seconds"),
               exact=False),
    MetricSpec("critical_path_seconds",
               lambda run: run.get("critical_path_seconds"), exact=True),
    # Consistency-observatory trends (monitored store cells only; all
    # simulated-clock quantities, so exact across identical code):
    MetricSpec("w_all_p99_seconds",
               _consistency_metric("w_all_seconds", "p99"), exact=True),
    MetricSpec("w_k_p99_seconds",
               _consistency_metric("w_k_seconds", "p99"), exact=True),
    MetricSpec("consistency_violations",
               _consistency_metric("audit", "violations"), exact=True),
    MetricSpec("max_replication_lag_seconds",
               _consistency_metric("max_replication_lag_seconds"),
               exact=True),
    # Cluster health rides along for monitored gossip cells: a drop in
    # the worst per-site health score is the regression direction.
    MetricSpec("min_final_score",
               lambda run: (run.get("health", {}).get("min_final_score")
                            if isinstance(run.get("health"), dict)
                            else None),
               exact=True, higher_is_worse=False),
)


@dataclass(frozen=True)
class Flag:
    """One flagged movement in the newest document."""

    key: RunKey
    metric: str
    baseline: float
    latest: float
    exact: bool

    @property
    def ratio(self) -> float:
        return self.latest / self.baseline if self.baseline else float("inf")

    def describe(self) -> str:
        """One human-readable line naming the cell, metric, and move."""
        kind = "CHANGED" if self.exact else "REGRESSION"
        direction = (f"{(self.ratio - 1) * 100:+.1f}%"
                     if self.baseline else "from zero")
        return (f"{_format_key(self.key)} :: {self.metric} {kind} "
                f"{self.baseline:g} → {self.latest:g} ({direction})")


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def extract_trajectories(documents: Sequence[Dict[str, Any]]
                         ) -> Dict[RunKey, Dict[str, List[Optional[float]]]]:
    """Per-cell, per-metric value sequences across the documents.

    A cell absent from some document holds ``None`` at that position, so
    every trajectory is index-aligned with the input sequence.
    """
    cells: Dict[RunKey, Dict[str, List[Optional[float]]]] = {}
    for index, document in enumerate(documents):
        for run in document.get("runs", ()):
            key = run_key(run)
            trajectories = cells.setdefault(
                key, {metric.name: [None] * len(documents)
                      for metric in METRICS})
            for metric in METRICS:
                value = metric.extract(run)
                if value is not None:
                    trajectories[metric.name][index] = float(value)
    return cells


def detect_flags(cells: Dict[RunKey, Dict[str, List[Optional[float]]]],
                 *, band: float = 0.5) -> List[Flag]:
    """Flag the newest document's movements beyond tolerance.

    Deterministic metrics compare the latest value against the most
    recent prior one; measured metrics compare against the median of all
    priors and flag only movements in the bad direction beyond ``band``.
    """
    flags: List[Flag] = []
    for key in sorted(cells, key=str):
        for metric in METRICS:
            series = cells[key][metric.name]
            latest = series[-1]
            priors = [value for value in series[:-1] if value is not None]
            if latest is None or not priors:
                continue
            if metric.exact:
                baseline = priors[-1]
                scale = max(abs(baseline), abs(latest), 1.0)
                if abs(latest - baseline) > _EXACT_RTOL * scale:
                    flags.append(Flag(key, metric.name, baseline, latest,
                                      exact=True))
            else:
                baseline = _median(priors)
                worse = (latest > baseline * (1.0 + band)
                         if metric.higher_is_worse
                         else latest < baseline / (1.0 + band))
                if worse:
                    flags.append(Flag(key, metric.name, baseline, latest,
                                      exact=False))
    return flags


def format_history(cells: Dict[RunKey, Dict[str, List[Optional[float]]]],
                   flags: List[Flag], *, n_documents: int,
                   width: int = 16) -> str:
    """The trajectory report: one sparkline block per cell."""
    flagged = {(flag.key, flag.metric) for flag in flags}
    lines = [f"bench history: {n_documents} document(s), "
             f"{len(cells)} cell(s)"]
    for key in sorted(cells, key=str):
        lines.append(_format_key(key))
        for metric in METRICS:
            series = cells[key][metric.name]
            present = [value for value in series if value is not None]
            if not present:
                continue
            spark = sparkline(present, width=width)
            note = ""
            if (key, metric.name) in flagged:
                note = "  ⚠ " + next(
                    flag.describe().split(" :: ", 1)[1]
                    for flag in flags
                    if (flag.key, flag.metric) == (key, metric.name))
            elif len(set(present)) == 1:
                note = "  (stable)"
            lines.append(f"  {metric.name:<24} {spark:<{width}} "
                         f"{present[-1]:g}{note}")
    if flags:
        lines.append("")
        lines.append(f"{len(flags)} flagged movement(s):")
        lines.extend(f"  {flag.describe()}" for flag in flags)
    else:
        lines.append("no movements beyond tolerance")
    return "\n".join(lines)


def history_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro history DOC.json ... [--gate] [--band 0.5]``.

    Documents are given oldest → newest.  Exit codes: 0 — report
    rendered (no flags, or no ``--gate``); 1 — ``--gate`` and at least
    one movement beyond tolerance; 2 — usage or unreadable documents.
    """
    parser = argparse.ArgumentParser(
        prog="repro history",
        description="Trend each bench cell across a chronological "
                    "sequence of BENCH_cluster.json documents.")
    parser.add_argument("documents", nargs="+", metavar="DOC.json",
                        help="bench documents, oldest to newest (>= 2)")
    parser.add_argument("--gate", action="store_true",
                        help="exit 1 when the newest document moved "
                             "beyond tolerance")
    parser.add_argument("--band", type=float, default=0.5,
                        help="noise band for measured metrics "
                             "(default: 0.5 = ±50%%)")
    args = parser.parse_intermixed_args(argv)
    if len(args.documents) < 2:
        parser.error("need at least two documents to trend")
    if args.band <= 0:
        parser.error(f"--band must be > 0, got {args.band:g}")
    try:
        documents = [load_bench(path) for path in args.documents]
    except (OSError, json.JSONDecodeError, ValueError) as error:
        print(error)
        return 2
    cells = extract_trajectories(documents)
    flags = detect_flags(cells, band=args.band)
    print(format_history(cells, flags, n_documents=len(documents)))
    if args.gate and flags:
        print("\nhistory gate FAILED: the newest document moved beyond "
              "the noise band; investigate or regenerate the baseline")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(history_main())
