"""Diff two ``BENCH_cluster.json`` documents, run by run.

The trajectory only means something if comparing two PRs' documents is
mechanical.  This module pairs runs by their identity — (scenario,
protocol, n_sites, and for batched runs n_objects/batch_size) — and
reports, per pair, how the deterministic quantities (wire bits,
simulated time) and the measured ones (wall time) moved.

Wire bits and simulated time are pure functions of the config, so on an
unchanged codebase they diff to zero; :func:`repro.perf.bench.
bench_fingerprint` makes the same statement in one hash.  CI runs::

    python -m repro.perf.compare BENCH_cluster.json fresh.json --require-same-bits

to assert the committed document still describes what the code does —
a PR that changes traffic must regenerate the document, making every
traffic change reviewable in the diff.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.perf.bench import bench_fingerprint
from repro.perf.schema import load_bench

#: Identity of one run within a document (None fields when absent).
#: Chaos cells add their loss rate and fault seed so two chaos runs of
#: the same protocol/fleet never collide.
RunKey = Tuple[str, str, int, Optional[int], Optional[int],
               Optional[float], Optional[int]]


def run_key(run: Dict[str, Any]) -> RunKey:
    """The pairing identity of one run record."""
    return (run.get("scenario", "?"), run.get("protocol", "?"),
            run.get("n_sites", 0), run.get("n_objects"),
            run.get("batch_size"), run.get("loss_rate"),
            run.get("chaos_seed"))


def _format_key(key: RunKey) -> str:
    scenario, protocol, n_sites, n_objects, batch_size, loss, seed = key
    label = f"{scenario}/{protocol} n={n_sites}"
    if batch_size is not None:
        label += f" batch={batch_size}×{n_objects}obj"
    if loss is not None:
        label += f" loss={loss:g}"
    return label


@dataclass(frozen=True)
class RunDelta:
    """One paired run's movement between two documents."""

    key: RunKey
    old_bits: int
    new_bits: int
    old_sim: float
    new_sim: float
    old_wall: float
    new_wall: float

    @property
    def bits_delta_pct(self) -> float:
        return ((self.new_bits - self.old_bits) / self.old_bits * 100
                if self.old_bits else 0.0)

    @property
    def bits_changed(self) -> bool:
        return self.new_bits != self.old_bits


@dataclass
class Comparison:
    """The full diff between two documents."""

    deltas: List[RunDelta]
    only_old: List[RunKey]
    only_new: List[RunKey]
    fingerprints_equal: bool
    #: Runs in the NEW document whose inline invariant checkers fired
    #: (``--monitor`` records only); any entry fails the gate outright —
    #: a violated invariant falsifies the measurement, so "the bits
    #: didn't move" is no longer evidence of anything.
    new_violations: List[Tuple[RunKey, int]] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.new_violations is None:
            self.new_violations = []

    @property
    def bits_changed(self) -> bool:
        """True when any paired run moved bits or the grids differ."""
        return (bool(self.only_old) or bool(self.only_new)
                or any(d.bits_changed for d in self.deltas))

    @property
    def invariants_violated(self) -> bool:
        """True when any NEW run recorded invariant violations."""
        return bool(self.new_violations)


def compare_documents(old: Dict[str, Any],
                      new: Dict[str, Any]) -> Comparison:
    """Pair the runs of two documents and measure every movement."""
    old_runs = {run_key(run): run for run in old.get("runs", ())}
    new_runs = {run_key(run): run for run in new.get("runs", ())}
    deltas = [RunDelta(key=key,
                       old_bits=old_runs[key]["total_bits"],
                       new_bits=new_runs[key]["total_bits"],
                       old_sim=old_runs[key]["sim_completion_seconds"],
                       new_sim=new_runs[key]["sim_completion_seconds"],
                       old_wall=old_runs[key]["wall_seconds"],
                       new_wall=new_runs[key]["wall_seconds"])
              for key in old_runs if key in new_runs]
    return Comparison(
        deltas=deltas,
        only_old=[key for key in old_runs if key not in new_runs],
        only_new=[key for key in new_runs if key not in old_runs],
        fingerprints_equal=(bench_fingerprint(old)
                            == bench_fingerprint(new)),
        new_violations=[(key, run["invariant_violations"])
                        for key, run in new_runs.items()
                        if run.get("invariant_violations")],
    )


def format_comparison(comparison: Comparison) -> str:
    """Render a comparison as the aligned per-pair movement table."""
    header = (f"{'run':44} {'old bits':>10} {'new bits':>10} {'Δ%':>7} "
              f"{'old wall ms':>12} {'new wall ms':>12}")
    lines = [header, "-" * len(header)]
    for delta in comparison.deltas:
        lines.append(
            f"{_format_key(delta.key):44} {delta.old_bits:>10} "
            f"{delta.new_bits:>10} {delta.bits_delta_pct:>+6.1f}% "
            f"{delta.old_wall * 1000:>12.1f} {delta.new_wall * 1000:>12.1f}")
    for key in comparison.only_old:
        lines.append(f"{_format_key(key):44} only in OLD document")
    for key in comparison.only_new:
        lines.append(f"{_format_key(key):44} only in NEW document")
    for key, count in comparison.new_violations:
        lines.append(f"{_format_key(key):44} {count} INVARIANT "
                     f"VIOLATION(S) in NEW document")
    lines.append("")
    lines.append("fingerprints "
                 + ("identical (deterministic fields unchanged)"
                    if comparison.fingerprints_equal else "DIFFER"))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.perf.compare OLD NEW [--require-same-bits]``.

    Exit codes: 0 — compared (and, with ``--require-same-bits``, no wire
    bits moved); 1 — ``--require-same-bits`` and traffic changed, or the
    NEW document records inline invariant violations (always fatal — a
    run that broke its own accounting cannot pass any gate);
    2 — usage or unreadable/invalid documents.
    """
    arguments = list(sys.argv[1:] if argv is None else argv)
    require_same = "--require-same-bits" in arguments
    paths = [a for a in arguments if a != "--require-same-bits"]
    if len(paths) != 2:
        print("usage: python -m repro.perf.compare OLD.json NEW.json "
              "[--require-same-bits]")
        return 2
    try:
        old, new = load_bench(paths[0]), load_bench(paths[1])
    except (OSError, json.JSONDecodeError, ValueError) as error:
        print(error)
        return 2
    comparison = compare_documents(old, new)
    print(f"old: {paths[0]}\nnew: {paths[1]}\n")
    print(format_comparison(comparison))
    if comparison.invariants_violated:
        print("\nthe new document records invariant violations; the "
              "measurements cannot be trusted — fix the regression "
              "before comparing numbers")
        return 1
    if require_same and comparison.bits_changed:
        print("\nwire traffic changed; regenerate and commit the bench "
              "document if this is intended")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
