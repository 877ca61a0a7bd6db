"""Diff two ``BENCH_cluster.json`` documents, run by run.

The trajectory only means something if comparing two PRs' documents is
mechanical.  This module pairs runs by their identity
(:func:`repro.perf.schema.run_key`: scenario, protocol, n_sites, and for
batched/chaos runs n_objects, batch_size, loss rate and fault seed) and
reports, per pair, how the wire bits moved and which other fields did.

Every field of the document is a pure function of its config, so on an
unchanged codebase two documents are equal, and so are their
fingerprints (:func:`repro.perf.bench.bench_fingerprint`).  CI runs::

    python -m repro.perf.compare BENCH_cluster.json fresh.json --require-same

to assert the committed document still describes what the code does —
a PR that changes traffic or any simulated quantity must regenerate the
document, making every such change reviewable in the diff.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.perf.bench import bench_fingerprint
from repro.perf.schema import RunKey, load_bench, run_key


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
    #: Top-level record fields whose values differ, in record order.
    moved: Tuple[str, ...]

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
    new_violations: List[Tuple[RunKey, int]] = field(default_factory=list)

    @property
    def bits_changed(self) -> bool:
        """True when any paired run moved bits or the grids differ."""
        return (bool(self.only_old) or bool(self.only_new)
                or any(d.bits_changed for d in self.deltas))

    @property
    def invariants_violated(self) -> bool:
        """True when any NEW run recorded invariant violations."""
        return bool(self.new_violations)


def _moved(old: Dict[str, Any], new: Dict[str, Any]) -> Tuple[str, ...]:
    return tuple(name for name in {**old, **new}
                 if old.get(name) != new.get(name))


def compare_documents(old: Dict[str, Any],
                      new: Dict[str, Any]) -> Comparison:
    """Pair the runs of two documents and measure every movement."""
    old_runs = {run_key(run): run for run in old.get("runs", ())}
    new_runs = {run_key(run): run for run in new.get("runs", ())}
    deltas = [RunDelta(key=key,
                       old_bits=old_runs[key]["total_bits"],
                       new_bits=new_runs[key]["total_bits"],
                       moved=_moved(old_runs[key], new_runs[key]))
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
    header = (f"{'run':44} {'old bits':>10} {'new bits':>10} {'Δ%':>7}  "
              f"moved fields")
    lines = [header, "-" * len(header)]
    for delta in comparison.deltas:
        lines.append(
            f"{_format_key(delta.key):44} {delta.old_bits:>10} "
            f"{delta.new_bits:>10} {delta.bits_delta_pct:>+6.1f}%  "
            f"{', '.join(delta.moved) or '-'}")
    for key in comparison.only_old:
        lines.append(f"{_format_key(key):44} only in OLD document")
    for key in comparison.only_new:
        lines.append(f"{_format_key(key):44} only in NEW document")
    for key, count in comparison.new_violations:
        lines.append(f"{_format_key(key):44} {count} INVARIANT "
                     f"VIOLATION(S) in NEW document")
    lines.append("")
    lines.append("fingerprints "
                 + ("identical (documents equal)"
                    if comparison.fingerprints_equal else "DIFFER"))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.perf.compare OLD NEW [--require-same]``.

    Exit codes: 0 — compared (and, with ``--require-same``, the
    fingerprints agree); 1 — ``--require-same`` and the fingerprints
    differ (wire bits, simulated time, any field), or the NEW document
    records inline invariant violations (always fatal — a run that broke
    its own accounting cannot pass any gate); 2 — usage or
    unreadable/invalid documents.
    """
    arguments = list(sys.argv[1:] if argv is None else argv)
    require_same = "--require-same" in arguments
    paths = [a for a in arguments if a != "--require-same"]
    if len(paths) != 2:
        print("usage: python -m repro.perf.compare OLD.json NEW.json "
              "[--require-same]")
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
    if require_same and not comparison.fingerprints_equal:
        what = ("wire traffic changed" if comparison.bits_changed
                else "the documents differ (see the moved fields)")
        print(f"\n{what}; regenerate and commit the bench document if "
              f"this is intended")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
