"""Plain-text tables for benchmark reports.

Benchmarks print the same rows/series the paper reports; these helpers
render aligned ASCII tables so EXPERIMENTS.md and the bench output match.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Sequence


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[Any]]) -> str:
    """An aligned, boxless table with a header rule."""
    materialized: List[List[str]] = [[str(cell) for cell in row]
                                     for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    lines = [render(list(headers)),
             render(["-" * width for width in widths])]
    lines.extend(render(row) for row in materialized)
    return "\n".join(lines)


def format_metrics(snapshot: dict) -> str:
    """Render a :meth:`~repro.obs.MetricsRegistry.snapshot` as tables.

    Counters and gauges become ``name  value`` rows; histograms surface
    their five-number-ish summary (count/total/mean/p50/p90/p99).
    """
    sections: List[str] = []
    scalars = [("counter", name, value)
               for name, value in snapshot.get("counters", {}).items()]
    scalars += [("gauge", name, value)
                for name, value in snapshot.get("gauges", {}).items()]
    if scalars:
        sections.append(format_table(
            ["kind", "name", "value"],
            [[kind, name, value] for kind, name, value in scalars]))
    histograms = snapshot.get("histograms", {})
    if histograms:
        rows = []
        for name, summary in histograms.items():
            rows.append([name, summary["count"],
                         f"{summary['mean']:.2f}", f"{summary['p50']:.2f}",
                         f"{summary['p90']:.2f}", f"{summary['p99']:.2f}"])
        sections.append(format_table(
            ["histogram", "count", "mean", "p50", "p90", "p99"], rows))
    return "\n\n".join(sections) if sections else "(no metrics recorded)"
