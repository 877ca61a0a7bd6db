"""Terminal dashboards and static HTML reports over the observers.

The terminal view of either observer is a per-site table of unicode
sparklines — one row per site, one column per gauge — followed by its
rollups, a worst-offender ranking and the violations verdict.  The HTML
report is fully self-contained (inline CSS, inline SVG polylines, zero
external assets), so CI can archive it as a single artifact and a
browser anywhere can open it.

:func:`render_dashboard` and :func:`render_html_report` view a
:class:`~repro.obs.monitor.ClusterMonitor` (convergence ranking,
invariant verdict); :func:`render_consistency_dashboard` and
:func:`render_consistency_html_report` view a
:class:`~repro.obs.consistency.ConsistencyMonitor` (visibility
percentiles, the per-key worst-offender panel, the session-guarantee
verdict).  Both pairs share one sparkline table, one violations block
and one HTML page frame.
"""

from __future__ import annotations

import html
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from repro.errors import ValidationError
from repro.obs.consistency import ConsistencyMonitor
from repro.obs.monitor import ClusterMonitor
from repro.obs.observer import Observer

#: Eight-level block ramp, lowest to highest.
SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: Gauge (of either observer) -> short column header for the table.
_HEADERS = {
    "frontier_distance": "frontier",
    "delta_backlog": "backlog",
    "conflict_density": "conflict",
    "segment_count": "segments",
    "pressure": "pressure",
    "convergence_score": "converge",
    "sibling_population": "siblings",
    "anti_entropy_lag": "ae lag",
    "replication_lag": "repl lag",
}


def sparkline(values: Sequence[float], width: int = 16) -> str:
    """``values`` as a fixed-width unicode sparkline.

    Longer series are resampled by bucketing (each output char covers an
    equal share of the input, showing its max — spikes must not vanish);
    shorter ones are left-padded with spaces.  A flat series renders at
    its level: all-zero stays low, a constant positive renders high.
    """
    if width < 1:
        raise ValidationError(f"sparkline width must be >= 1, got {width}")
    if not values:
        return " " * width
    if len(values) > width:
        buckets: List[float] = []
        for index in range(width):
            start = index * len(values) // width
            end = max(start + 1, (index + 1) * len(values) // width)
            buckets.append(max(values[start:end]))
        values = buckets
    low = min(values)
    high = max(values)
    span = high - low
    chars = []
    for value in values:
        if span == 0:
            level = 7 if high > 0 else 0
        else:
            level = int((value - low) / span * 7)
        chars.append(SPARK_CHARS[level])
    return "".join(chars).rjust(width)


def _sparkline_table(observer: Observer, width: int,
                     max_sites: Optional[int]) -> List[str]:
    """One row of gauge sparklines per site (the first ``max_sites``)."""
    site_width = _site_width(observer)
    header = "  ".join(_HEADERS[name].center(width)
                       for name in observer.GAUGES)
    lines = [f"{'site'.ljust(site_width)}  {header}"]
    shown = (observer.sites if max_sites is None
             else observer.sites[:max_sites])
    for site in shown:
        cells = [sparkline([value for _, value in observer.series(site, name)],
                           width)
                 for name in observer.GAUGES]
        lines.append(f"{site.ljust(site_width)}  " + "  ".join(cells))
    if len(shown) < len(observer.sites):
        lines.append(f"{'…'.ljust(site_width)}  "
                     f"({len(observer.sites) - len(shown)} more sites)")
    return lines


def _site_width(observer: Observer) -> int:
    return max([len(site) for site in observer.sites] + [4])


def _violation_lines(observer: Observer, headline: str,
                     clean: str) -> List[str]:
    """The verdict: ``headline`` and the first ten violations, or
    ``clean`` when every check passed."""
    if not observer.violation_count:
        return [clean]
    lines = [headline]
    for violation in observer.violations[:10]:
        stamp = (f"t={violation.time:.3f}" if violation.time is not None
                 else "t=?")
        lines.append(f"  [{violation.check}] {stamp} {violation.message}")
    return lines


def render_dashboard(monitor: ClusterMonitor, *, width: int = 16,
                     offenders: int = 5,
                     max_sites: Optional[int] = None) -> str:
    """The terminal dashboard: sparkline table + ranking + verdict.

    ``max_sites`` truncates the per-site sparkline table (worst offenders
    and the rollups below still cover the whole fleet) — pass it when
    rendering a 1000-site fleet to a terminal.  Multi-region monitors
    additionally get a per-region health table and, when sharded, a
    one-line shard-load summary.
    """
    lines = _sparkline_table(monitor, width, max_sites)
    site_width = _site_width(monitor)
    summary = monitor.health_summary()
    per_region = summary.get("per_region")
    if per_region:
        lines.append("")
        name_width = max([len(name) for name in per_region] + [6])
        lines.append(f"{'region'.ljust(name_width)}  sites  min score  "
                     f"mean score")
        for name, stats in per_region.items():
            lines.append(
                f"{name.ljust(name_width)}  {stats['sites']:>5}  "
                f"{stats['min_final_score']:>9.3f}  "
                f"{stats['mean_final_score']:>10.3f}")
    shard_stats = summary.get("shards")
    if shard_stats:
        load = shard_stats["load"]
        lines.append("")
        lines.append(
            f"shards: {shard_stats['groups']} groups over "
            f"{shard_stats['objects']} objects · per-site load "
            f"min={load['min']:.0f} mean={load['mean']:.1f} "
            f"max={load['max']:.0f}")
    lines.append("")
    lines.append(f"worst offenders (of {len(monitor.sites)} sites, "
                 f"lowest convergence first):")
    for rank, site in enumerate(monitor.worst_offenders(offenders), 1):
        score = monitor.latest(site, "convergence_score")
        backlog = monitor.latest(site, "delta_backlog")
        pressure = monitor.pressure(site)
        pressure_total = (pressure["retries"] + pressure["timeouts"]
                          + pressure["resumes"])
        lines.append(
            f"  {rank}. {site.ljust(site_width)} "
            f"score={score if score is not None else 'n/a':>6} "
            f"backlog={int(backlog) if backlog is not None else 0:>5} "
            f"pressure={pressure_total}")
    lines.append("")
    lines += _violation_lines(
        monitor, f"INVARIANT VIOLATIONS: {monitor.violation_count}",
        f"invariants: all checks passed ({monitor.samples} samples, "
        f"{summary['sessions_checked']} sessions checked)")
    return "\n".join(lines)


# -- HTML report -------------------------------------------------------------------


def _svg_series(series: List[Tuple[float, float]], *, width: int = 320,
                height: int = 60, color: str = "#2563eb",
                y_max: Optional[float] = None) -> str:
    """One time series as a self-contained inline SVG polyline."""
    if not series:
        return (f'<svg width="{width}" height="{height}" '
                f'class="series"></svg>')
    times = [time for time, _ in series]
    values = [value for _, value in series]
    t_low, t_high = min(times), max(times)
    t_span = (t_high - t_low) or 1.0
    v_high = y_max if y_max is not None else max(max(values), 1e-9)
    v_low = 0.0 if y_max is not None else min(min(values), 0.0)
    v_span = (v_high - v_low) or 1.0
    points = " ".join(
        f"{(time - t_low) / t_span * (width - 4) + 2:.1f},"
        f"{height - 2 - (value - v_low) / v_span * (height - 4):.1f}"
        for time, value in series)
    return (f'<svg width="{width}" height="{height}" class="series" '
            f'viewBox="0 0 {width} {height}">'
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/></svg>')


_HTML_STYLE = """
body { font-family: system-ui, sans-serif; margin: 2rem; color: #111; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; }
th, td { padding: 4px 10px; border-bottom: 1px solid #ddd;
         text-align: left; font-size: 0.85rem; }
th { background: #f3f4f6; }
.num { text-align: right; font-variant-numeric: tabular-nums; }
.ok { color: #15803d; font-weight: 600; }
.bad { color: #b91c1c; font-weight: 600; }
.series { background: #f9fafb; border: 1px solid #e5e7eb; }
.meta { color: #555; font-size: 0.8rem; }
"""


def _html_page(title: str, observers: Mapping[str, Observer],
               held: str,
               section: Callable[[Any, str], List[str]]) -> str:
    """The self-contained page: per labeled observer, its heading, its
    ``section(observer, verdict)`` body, and its violations list."""
    parts: List[str] = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{html.escape(title)}</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
    ]
    for label, observer in observers.items():
        count = observer.violation_count
        verdict = (f'<span class="ok">{held}</span>' if not count
                   else f'<span class="bad">{count} {observer.VIOLATED} '
                        f'violation(s)</span>')
        parts.append(f"<h2>{html.escape(label)}</h2>")
        parts += section(observer, verdict)
        if count:
            parts.append("<h3>violations</h3><ul>")
            for violation in observer.violations[:50]:
                parts.append(f"<li><code>{html.escape(violation.check)}"
                             f"</code> {html.escape(violation.message)}"
                             f"</li>")
            parts.append("</ul>")
    parts.append("</body></html>")
    return "\n".join(parts)


def render_html_report(monitors: Dict[str, ClusterMonitor], *,
                       title: str = "repro convergence observatory"
                       ) -> str:
    """A self-contained static HTML report over one monitor per label.

    ``monitors`` maps a label (typically the protocol name) to its run's
    monitor; each gets a convergence-score section (one SVG series per
    site, y pinned to [0, 1] so 1.0 reads as "touching the top"), a
    final-gauges table, and its invariant verdict.
    """
    return _html_page(title, monitors, "all invariants held",
                      _cluster_section)


def _cluster_section(monitor: ClusterMonitor, verdict: str) -> List[str]:
    summary = monitor.health_summary()
    parts = [
        f'<p class="meta">{summary["sites"]} sites · '
        f'{summary["samples"]} samples · '
        f'{summary["sessions_checked"]} sessions checked · '
        f'{verdict} · '
        f'min final score '
        f'{summary["min_final_score"]:.3f}</p>',
        "<table><tr><th>site</th>"
        "<th>convergence score</th>"
        "<th class=num>final</th>"
        "<th class=num>backlog</th>"
        "<th class=num>segments</th>"
        "<th class=num>conflict</th>"
        "<th class=num>pressure</th></tr>"]
    for site in monitor.sites:
        score_series = monitor.series(site, "convergence_score")
        score = monitor.latest(site, "convergence_score")
        backlog = monitor.latest(site, "delta_backlog") or 0
        segments = monitor.latest(site, "segment_count") or 0
        conflict = monitor.latest(site, "conflict_density") or 0.0
        pressure = monitor.pressure(site)
        pressure_total = (pressure["retries"] + pressure["timeouts"]
                          + pressure["resumes"])
        score_text = f"{score:.3f}" if score is not None else "n/a"
        score_class = ("ok" if score is not None and score >= 1.0
                       else "bad")
        parts.append(
            f"<tr><td>{html.escape(site)}</td>"
            f"<td>{_svg_series(score_series, y_max=1.0)}</td>"
            f'<td class="num {score_class}">{score_text}</td>'
            f'<td class="num">{int(backlog)}</td>'
            f'<td class="num">{int(segments)}</td>'
            f'<td class="num">{conflict:.3f}</td>'
            f'<td class="num">{pressure_total}</td></tr>')
    parts.append("</table>")
    return parts


def write_html_report(path: str, monitors: Dict[str, ClusterMonitor],
                      **kwargs: Any) -> None:
    """Render and write the report to ``path`` (UTF-8)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_html_report(monitors, **kwargs))


# -- consistency observatory views -------------------------------------------------


def render_consistency_dashboard(monitor: ConsistencyMonitor, *,
                                 width: int = 16, offenders: int = 5,
                                 max_sites: Optional[int] = None) -> str:
    """The store consistency dashboard: divergence sparklines per site,
    visibility percentiles, the per-key worst-offender panel, and the
    session-guarantee verdict."""
    lines = _sparkline_table(monitor, width, max_sites)
    summary = monitor.summary()
    w_k = summary["w_k_seconds"]
    w_all = summary["w_all_seconds"]
    lines.append("")
    lines.append(
        f"write visibility (k={summary['visibility_k']}, "
        f"{summary['writes_tracked']} writes, "
        f"{summary['writes_pending']} pending):")
    for label, quantiles in (("w_k", w_k), ("w_all", w_all)):
        lines.append(
            f"  {label:<6} p50={quantiles['p50'] * 1000:8.3f}ms  "
            f"p90={quantiles['p90'] * 1000:8.3f}ms  "
            f"p99={quantiles['p99'] * 1000:8.3f}ms  "
            f"p999={quantiles['p999'] * 1000:8.3f}ms")
    lines.append(
        f"replication lag: max "
        f"{summary['max_replication_lag_seconds'] * 1000:.3f}ms")
    per_region = summary.get("per_region")
    if per_region:
        lines.append("")
        name_width = max([len(name) for name in per_region] + [6])
        lines.append(f"{'region'.ljust(name_width)}  sites  "
                     f"max lag ms  mean lag ms")
        for name, stats in per_region.items():
            lines.append(
                f"{name.ljust(name_width)}  {stats['sites']:>5}  "
                f"{stats['max_replication_lag_seconds'] * 1000:>10.3f}  "
                f"{stats['mean_replication_lag_seconds'] * 1000:>11.3f}")
    lines.append("")
    lines.append("worst keys (violations, max siblings, spread):")
    for rank, entry in enumerate(monitor.worst_keys(offenders), 1):
        lines.append(
            f"  {rank}. {entry['key']:<12} "
            f"violations={entry['violations']:>4} "
            f"siblings={entry['max_siblings']:>3} "
            f"spread={entry['staleness_spread_seconds'] * 1000:.3f}ms")
    lines.append("")
    audit = summary["audit"]
    lines += _violation_lines(
        monitor,
        f"CONSISTENCY VIOLATIONS: {monitor.violation_count} "
        f"(ryw={audit['read_your_writes']} "
        f"monotonic={audit['monotonic_reads']} "
        f"resurrection={audit['resurrections']}) over "
        f"{audit['ops_audited']} audited ops, "
        f"{audit['clients_affected']} clients affected",
        f"session guarantees: all checks passed "
        f"({audit['ops_audited']} ops audited, {monitor.samples} samples)")
    return "\n".join(lines)


def render_consistency_html_report(
        monitors: Dict[str, ConsistencyMonitor], *,
        title: str = "repro store consistency observatory") -> str:
    """A self-contained static HTML report over one consistency monitor
    per label: replication-lag series per site, visibility percentiles,
    the per-key worst-offender panel, and the audit verdict."""
    return _html_page(title, monitors, "all session guarantees held",
                      _consistency_section)


def _consistency_section(monitor: ConsistencyMonitor,
                         verdict: str) -> List[str]:
    summary = monitor.summary()
    audit = summary["audit"]
    w_all = summary["w_all_seconds"]
    parts = [
        f'<p class="meta">{summary["sites"]} sites · '
        f'{summary["samples"]} samples · '
        f'{summary["writes_tracked"]} writes tracked · '
        f'w_all p99 {w_all["p99"] * 1000:.3f}ms / '
        f'p999 {w_all["p999"] * 1000:.3f}ms · '
        f'{audit["ops_audited"]} ops audited · '
        f'{verdict}</p>',
        "<table><tr><th>site</th>"
        "<th>replication lag</th>"
        "<th class=num>final lag s</th>"
        "<th class=num>ae lag s</th>"
        "<th class=num>siblings</th>"
        "<th class=num>frontier</th></tr>"]
    for site in monitor.sites:
        lag_series = monitor.series(site, "replication_lag")
        lag = monitor.latest(site, "replication_lag") or 0.0
        ae_lag = monitor.latest(site, "anti_entropy_lag") or 0.0
        siblings = monitor.latest(site, "sibling_population") or 0
        frontier = monitor.latest(site, "frontier_distance") or 0
        lag_class = "ok" if lag == 0.0 else "bad"
        parts.append(
            f"<tr><td>{html.escape(site)}</td>"
            f"<td>{_svg_series(lag_series, color='#b45309')}</td>"
            f'<td class="num {lag_class}">{lag:.6f}</td>'
            f'<td class="num">{ae_lag:.6f}</td>'
            f'<td class="num">{int(siblings)}</td>'
            f'<td class="num">{int(frontier)}</td></tr>')
    parts.append("</table>")
    parts.append("<h3>worst keys</h3>")
    parts.append("<table><tr><th>key</th>"
                 "<th class=num>violations</th>"
                 "<th class=num>max siblings</th>"
                 "<th class=num>staleness spread s</th></tr>")
    for entry in summary["worst_keys"]:
        parts.append(
            f"<tr><td>{html.escape(entry['key'])}</td>"
            f'<td class="num">{entry["violations"]}</td>'
            f'<td class="num">{entry["max_siblings"]}</td>'
            f'<td class="num">'
            f'{entry["staleness_spread_seconds"]:.6f}</td></tr>')
    parts.append("</table>")
    return parts


def write_consistency_html_report(path: str,
                                  monitors: Dict[str, ConsistencyMonitor],
                                  **kwargs: Any) -> None:
    """Render and write the consistency report to ``path`` (UTF-8)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_consistency_html_report(monitors, **kwargs))
