"""Observability: structured tracing and metrics for the whole stack.

The paper's claims are quantitative — SYNCB is O(|Δ|), SYNCC is
O(|Δ|+|Γ|), SYNCS is O(|Δ|+γ) — and :mod:`repro.net.stats` reports only
per-session aggregates.  This package adds the per-event window:

* :mod:`repro.obs.trace` — a :class:`~repro.obs.trace.Tracer` that records
  structured :class:`~repro.obs.trace.TraceEvent` rows (one span per sync
  session, one event per message and per semantic step: Δ-element,
  Γ-retransmit, γ-skip, conflict-bit, HALT/SKIP control traffic).  Every
  instrumented entry point takes ``tracer=None``; the ``None`` default is
  the zero-overhead off switch, so untraced runs price traffic exactly as
  before.
* :mod:`repro.obs.metrics` — a process-local
  :class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges, and
  histograms with ``snapshot()``/``merge()`` for multi-run aggregation.
* :mod:`repro.obs.export` — JSONL trace export and a human-readable
  timeline renderer (``python -m repro trace <demo>`` drives both).
* :mod:`repro.obs.observer` — the one observer core both live monitors
  subclass: per-site ring buffers, lazy cadence sampling, violation
  recording with strict raising, and the series read API.
* :mod:`repro.obs.monitor` — a :class:`~repro.obs.monitor.ClusterMonitor`
  of live per-site health gauges (frontier distance, Δ backlog,
  conflict density, segments, pressure, convergence score) plus inline
  invariant checkers that run *during* a cluster run.
* :mod:`repro.obs.consistency` — a
  :class:`~repro.obs.consistency.ConsistencyMonitor` of the replicated
  store's divergence gauges, write-visibility watermarks and the
  session-guarantee audit, with its schema-validated digest.
* :mod:`repro.obs.exporters` — Prometheus text format and an OTLP-style
  JSON spans/metrics dump (schema in :mod:`repro.obs.otlp_schema`).
* :mod:`repro.obs.dashboard` — the terminal sparkline dashboards and the
  self-contained HTML reports of either monitor (``python -m repro
  monitor``, ``python -m repro store --html``).
* :mod:`repro.obs.causal` — the causal event graph reconstructed from a
  trace: happens-before edges, the convergence critical path, and exact
  per-category latency attribution (``python -m repro analyze``).
* :mod:`repro.obs.waterfall` — terminal and self-contained-HTML
  waterfall renderings of a causal analysis.
"""

from repro import _lazy_surface

__getattr__, __dir__ = _lazy_surface(__name__, {
    "causal": ("Analysis", "CausalGraph", "analyze_events", "analyze_tracer",
               "validate_analysis"),
    "dashboard": ("render_dashboard", "render_html_report", "sparkline",
                  "write_html_report"),
    "export": ("events_from_jsonl", "events_to_jsonl", "render_timeline",
               "trace_stats", "write_jsonl"),
    "exporters": ("to_otlp", "to_prometheus"),
    "metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry",
                "observe_session"),
    "monitor": ("ClusterMonitor", "InvariantViolation", "MonitorConfig"),
    "otlp_schema": ("OTLP_SCHEMA", "validate_otlp"),
    "trace": ("SamplingPolicy", "Span", "TraceEvent", "Tracer"),
    "waterfall": ("render_waterfall", "render_waterfall_html",
                  "write_waterfall_html"),
})

__all__ = [
    "Analysis",
    "CausalGraph",
    "ClusterMonitor",
    "Counter",
    "Gauge",
    "Histogram",
    "InvariantViolation",
    "MetricsRegistry",
    "MonitorConfig",
    "OTLP_SCHEMA",
    "SamplingPolicy",
    "Span",
    "TraceEvent",
    "Tracer",
    "analyze_events",
    "analyze_tracer",
    "events_from_jsonl",
    "events_to_jsonl",
    "observe_session",
    "render_dashboard",
    "render_html_report",
    "render_timeline",
    "render_waterfall",
    "render_waterfall_html",
    "sparkline",
    "to_otlp",
    "to_prometheus",
    "trace_stats",
    "validate_analysis",
    "validate_otlp",
    "write_html_report",
    "write_jsonl",
    "write_waterfall_html",
]
