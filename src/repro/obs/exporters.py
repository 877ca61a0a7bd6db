"""Standard-format exporters: Prometheus text and OTLP-style JSON.

The in-tree instruments (:mod:`repro.obs.metrics`,
:mod:`repro.obs.trace`, :mod:`repro.obs.monitor`) are deliberately
dependency-free Python objects; real fleets speak Prometheus and
OpenTelemetry.  This module renders the former into the latter without
importing either client library:

* :func:`to_prometheus` — the text exposition format (``# HELP`` /
  ``# TYPE`` comments, ``_total`` counters, summary quantiles), one
  sample line per instrument, observer gauges labeled by site.
* :func:`to_otlp` — a JSON document shaped like an OTLP export request:
  ``resourceSpans`` rebuilt from the tracer's ``span_start``/``span_end``
  pairs (reliability and invariant events nested as span events) and
  ``resourceMetrics`` covering the registry plus each observer's full
  time-series rings (one gauge data point per sample, attributed by
  site).  Valid against :data:`repro.obs.otlp_schema.OTLP_SCHEMA`.

Both are pure functions of already-collected state: exporting twice, or
never, changes no measurement.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs import trace as obs
from repro.obs.consistency import ConsistencyMonitor
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import ClusterMonitor
from repro.obs.observer import Observer
from repro.obs.trace import Tracer

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_RE = re.compile(r"[^a-zA-Z0-9_]")

#: Quantiles a histogram summary exports, in label order.
_SUMMARY_QUANTILES = ("p50", "p90", "p95", "p99", "p999")

#: Trace kinds worth re-publishing as OTLP span events (the reliability
#: and correctness signals; routine wire chatter stays out of the export).
_SPAN_EVENT_KINDS = frozenset({
    obs.FAULT, obs.RETRY, obs.TIMEOUT, obs.SESSION_ABORT,
    obs.INVARIANT_VIOLATION, obs.CONSISTENCY_VIOLATION,
})


def _quantile_label(quantile: str) -> str:
    # "p50" -> "0.50"-style labels: insert the decimal point after the
    # leading digit fraction ("p999" -> "0.999").
    return f"0.{quantile[1:]}"


def _prom_name(name: str, prefix: str) -> str:
    return f"{prefix}_{_NAME_RE.sub('_', name)}"


def _prom_value(value: float) -> str:
    # Integral floats print as integers — 3, not 3.0 — matching what
    # client_golang and client_python emit for counters.
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


#: One exposition family: (name, type, help text, sample lines).
Family = Tuple[str, str, str, List[str]]

#: An observer namespace -> the help text of its gauge families.
_GAUGE_HELP = {"monitor": "cluster health gauge",
               "consistency": "store consistency gauge"}


def to_prometheus(metrics: Optional[MetricsRegistry] = None,
                  monitor: Optional[ClusterMonitor] = None, *,
                  consistency: Optional[ConsistencyMonitor] = None,
                  prefix: str = "repro") -> str:
    """Render instruments in the Prometheus text exposition format.

    Counters become ``<prefix>_<name>_total`` counter samples, gauges
    become gauges, histograms become summaries (p50/p90/p95/p99/p999
    quantile labels plus ``_sum``/``_count``).  A monitor contributes one
    gauge family per health series, labeled ``{site="..."}`` with each
    site's latest sample, plus violation and pressure counters.  A
    consistency monitor contributes its divergence gauge families the
    same way, the w_k/w_all visibility summaries, and the
    session-guarantee violation counters.  Each family is written once:
    an observer's own family wins over a same-named registry counter.
    """
    observed: List[Family] = []
    if monitor is not None:
        observed += _monitor_families(monitor, prefix)
    if consistency is not None:
        observed += _consistency_families(consistency, prefix)
    owned = {name for name, _, _, _ in observed}
    families = [family for family in _registry_families(metrics, prefix)
                if family[0] not in owned] + observed
    lines: List[str] = []
    for name, kind, help_text, samples in families:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        lines += samples
    return "\n".join(lines) + "\n" if lines else ""


def _summary_samples(prom: str, summary: Dict[str, float]) -> List[str]:
    samples = [f'{prom}{{quantile="{_quantile_label(quantile)}"}} '
               f'{_prom_value(float(summary[quantile]))}'
               for quantile in _SUMMARY_QUANTILES]
    samples.append(f"{prom}_sum {_prom_value(float(summary['total']))}")
    samples.append(f"{prom}_count {int(summary['count'])}")
    return samples


def _registry_families(metrics: Optional[MetricsRegistry],
                       prefix: str) -> Iterator[Family]:
    if metrics is None:
        return
    snapshot = metrics.snapshot()
    for name, value in snapshot["counters"].items():
        prom = _prom_name(name, prefix) + "_total"
        yield (prom, "counter", f"repro counter {name}",
               [f"{prom} {_prom_value(float(value))}"])
    for name, value in snapshot["gauges"].items():
        if value is None:
            continue
        prom = _prom_name(name, prefix)
        yield (prom, "gauge", f"repro gauge {name}",
               [f"{prom} {_prom_value(float(value))}"])
    for name, summary in snapshot["histograms"].items():
        prom = _prom_name(name, prefix)
        yield (prom, "summary", f"repro histogram {name}",
               _summary_samples(prom, summary))


def _gauge_families(observer: Observer, prefix: str) -> Iterator[Family]:
    """One gauge family per observer gauge: each site's latest sample."""
    help_text = _GAUGE_HELP[observer.NAMESPACE]
    for gauge_name in observer.GAUGES:
        prom = f"{prefix}_{observer.NAMESPACE}_{gauge_name}"
        samples = []
        for site in observer.sites:
            value = observer.latest(site, gauge_name)
            if value is None:
                continue
            label = _LABEL_RE.sub("_", site)
            samples.append(f'{prom}{{site="{label}"}} {_prom_value(value)}')
        yield (prom, "gauge", f"{help_text} {gauge_name}", samples)


def _monitor_families(monitor: ClusterMonitor,
                      prefix: str) -> Iterator[Family]:
    yield from _gauge_families(monitor, prefix)
    prom = f"{prefix}_monitor_invariant_violations_total"
    yield (prom, "counter", "inline invariant checker failures",
           [f"{prom} {monitor.violation_count}"])
    prom = f"{prefix}_monitor_samples_total"
    yield (prom, "counter", "health samples taken",
           [f"{prom} {monitor.samples}"])
    prom = f"{prefix}_monitor_pressure_events_total"
    yield (prom, "counter",
           "ARQ reliability events (retries, timeouts, aborts, resumes)",
           [f'{prom}{{site="{_LABEL_RE.sub("_", site)}",'
            f'kind="{event_kind}"}} {count}'
            for site in monitor.sites
            for event_kind, count in sorted(monitor.pressure(site).items())])


def _consistency_families(consistency: ConsistencyMonitor,
                          prefix: str) -> Iterator[Family]:
    yield from _gauge_families(consistency, prefix)
    for hist_name, histogram, help_text in (
            ("visibility_wk_seconds", consistency.w_k,
             "write visibility latency at k replicas"),
            ("visibility_wall_seconds", consistency.w_all,
             "write visibility latency at all sites")):
        prom = f"{prefix}_consistency_{hist_name}"
        yield (prom, "summary", help_text,
               _summary_samples(prom, histogram.summary()))
    prom = f"{prefix}_consistency_violations_total"
    yield (prom, "counter", "session-guarantee audit violations",
           [f"{prom} {consistency.violation_count}"]
           + [f'{prom}{{check="{check}"}} {count}'
              for check, count in sorted(
                  consistency.audit_counts().items())])
    prom = f"{prefix}_consistency_samples_total"
    yield (prom, "counter", "consistency samples taken",
           [f"{prom} {consistency.samples}"])


# -- OTLP-style JSON ---------------------------------------------------------------


def _nanos(time: Optional[float]) -> int:
    return int(round(time * 1e9)) if time is not None else 0


def _attr_value(value: Any) -> Dict[str, Any]:
    if isinstance(value, bool):
        return {"boolValue": value}
    if isinstance(value, int):
        return {"intValue": str(value)}
    if isinstance(value, float):
        return {"doubleValue": value}
    return {"stringValue": str(value)}


def _attrs(mapping: Dict[str, Any]) -> List[Dict[str, Any]]:
    return [{"key": key, "value": _attr_value(value)}
            for key, value in mapping.items() if value is not None]


def _build_spans(tracer: Tracer) -> List[Dict[str, Any]]:
    spans: Dict[int, Dict[str, Any]] = {}
    for event in tracer.events:
        if event.kind == obs.SPAN_START:
            attrs = {key: value for key, value in event.fields.items()
                     if key != "name"}
            spans[event.span_id] = {
                "traceId": f"{1:032x}",
                "spanId": f"{event.span_id + 1:016x}",
                "name": str(event.fields.get("name", f"span-{event.span_id}")),
                "kind": 1,  # SPAN_KIND_INTERNAL
                "startTimeUnixNano": str(_nanos(event.time)),
                "endTimeUnixNano": str(_nanos(event.time)),
                "attributes": _attrs(attrs),
                "events": [],
            }
        elif event.kind == obs.SPAN_END:
            span = spans.get(event.span_id)
            if span is not None:
                span["endTimeUnixNano"] = str(_nanos(event.time))
        elif event.kind in _SPAN_EVENT_KINDS and event.span_id in spans:
            attrs = dict(event.fields)
            if event.party is not None:
                attrs["party"] = event.party
            spans[event.span_id]["events"].append({
                "name": event.kind,
                "timeUnixNano": str(_nanos(event.time)),
                "attributes": _attrs(attrs),
            })
    return [spans[span_id] for span_id in sorted(spans)]


def _summary_entry(name: str, summary: Dict[str, float]) -> Dict[str, Any]:
    """A summary metric with one data point."""
    return {"name": name, "summary": {"dataPoints": [{
        "count": str(int(summary["count"])),
        "sum": float(summary["total"]),
        "timeUnixNano": "0",
        "quantileValues": [
            {"quantile": 0.5, "value": float(summary["p50"])},
            {"quantile": 0.9, "value": float(summary["p90"])},
            {"quantile": 0.95, "value": float(summary["p95"])},
            {"quantile": 0.99, "value": float(summary["p99"])},
            {"quantile": 0.999, "value": float(summary["p999"])},
        ],
    }]}}


def _sum_entry(name: str, value: int) -> Dict[str, Any]:
    """A cumulative monotonic counter with one data point."""
    return {
        "name": name,
        "sum": {
            "aggregationTemporality": 2,  # CUMULATIVE
            "isMonotonic": True,
            "dataPoints": [{"asInt": str(value), "timeUnixNano": "0"}],
        },
    }


def _gauge_entries(observer: Observer,
                   prefix: str) -> Iterator[Dict[str, Any]]:
    """One gauge metric per observer gauge: every ring sample of every
    site, attributed by site."""
    for gauge_name in observer.GAUGES:
        points: List[Dict[str, Any]] = []
        for site in observer.sites:
            site_attrs = _attrs({"site": site})
            for time, value in observer.series(site, gauge_name):
                points.append({
                    "asDouble": float(value),
                    "timeUnixNano": str(_nanos(time)),
                    "attributes": site_attrs,
                })
        yield {
            "name": f"{prefix}.{observer.NAMESPACE}.{gauge_name}",
            "gauge": {"dataPoints": points},
        }


def _metric_entries(metrics: Optional[MetricsRegistry],
                    monitor: Optional[ClusterMonitor],
                    consistency: Optional[ConsistencyMonitor],
                    prefix: str) -> List[Dict[str, Any]]:
    entries: List[Dict[str, Any]] = []
    if metrics is not None:
        snapshot = metrics.snapshot()
        for name, value in snapshot["counters"].items():
            entries.append(_sum_entry(f"{prefix}.{name}", value))
        for name, value in snapshot["gauges"].items():
            if value is None:
                continue
            entries.append({
                "name": f"{prefix}.{name}",
                "gauge": {"dataPoints": [{"asDouble": float(value),
                                          "timeUnixNano": "0"}]},
            })
        for name, summary in snapshot["histograms"].items():
            entries.append(_summary_entry(f"{prefix}.{name}", summary))
    if monitor is not None:
        entries += _gauge_entries(monitor, prefix)
        entries.append(_sum_entry(f"{prefix}.monitor.invariant_violations",
                                  monitor.violation_count))
    if consistency is not None:
        entries += _gauge_entries(consistency, prefix)
        for hist_name, histogram in (
                ("visibility_wk_seconds", consistency.w_k),
                ("visibility_wall_seconds", consistency.w_all)):
            entries.append(_summary_entry(
                f"{prefix}.consistency.{hist_name}", histogram.summary()))
        entries.append(_sum_entry(f"{prefix}.consistency.violations",
                                  consistency.violation_count))
    return entries


def to_otlp(tracer: Optional[Tracer] = None,
            metrics: Optional[MetricsRegistry] = None,
            monitor: Optional[ClusterMonitor] = None, *,
            consistency: Optional[ConsistencyMonitor] = None,
            service_name: str = "repro",
            prefix: str = "repro") -> Dict[str, Any]:
    """An OTLP-style JSON document over collected spans and metrics.

    Simulated-clock stamps become ``timeUnixNano`` relative to epoch 0 —
    the simulation's own origin, deliberately not wall time, so two runs
    of the same schedule export identical documents.  Validate with
    :func:`repro.obs.otlp_schema.validate_otlp`.
    """
    resource = {"attributes": _attrs({"service.name": service_name})}
    scope = {"name": "repro.obs", "version": "1"}
    return {
        "resourceSpans": [{
            "resource": resource,
            "scopeSpans": [{
                "scope": scope,
                "spans": _build_spans(tracer) if tracer is not None else [],
            }],
        }],
        "resourceMetrics": [{
            "resource": resource,
            "scopeMetrics": [{
                "scope": scope,
                "metrics": _metric_entries(metrics, monitor, consistency,
                                           prefix),
            }],
        }],
    }
