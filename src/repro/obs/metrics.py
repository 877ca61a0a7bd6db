"""Process-local metrics: counters, gauges, histograms, snapshot/merge.

Where :mod:`repro.obs.trace` answers "what happened, in order",
this module answers "how much, over many runs".  A
:class:`MetricsRegistry` holds named instruments; ``snapshot()`` flattens
them into plain dicts (embeddable in benchmark reports via
:func:`repro.analysis.report.format_metrics`), and ``merge()`` folds one
registry into another so sweeps can aggregate per-worker or per-seed
registries without hand-summing fields.

Histograms keep their raw observations: the experiment sizes here (one
observation per session or per gossip round) make exact percentiles
cheaper than bucket bookkeeping, and concatenation makes ``merge()``
lossless.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import ReproError
from repro.net.stats import TransferStats


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (≥ 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter increment {amount} < 0")
        self.value += amount


class Gauge:
    """A last-write-wins scalar (e.g. current convergence latency)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        self.value = value


class Histogram:
    """Exact distribution over raw observations."""

    __slots__ = ("observations",)

    def __init__(self) -> None:
        self.observations: List[float] = []

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.observations.append(value)

    @property
    def count(self) -> int:
        return len(self.observations)

    @property
    def total(self) -> float:
        return sum(self.observations)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """The nearest-rank ``p``-th percentile (0 ≤ p ≤ 100).

        Raises :class:`~repro.errors.ReproError` on an empty histogram
        (there is no observation to rank) or an out-of-range ``p`` — both
        are caller bugs that a silent 0.0 would hide in a report.
        """
        if not 0 <= p <= 100:
            raise ReproError(f"percentile p must be in [0, 100], got {p}")
        if not self.observations:
            raise ReproError("percentile of an empty histogram is undefined")
        ordered = sorted(self.observations)
        rank = max(0, math.ceil(p / 100 * len(ordered)) - 1)
        return ordered[rank]

    def summary(self) -> Dict[str, float]:
        """count/total/min/max/mean plus p50/p90/p95/p99/p999."""
        if not self.observations:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p90": 0.0, "p95": 0.0,
                    "p99": 0.0, "p999": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "min": min(self.observations),
            "max": max(self.observations),
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "p999": self.percentile(99.9),
        }


class MetricsRegistry:
    """Named instruments with get-or-create accessors.

    The accessors sit on per-op and per-session paths, so a hit is one
    dict lookup and an instrument is constructed only on a miss.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter named ``name``, created on first use."""
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name``, created on first use."""
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge()
        return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram named ``name``, created on first use."""
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram()
        return instrument

    def snapshot(self) -> Dict[str, Any]:
        """A plain-dict view safe to serialize or embed in a report."""
        return {
            "counters": {name: c.value
                         for name, c in sorted(self.counters.items())},
            "gauges": {name: g.value
                       for name, g in sorted(self.gauges.items())},
            "histograms": {name: h.summary()
                           for name, h in sorted(self.histograms.items())},
        }

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (counters add, gauges adopt
        the other's last value when set, histograms concatenate)."""
        for name, counter in other.counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other.gauges.items():
            if gauge.value is not None:
                self.gauge(name).set(gauge.value)
        for name, histogram in other.histograms.items():
            self.histogram(name).observations.extend(histogram.observations)


@contextmanager
def wall_timer(registry: Optional[MetricsRegistry],
               name: str) -> Iterator[None]:
    """Record the block's wall-clock duration into histogram ``name``.

    Simulated clocks measure what the *modeled* system would take; this
    measures what the measurement itself costs — the number benchmark
    regressions watch.  A ``None`` registry makes the timer a no-op so
    call sites need no conditionals.
    """
    if registry is None:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        registry.histogram(name).observe(time.perf_counter() - start)


def observe_session(registry: MetricsRegistry, stats: TransferStats, *,
                    protocol: str = "session",
                    completion_time: Optional[float] = None) -> None:
    """Fold one session's transfer stats into ``registry``.

    Populates the standard instruments: a bits-per-session histogram, a
    session counter, per-direction messages-by-type counters, and (when
    the timed driver supplies one) a completion-time histogram in
    simulated seconds.
    """
    registry.counter(f"{protocol}.sessions").inc()
    registry.histogram(f"{protocol}.bits_per_session").observe(
        stats.total_bits)
    if stats.retries or stats.timeouts or stats.resumes:
        # Reliability instruments appear only when the ARQ transport
        # actually acted, keeping fault-free snapshots byte-identical.
        registry.counter(f"{protocol}.retries").inc(stats.retries)
        registry.counter(f"{protocol}.timeouts").inc(stats.timeouts)
        registry.counter(f"{protocol}.resumes").inc(stats.resumes)
        registry.counter(f"{protocol}.retransmitted_bits").inc(
            stats.total_retransmitted_bits)
    for direction_name, direction in (("forward", stats.forward),
                                      ("backward", stats.backward)):
        for type_name, count in direction.by_type.items():
            registry.counter(
                f"{protocol}.messages.{direction_name}.{type_name}"
            ).inc(count)
    if completion_time is not None:
        registry.histogram(f"{protocol}.completion_seconds").observe(
            completion_time)
