"""The one observer core under both live monitors.

:class:`~repro.obs.monitor.ClusterMonitor` and
:class:`~repro.obs.consistency.ConsistencyMonitor` are two gauge sets over
:class:`Observer`: it owns the per-(site, gauge) rings, the one-shot
attach/finalize, lazy sampling on a simulated-time cadence (it never
schedules simulator events, so it cannot perturb a run's drain order) and
violation recording with strict raising.  A subclass names its gauges
and implements one walk that hands each site's values to ``_record``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (Any, Callable, Deque, Dict, List, Optional, Sequence,
                    Tuple)

from repro.errors import InvariantViolationError, ValidationError
from repro.net.simulator import to_seconds
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceEvent, Tracer


@dataclass(frozen=True)
class ObserverConfig:
    """The knobs every observer shares.

    Attributes:
        cadence: simulated seconds between samples (> 0).
        ring_capacity: samples kept per (site, gauge) series (an int
            >= 1); older samples fall off the ring.
        strict: fail fast — raise
            :class:`~repro.errors.InvariantViolationError` on the first
            violation instead of counting it.
    """

    cadence: float = 0.25
    ring_capacity: int = 1024
    strict: bool = False

    def __post_init__(self) -> None:
        if not self.cadence > 0:
            raise ValidationError(f"cadence must be > 0, "
                                  f"got {self.cadence}")
        if type(self.ring_capacity) is not int or self.ring_capacity < 1:
            raise ValidationError(f"ring_capacity must be an int >= 1, "
                                  f"got {self.ring_capacity!r}")

    def _at_least(self, name: str, low: int) -> None:
        value = getattr(self, name)
        if value < low:
            raise ValidationError(f"{name} must be >= {low}, got {value}")


class RingBuffer:
    """A fixed-capacity append-only series; oldest entries fall off."""

    __slots__ = ("capacity", "_items", "dropped")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._items: Deque[Tuple[float, float]] = deque(maxlen=capacity)
        self.dropped = 0

    def append(self, time: float, value: float) -> None:
        """Push one ``(time, value)`` sample, evicting the oldest if full."""
        if len(self._items) == self.capacity:
            self.dropped += 1
        self._items.append((time, value))

    def items(self) -> List[Tuple[float, float]]:
        """``(time, value)`` pairs, oldest first."""
        return list(self._items)

    def values(self) -> List[float]:
        """The sample values alone, oldest first."""
        return [value for _, value in self._items]

    def latest(self) -> Optional[float]:
        """The most recent sample value (None when empty)."""
        return self._items[-1][1] if self._items else None

    def __len__(self) -> int:
        return len(self._items)


@dataclass
class InvariantViolation:
    """Structured evidence of one failed inline check."""

    check: str
    message: str
    time: Optional[float] = None
    fields: Dict[str, Any] = field(default_factory=dict)


class Observer:
    """Per-site gauges on a cadence and inline checks over one run.

    The run calls :meth:`attach` when it starts, the subclass's hooks
    while it executes and :meth:`finalize` when its simulator drains.
    """

    #: The per-site gauges every sample records, in report order.
    GAUGES: Tuple[str, ...] = ()
    #: The prefix of this observer's metric names and export families.
    NAMESPACE = ""
    #: The trace kind a violation emits.
    VIOLATION_KIND = ""
    #: The metric name (under :attr:`NAMESPACE`) counting violations.
    VIOLATIONS = "violations"
    #: How a strict failure names the violated property.
    VIOLATED = ""

    def __init__(self, config: ObserverConfig, *,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.config = config
        self.metrics = metrics
        #: The observer's private tracer; a run constructed without a
        #: tracer adopts it so there are events to observe.
        self.tracer = Tracer()
        self.violations: List[InvariantViolation] = []
        self.samples = 0
        self.sites: List[str] = []
        self._owner: Any = None
        self._series: Dict[str, Dict[str, RingBuffer]] = {}
        self._next_sample: Optional[float] = None
        self._subscribed: Optional[Tracer] = None
        self._finalized = False

    # -- lifecycle ---------------------------------------------------------------

    def attach(self, owner: Any) -> None:
        """Bind to the run starting up: build every site's series,
        subscribe to the run's tracer, and take the t=0 sample."""
        if self._owner is not None:
            raise InvariantViolationError(
                f"{type(self).__name__} instances are one-shot; attach a "
                f"fresh one per run")
        self._owner = owner
        self.sites = list(owner.sites)
        capacity = self.config.ring_capacity
        for site in self.sites:
            self._series[site] = {name: RingBuffer(capacity)
                                  for name in self.GAUGES}
        self._bind()
        tracer = owner.tracer
        if tracer is not None:
            tracer.subscribe(self._on_trace_event)
            self._subscribed = tracer
        self._next_sample = self.config.cadence
        self._sample(0.0)

    def finalize(self) -> None:
        """Take the final sample, run the final checks, unsubscribe."""
        if self._owner is None or self._finalized:
            return
        self._finalized = True
        now = self._now()
        self._sample(now)
        self._final_checks(now)
        if self._subscribed is not None:
            self._subscribed.unsubscribe(self._on_trace_event)
            self._subscribed = None

    # -- subclass hooks ----------------------------------------------------------

    def _bind(self) -> None:
        """Set up per-site state once :attr:`sites` is known."""

    def _walk(self, now: float) -> None:
        """Compute every site's gauges and :meth:`_record` them."""
        raise NotImplementedError

    def _final_checks(self, now: float) -> None:
        """Run-level checks once the last sample is taken."""

    def _now(self) -> float:
        sim = getattr(self._owner, "sim", None)
        return to_seconds(sim.now) if sim is not None else 0.0

    # -- sampling ----------------------------------------------------------------

    def _on_trace_event(self, event: TraceEvent) -> None:
        if event.time is not None and event.kind != self.VIOLATION_KIND:
            self._maybe_sample(event.time)

    def _maybe_sample(self, now: float) -> None:
        if self._next_sample is None or now < self._next_sample:
            return
        self._sample(now)
        cadence = self.config.cadence
        # Skip boundaries the clock already jumped over: the next sample
        # is due one cadence past *now*, not past the missed boundary.
        periods = int((now - self._next_sample) / cadence) + 1
        self._next_sample += periods * cadence

    def _sample(self, now: float) -> None:
        self._walk(now)
        self.samples += 1
        if self.metrics is not None:
            self.metrics.counter(f"{self.NAMESPACE}.samples").inc()

    def _record(self, site: str, now: float,
                values: Sequence[float]) -> None:
        """Append one site's sample (in :attr:`GAUGES` order) to its
        rings and mirror each value into ``metrics``."""
        series = self._series[site]
        for name, value in zip(self.GAUGES, values):
            series[name].append(now, value)
        if self.metrics is not None:
            for name, value in zip(self.GAUGES, values):
                self.metrics.gauge(
                    f"{self.NAMESPACE}.{site}.{name}").set(value)

    # -- violations --------------------------------------------------------------

    def _violate(self, check: str, now: float, message: str,
                 **fields: Any) -> None:
        self.violations.append(InvariantViolation(
            check=check, message=message, time=now, fields=dict(fields)))
        tracer = self._owner.tracer if self._owner is not None else None
        if tracer is None:
            tracer = self.tracer
        tracer.event(self.VIOLATION_KIND, time=now, check=check,
                     message=message, **fields)
        if self.metrics is not None:
            counter = f"{self.NAMESPACE}.{self.VIOLATIONS}"
            self.metrics.counter(counter).inc()
            self.metrics.counter(f"{counter}.{check}").inc()
        if self.config.strict:
            raise InvariantViolationError(
                f"{self.VIOLATED} {check!r} violated at t={now:.6f}: "
                f"{message}")

    # -- read API ----------------------------------------------------------------

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    def series(self, site: str, name: str) -> List[Tuple[float, float]]:
        """One site's ``(time, value)`` series for gauge ``name``."""
        return self._series[site][name].items()

    def latest(self, site: str, name: str) -> Optional[float]:
        """The most recent sample of one site's gauge (None before any)."""
        return self._series[site][name].latest()

    @staticmethod
    def _per_region(topology: Any, values: Dict[str, Optional[float]],
                    rollup: Callable[[List[float]], Dict[str, Any]]
                    ) -> Dict[str, Any]:
        """One ``rollup`` of the per-site ``values`` for each region of
        ``topology`` (sites without a value are left out)."""
        return {
            region.name: {
                "sites": region.sites,
                **rollup([values[site]
                          for site in topology.region_sites(region.name)
                          if values.get(site) is not None]),
            }
            for region in topology.regions}
