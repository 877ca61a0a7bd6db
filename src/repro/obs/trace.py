"""Structured tracing for drivers, protocols, and the simulator.

A :class:`Tracer` records a flat, ordered list of :class:`TraceEvent` rows.
Spans group events: each synchronization session opens one span (the
drivers do it), and every message or semantic step inside becomes a child
event carrying the span's id.  Events are cheap plain dataclasses; the
semantic vocabulary (module constants below) mirrors the paper's
quantities so traces can be checked against Table 2 claims event by event:

* ``MESSAGE`` — one ``Send`` crossing the (simulated) wire, priced in bits
  exactly as :class:`~repro.net.stats.DirectionStats` prices it; summing
  ``bits`` over a session span reproduces ``TransferStats.total_bits``.
* ``DELTA_ELEMENT`` — the receiver wrote one element it lacked (|Δ|).
* ``GAMMA_RETRANSMIT`` — the receiver examined a known element (|Γ| for
  CRV; the pre-skip known elements for SRV).
* ``GAMMA_SKIP`` — the sender honored a SKIP (the measured γ).
* ``CONFLICT_BIT`` — a written element had its conflict bit set.
* ``CONTROL`` — HALT/SKIP/skip-to/abort control-flow steps, with the
  concrete signal in ``fields["signal"]``.

The off switch is ``tracer=None`` (the default of every instrumented entry
point): instrumentation sites guard with ``if tracer is not None``, so an
untraced run executes exactly the pre-observability code path and its
measured bit counts are byte-for-byte identical.

Sampling
--------

Full traces are untenable at fleet scale (a 1000-site chaos run emits
millions of wire events), so a tracer may carry a
:class:`SamplingPolicy`: high-volume *droppable* kinds (messages,
delivers, Δ/Γ steps, faults, retries, timeouts, kernel dispatches) are
retained per session key — the first ``head`` outright, a seeded
pseudo-random ``rate`` fraction of the middle, and a ``tail`` ring
flushed when the session ends.  Lifecycle and incident kinds (spans,
session request/start/end/abort/resume, updates, invariant violations)
are **always** kept, and every event — retained or not — is still
delivered to live subscribers, so a
:class:`~repro.obs.monitor.ClusterMonitor` sees the unsampled stream.
Each flushed session emits one synthetic ``sampling`` event recording
``seen``/``kept``, which the causal analyzer turns into coverage
fractions.  ``sampling=None`` (the default) leaves every code path
exactly as it was.
"""

from __future__ import annotations

import bisect
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

# -- event kinds ------------------------------------------------------------------

SPAN_START = "span_start"
SPAN_END = "span_end"
#: A message crossing the wire (driver-emitted, priced in bits).
MESSAGE = "message"
#: A delayed message reaching its destination (randomized/timed drivers).
#: ``fields["sent_seq"]`` links back to the ``MESSAGE`` event of the copy
#: that arrived (the happens-before edge the causal analyzer walks).
DELIVER = "deliver"
#: Receiver wrote an element it lacked — one unit of the paper's |Δ|.
DELTA_ELEMENT = "delta_element"
#: Receiver examined an element it already knew — one unit of |Γ|.
GAMMA_RETRANSMIT = "gamma_retransmit"
#: Sender honored a SKIP and fast-forwarded a segment — one unit of γ.
GAMMA_SKIP = "gamma_skip"
#: A written element ended up conflict-tagged (inherited or reconcile-set).
CONFLICT_BIT = "conflict_bit"
#: Control-flow step (HALT/SKIP/skip-to/abort); ``fields["signal"]`` names it.
CONTROL = "control"
#: One discrete-event dispatch of the simulator kernel.
SIM_DISPATCH = "sim_dispatch"
#: The fault injector acted on a transmission; ``fields["fault"]`` is
#: ``"drop"``, ``"duplicate"``, or ``"reorder"``.
FAULT = "fault"
#: The ARQ transport retransmitted a message (``fields["attempt"]``).
RETRY = "retry"
#: A per-message retransmission timer expired before its ack arrived.
TIMEOUT = "timeout"
#: A session attempt aborted (retry budget exhausted) and will resume
#: from the receiver's pre-session snapshot — or fail, per
#: ``fields["resuming"]``.
SESSION_ABORT = "session_abort"
#: An inline invariant checker caught the system lying to itself;
#: ``fields["check"]`` names the invariant and the remaining fields carry
#: the structured evidence (see :mod:`repro.obs.monitor`).
INVARIANT_VIOLATION = "invariant_violation"
#: A cluster scheduler received a synchronization request (the session
#: itself may start later if an endpoint is busy — the queueing edge).
SESSION_REQUEST = "session_request"
#: A cluster session's coroutines were launched (``fields["session"]``).
SESSION_START = "session_start"
#: A cluster session committed and released its endpoints: both
#: coroutines of its final attempt returned (``fields["session"]``).
SESSION_COMMIT = "session_commit"
#: A cluster session's final attempt completed (``fields["session"]``):
#: its parties finished draining, so ``fields["bits"]`` is final.
SESSION_END = "session_end"
#: A local update landed on ``party`` (cluster runs).
UPDATE = "update"
#: The pulling site's §2.2 post-reconciliation self-increment — new
#: knowledge originating at ``party`` that later sessions must propagate.
RECONCILE = "reconcile"
#: Synthetic retention accounting emitted by a sampling tracer:
#: ``fields["seen"]``/``fields["kept"]`` per session key.
SAMPLING = "sampling"
#: A store client operation executed at its coordinating site;
#: ``fields["op"]`` is ``"put"``, ``"get"``, or ``"delete"``.
STORE_OP = "store_op"
#: A divergent read scheduled a per-key repair session (store runs).
READ_REPAIR = "read_repair"
#: A store site opened an anti-entropy pull by sending its knowledge
#: vector to ``fields["peer"]`` (``fields["entries"]`` origins, for
#: session ``fields["session"]``).
KNOWLEDGE_ADVERT = "knowledge_advert"
#: The consistency observatory caught a session-guarantee breach;
#: ``fields["check"]`` names the guarantee (``read_your_writes``,
#: ``monotonic_reads``, ``resurrection``, ``visibility_watermark``) and
#: the remaining fields carry the evidence (see
#: :mod:`repro.obs.consistency`).
CONSISTENCY_VIOLATION = "consistency_violation"

#: High-volume kinds a :class:`SamplingPolicy` may decline to retain.
#: Everything else — lifecycle, incidents, accounting — is always kept.
DROPPABLE_KINDS = frozenset({
    MESSAGE, DELIVER, DELTA_ELEMENT, GAMMA_RETRANSMIT, GAMMA_SKIP,
    CONFLICT_BIT, SIM_DISPATCH, FAULT, RETRY, TIMEOUT, STORE_OP,
})


@dataclass(frozen=True)
class SamplingPolicy:
    """Deterministic retention policy for droppable event kinds.

    Retention is decided per *session key* (``fields["session"]`` when
    present, one shared pool otherwise): the first ``head`` droppable
    events of a session are kept outright, later ones are kept with
    pseudo-probability ``rate`` (a seeded CRC32 hash of (seed, key,
    index) — deterministic across processes, unlike Python's randomized
    ``hash``), and the last ``tail`` withheld events are recovered from a
    ring when the session ends.  Violations and lifecycle events are
    never dropped (see :data:`DROPPABLE_KINDS`).
    """

    head: int = 32
    tail: int = 8
    rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.head < 0:
            raise ValueError(f"head must be >= 0, got {self.head}")
        if self.tail < 0:
            raise ValueError(f"tail must be >= 0, got {self.tail}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")

    def keeps(self, key: Any, index: int) -> bool:
        """Deterministic middle-of-session keep decision."""
        if self.rate >= 1.0:
            return True
        if self.rate <= 0.0:
            return False
        digest = zlib.crc32(f"{self.seed}:{key}:{index}".encode("utf-8"))
        return digest < self.rate * 4_294_967_296.0


class _SessionSampler:
    """Per-session-key retention state of a sampling tracer."""

    __slots__ = ("seen", "kept", "ring")

    def __init__(self, tail: int) -> None:
        self.seen = 0
        self.kept = 0
        self.ring: Deque["TraceEvent"] = deque(maxlen=tail)


@dataclass
class TraceEvent:
    """One structured trace record.

    Attributes:
        seq: tracer-wide monotonic sequence number (interleaving order).
        kind: event vocabulary entry (module constants, or free-form for
            layer-specific events like ``"gossip"``).
        span_id: enclosing span, or ``None`` for top-level events.
        time: simulated-clock stamp when a clock exists (timed driver,
            anti-entropy), else ``None`` — the instant driver has no clock.
        party: which side acted (``"sender"``/``"receiver"``, a site name…).
        message: message type name for wire-level events.
        bits: wire price for ``MESSAGE`` events, 0 otherwise.
        fields: free-form structured attributes (site, value, signal…).
    """

    seq: int
    kind: str
    span_id: Optional[int] = None
    time: Optional[float] = None
    party: Optional[str] = None
    message: Optional[str] = None
    bits: int = 0
    fields: Dict[str, Any] = field(default_factory=dict)


class Span:
    """A named group of events (one per sync session); context manager."""

    __slots__ = ("tracer", "span_id", "name")

    def __init__(self, tracer: "Tracer", span_id: int, name: str) -> None:
        self.tracer = tracer
        self.span_id = span_id
        self.name = name

    def event(self, kind: str, **kwargs: Any) -> TraceEvent:
        """Emit an event explicitly bound to this span."""
        return self.tracer.event(kind, span_id=self.span_id, **kwargs)

    def end(self, *, time: Optional[float] = None) -> None:
        """Close the span, emitting its ``span_end`` event."""
        self.tracer._end_span(self, time=time)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.end()


class Tracer:
    """Records structured events; attach one to any instrumented entry point.

    A single tracer may span many sessions (e.g. a whole anti-entropy run):
    its ``seq`` counter totally orders everything it saw.  The optional
    ``clock`` callable (bound for a run by
    :meth:`~repro.net.simulator.Simulator.stamping`) stamps events that
    do not pass an explicit ``time=``.

    ``sampling`` bounds retention of high-volume kinds (see
    :class:`SamplingPolicy`); ``strict_subscribers`` re-raises subscriber
    exceptions instead of merely counting them in ``subscriber_errors``
    (wired to ``--strict-invariants`` by the monitor CLI); ``metrics``
    optionally mirrors that count into a
    ``tracer.subscriber_errors`` counter.
    """

    def __init__(self, *, sampling: Optional[SamplingPolicy] = None,
                 strict_subscribers: bool = False,
                 metrics: Optional[Any] = None) -> None:
        self.events: List[TraceEvent] = []
        self._seq = 0
        self._next_span = 0
        self._stack: List[int] = []
        self.clock = None  # type: Optional[Any]
        self._subscribers: List[Any] = []
        self.sampling = sampling
        self.strict_subscribers = strict_subscribers
        self.metrics = metrics
        self.subscriber_errors = 0
        self.last_subscriber_error: Optional[BaseException] = None
        self._samplers: Dict[Any, _SessionSampler] = {}
        self._kept_seqs: List[int] = []

    # -- subscription ---------------------------------------------------------------

    def subscribe(self, callback: Any) -> None:
        """Call ``callback(event)`` for every event recorded from now on.

        Subscribers see events live, in emission order — and *unsampled*:
        a retention policy only limits what ``events`` keeps, never what
        a live :class:`~repro.obs.monitor.ClusterMonitor` observes.  A
        callback must not mutate the event; it may emit further events
        (re-entrant emission is ordered after the event being delivered).
        A callback that raises does not abort the run or starve later
        subscribers: the exception is counted in ``subscriber_errors``
        (and the ``tracer.subscriber_errors`` metric when a registry is
        attached) and re-raised only when ``strict_subscribers`` is set.
        """
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Any) -> None:
        """Stop delivering events to ``callback`` (no-op if absent)."""
        if callback in self._subscribers:
            self._subscribers.remove(callback)

    def _notify(self, record: TraceEvent) -> None:
        first_error: Optional[BaseException] = None
        for callback in self._subscribers:
            try:
                callback(record)
            except Exception as error:  # noqa: BLE001 - isolation boundary
                self.subscriber_errors += 1
                self.last_subscriber_error = error
                if self.metrics is not None:
                    self.metrics.counter("tracer.subscriber_errors").inc()
                if first_error is None:
                    first_error = error
        if first_error is not None and self.strict_subscribers:
            raise first_error

    # -- emission -------------------------------------------------------------------

    def event(self, kind: str, *, span_id: Optional[int] = None,
              time: Optional[float] = None, party: Optional[str] = None,
              message: Optional[str] = None, bits: int = 0,
              **fields: Any) -> TraceEvent:
        """Record one event inside the current span (unless overridden)."""
        if span_id is None and self._stack:
            span_id = self._stack[-1]
        if time is None and self.clock is not None:
            time = self.clock()
        record = TraceEvent(self._seq, kind, span_id=span_id, time=time,
                            party=party, message=message, bits=bits,
                            fields=fields)
        self._seq += 1
        if self.sampling is None:
            self.events.append(record)
        else:
            self._consider(record)
        self._notify(record)
        return record

    def span(self, name: str, *, time: Optional[float] = None,
             **attrs: Any) -> Span:
        """Open a span; use as a context manager or call ``end()``."""
        span_id = self._next_span
        self._next_span += 1
        self.event(SPAN_START, span_id=span_id, time=time, name=name, **attrs)
        self._stack.append(span_id)
        return Span(self, span_id, name)

    def _end_span(self, span: Span, *, time: Optional[float] = None) -> None:
        if span.span_id in self._stack:
            self._stack.remove(span.span_id)
        self.event(SPAN_END, span_id=span.span_id, time=time, name=span.name)

    # -- sampling -------------------------------------------------------------------

    def _retain(self, record: TraceEvent) -> None:
        """Keep ``record``, preserving seq order under late ring flushes."""
        if not self._kept_seqs or self._kept_seqs[-1] < record.seq:
            self.events.append(record)
            self._kept_seqs.append(record.seq)
            return
        index = bisect.bisect_left(self._kept_seqs, record.seq)
        self.events.insert(index, record)
        self._kept_seqs.insert(index, record.seq)

    def _consider(self, record: TraceEvent) -> None:
        policy = self.sampling
        if record.kind not in DROPPABLE_KINDS:
            if record.kind in (SESSION_END, SESSION_ABORT):
                # Recover the session's trailing context before the event
                # that explains it; the ring's seqs all precede this one.
                key = record.fields.get("session")
                if key in self._samplers:
                    self._flush_key(key, final=(record.kind == SESSION_END))
            self._retain(record)
            return
        key = record.fields.get("session")
        sampler = self._samplers.get(key)
        if sampler is None:
            sampler = self._samplers[key] = _SessionSampler(policy.tail)
        sampler.seen += 1
        if (sampler.seen <= policy.head
                or policy.keeps(key, sampler.seen)):
            sampler.kept += 1
            self._retain(record)
        elif policy.tail:
            sampler.ring.append(record)

    def _flush_key(self, key: Any, *, final: bool = True) -> None:
        sampler = self._samplers[key]
        for withheld in sampler.ring:
            sampler.kept += 1
            self._retain(withheld)
        sampler.ring.clear()
        if final:
            del self._samplers[key]
            extra = {"session": key} if key is not None else {}
            self.event(SAMPLING, seen=sampler.seen, kept=sampler.kept,
                       **extra)

    def flush_sampling(self) -> None:
        """Flush every open tail ring and emit its coverage accounting.

        Call once at end of run (the cluster runner does); sessions that
        ended already flushed themselves at their ``session_end``.
        No-op without a sampling policy.
        """
        if self.sampling is None:
            return
        for key in list(self._samplers):
            self._flush_key(key, final=True)

    # -- queries --------------------------------------------------------------------

    def count(self, kind: str, **match: Any) -> int:
        """How many events of ``kind`` match every given field filter."""
        return len(self.select(kind, **match))

    def select(self, kind: str, **match: Any) -> List[TraceEvent]:
        """Events of ``kind`` whose attributes/fields match the filters."""
        return [event for event in self.events
                if event.kind == kind
                and all(getattr(event, key, None) == value
                        or event.fields.get(key) == value
                        for key, value in match.items())]

    def message_bits(self, **match: Any) -> int:
        """Total wire bits over matching ``MESSAGE`` events."""
        return sum(event.bits for event in self.select(MESSAGE, **match))

    def __len__(self) -> int:
        return len(self.events)
