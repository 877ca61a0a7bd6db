"""SYNCB (Algorithm 2): incremental synchronization of basic rotating vectors.

``SYNCB_b(a)`` makes vector *a* (on the receiving site) equal to the
elementwise max of *a* and *b* while transmitting only the elements of *b*
modified since the two vectors last met.  The sender streams elements in
ascending ``≺_b`` order — most recently modified first — and the receiver
overwrites until it sees a value it already knows, at which point everything
behind it in the order is older still and a single ``HALT`` ends the
session: O(|Δ|) communication.

**Precondition** (Algorithm 2's ``Require``): ``a ∦ b``.  BRV offers no
conflict reconciliation, so the convenience wrapper :func:`sync_brv` raises
:class:`~repro.errors.ConcurrentVectorsError` on concurrent inputs; the raw
coroutines do not check (the check belongs to the caller, who has already
run COMPARE) — see §3.2 for what silently goes wrong on reuse after a
concurrent merge.

Network pipelining (§3.1): the sender never stops-and-waits; it polls for
the asynchronous ``HALT`` between element sends.  Before the receiver emits
its own ``HALT`` it drains already-delivered messages so that a sender-side
``HALT`` (the ``⌈b⌉`` case) is not answered redundantly.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.order import Ordering
from repro.core.rotating import BasicRotatingVector
from repro.errors import ConcurrentVectorsError
from repro.net.wire import DEFAULT_ENCODING, Encoding
from repro.obs import trace as obs
from repro.obs.trace import Tracer
from repro.protocols.effects import DRAIN, POLL, RECV, Send
from repro.protocols.messages import ElementMsg, Halt, Message
from repro.protocols.reports import VectorReceiverReport, VectorSenderReport
from repro.protocols.session import SessionResult, run_session

_HALT_BITS = 2  # Table 2: the BRV bound is n·log(2mn) + 2.


def syncb_sender(b: BasicRotatingVector, *, tracer: Tracer | None = None
                 ) -> Generator[Any, Any, VectorSenderReport]:
    """The sending side (*b*'s hosting site) of ``SYNCB_b(a)``."""
    report = VectorSenderReport()
    first = True
    for site, value, _, _ in b.order.rows():
        if first:
            first = False
        else:
            incoming = yield POLL
            if isinstance(incoming, Halt):
                if tracer is not None:
                    tracer.event(obs.CONTROL, party="sender",
                                 signal="halt_received")
                report.halted_by_peer = True
                return report
        yield tuple.__new__(Send, (tuple.__new__(ElementMsg, (site, value)),))
        report.elements_sent += 1
    # cur = ⌈b⌉ (or an empty vector, which precedes everything).
    yield Send(Halt(_HALT_BITS))
    report.reached_end = True
    return report


def syncb_receiver(a: BasicRotatingVector, *, tracer: Tracer | None = None
                   ) -> Generator[Any, Any, VectorReceiverReport]:
    """The receiving side (*a*'s hosting site) of ``SYNCB_b(a)``.

    Mutates ``a`` in place.  On termination the least *k* elements of
    ``≺_a`` have the same order and values as the least *k* of ``≺_b``.
    """
    report = VectorReceiverReport()
    order = a.order
    prev: str | None = None
    while True:
        message: Message = yield RECV
        if isinstance(message, Halt):
            if tracer is not None:
                tracer.event(obs.CONTROL, party="receiver",
                             signal="halt_received")
            report.received_halt = True
            return report
        assert isinstance(message, ElementMsg)
        site, value = message
        if value <= order.value(site):
            report.redundant_elements += 1
            if tracer is not None:
                tracer.event(obs.GAMMA_RETRANSMIT, party="receiver",
                             site=site, value=value)
            # Drain delivered traffic: if the sender already HALTed (it hit
            # ⌈b⌉ right behind this element) our own HALT would be wasted.
            while True:
                extra = yield DRAIN
                if extra is None:
                    break
                if isinstance(extra, Halt):
                    report.received_halt = True
                    return report
                report.ignored_elements += 1
            yield Send(Halt(_HALT_BITS))
            if tracer is not None:
                tracer.event(obs.CONTROL, party="receiver",
                             signal="halt_sent")
            report.sent_halt = True
            return report
        order.place_after(prev, site, value)
        prev = site
        report.new_elements += 1
        if tracer is not None:
            tracer.event(obs.DELTA_ELEMENT, party="receiver",
                         site=site, value=value)


def sync_brv(a: BasicRotatingVector, b: BasicRotatingVector, *,
             encoding: Encoding = DEFAULT_ENCODING,
             check: bool = True,
             tracer: Tracer | None = None) -> SessionResult:
    """Run ``SYNCB_b(a)`` under the instant driver, mutating ``a``.

    Args:
        a: the vector to bring up to date (receiver side).
        b: the up-to-date vector (sender side); never modified.
        encoding: field widths used to price the traffic.
        check: verify ``a ∦ b`` first (via Algorithm 1) and raise
            :class:`ConcurrentVectorsError` otherwise.
        tracer: optional trace sink; opens a ``SYNCB`` span.

    Returns:
        The session result; ``a`` now equals ``max(a, b)`` elementwise —
        which by Theorem 3.1 is ``b`` if ``a ≺ b`` and ``a`` otherwise.
    """
    if check and a.compare(b) is Ordering.CONCURRENT:
        raise ConcurrentVectorsError(
            "SYNCB requires a ∦ b; use CRV/SRV for conflict reconciliation")
    return run_session(syncb_sender(b, tracer=tracer),
                       syncb_receiver(a, tracer=tracer),
                       encoding=encoding, tracer=tracer, span_name="SYNCB")
