"""SYNCC (Algorithm 3): synchronization of conflict rotating vectors.

SYNCB breaks after reconciliation because merged elements rotate to the
front with unchanged values and then *hide* genuinely new elements behind
them (the paper's θ₁/θ₂/θ₃ example).  SYNCC fixes this with the conflict
bit: every element modified during a reconciliation is tagged, and a tagged
element that the receiver already knows is *skipped over* instead of
terminating the session.  Only an untagged known element proves that the
rest of ``≺_b`` is old news and halts.

The price is Γ — tagged-but-known elements that cross the wire anyway —
making SYNCC O(|Δ|+|Γ|): optimal only when conflicts are rare (SRV removes
the Γ term).

The receiver must know up front whether this synchronization is a
reconciliation (``reconcile ← a ∥ b``); in a deployment that verdict comes
from the COMPARE exchange that precedes every synchronization, so the
coroutine takes it as a parameter and the convenience wrapper
:func:`sync_crv` computes it.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.conflict import ConflictRotatingVector
from repro.net.wire import DEFAULT_ENCODING, Encoding
from repro.obs import trace as obs
from repro.obs.trace import Tracer
from repro.protocols.effects import DRAIN, POLL, RECV, Send
from repro.protocols.messages import ElementCMsg, Halt, Message
from repro.protocols.reports import VectorReceiverReport, VectorSenderReport
from repro.protocols.session import SessionResult, run_session

_HALT_BITS = 2  # Table 2: the CRV bound is n·log(4mn) + 2.


def syncc_sender(b: ConflictRotatingVector, *, tracer: Tracer | None = None
                 ) -> Generator[Any, Any, VectorSenderReport]:
    """The sending side of ``SYNCC_b(a)``: SYNCB's sender with triples."""
    report = VectorSenderReport()
    first = True
    for site, value, conflict, _ in b.order.rows():
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
        yield tuple.__new__(Send, (tuple.__new__(ElementCMsg,
                                                 (site, value, conflict)),))
        report.elements_sent += 1
    yield Send(Halt(_HALT_BITS))
    report.reached_end = True
    return report


def syncc_receiver(a: ConflictRotatingVector, *, reconcile: bool,
                   tracer: Tracer | None = None
                   ) -> Generator[Any, Any, VectorReceiverReport]:
    """The receiving side of ``SYNCC_b(a)``; mutates ``a`` in place.

    Args:
        a: the vector to synchronize.
        reconcile: Algorithm 3 line 2, ``reconcile ← a ∥ b``.  While true,
            every element modified by this session gets its conflict bit
            set, so it can never hide unmodified elements from a later sync.
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
        assert isinstance(message, ElementCMsg)
        site, value, conflict = message
        if value <= order.value(site):
            report.redundant_elements += 1
            if tracer is not None:
                tracer.event(obs.GAMMA_RETRANSMIT, party="receiver",
                             site=site, value=value, conflict=conflict)
            if conflict:
                # A tagged element may hide newer ones behind it: keep going.
                reconcile = True
                continue
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
        tagged = True if reconcile else conflict
        order.place_after(prev, site, value, tagged)
        prev = site
        report.new_elements += 1
        if tracer is not None:
            tracer.event(obs.DELTA_ELEMENT, party="receiver",
                         site=site, value=value)
            if tagged:
                tracer.event(obs.CONFLICT_BIT, party="receiver", site=site,
                             inherited=conflict)


def sync_crv(a: ConflictRotatingVector, b: ConflictRotatingVector, *,
             encoding: Encoding = DEFAULT_ENCODING,
             reconcile: bool | None = None,
             tracer: Tracer | None = None) -> SessionResult:
    """Run ``SYNCC_b(a)`` under the instant driver, mutating ``a``.

    ``reconcile`` defaults to the Algorithm 1 verdict ``a ∥ b`` (what the
    preceding COMPARE exchange would have established).  Note that after a
    reconciliation the *hosting site* is expected to increment its own
    element as a separate update (§2.2); the replication layer does that,
    not this protocol.
    """
    if reconcile is None:
        reconcile = a.compare(b).is_concurrent
    return run_session(syncc_sender(b, tracer=tracer),
                       syncc_receiver(a, reconcile=reconcile, tracer=tracer),
                       encoding=encoding, tracer=tracer, span_name="SYNCC")
