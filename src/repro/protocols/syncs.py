"""SYNCS (Algorithm 4): synchronization of skip rotating vectors.

SYNCC retransmits Γ — conflict-tagged elements the receiver already knows.
SRV's segment bits recover the structure CRV lost: a vector is a series of
*segments* (the prefixing segments of its CRG ancestry), and knowing any one
element of a segment means knowing the whole segment.  So when the receiver
sees a known, tagged element it answers ``(SKIP, segs)`` naming the segment,
and the sender fast-forwards to that segment's end instead of streaming the
rest of it: O(|Δ|+γ) communication, optimal by Theorem 5.1.

Pipelining subtleties handled here (§4 and DESIGN.md):

* Both parties count segment boundaries (``segs``); the sender honors a
  ``SKIP`` only when its argument matches its own count, so stale skips that
  raced past a boundary are ignored.
* The sender transmits the **terminator element** (segment bit = 1) of a
  skipped segment.  The paper omits the receiver's ``segs`` maintenance "for
  brevity"; delivering every boundary marker is the one-element-per-skip
  device that keeps the two counters synchronized under arbitrary pipelining
  overshoot, and it preserves O(|Δ|+γ) since it is O(1) per skip.
* The receiver's ``skipping`` flag suppresses duplicate SKIPs and discards
  the overshoot elements of a segment already skipped; it clears at the next
  boundary or at the next genuinely new element.
* A known tagged element that *is* a terminator needs no SKIP at all — the
  segment ends with it — so none is sent.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from typing import Any, Generator

from repro.core.skip import SkipRotatingVector
from repro.net.wire import DEFAULT_ENCODING, Encoding
from repro.obs import trace as obs
from repro.obs.trace import Tracer
from repro.protocols.effects import (DRAIN, POLL, QUIET, RECV, SEND_HALT1,
                                     Send, SendAll)
from repro.protocols.messages import ElementSMsg, Halt, Message, Skip
from repro.protocols.reports import VectorReceiverReport, VectorSenderReport
from repro.protocols.session import SessionResult, run_session

#: ``ElementSMsg`` from a ``(site, value, conflict, segment)`` row in one C
#: call, with no Python frame per element (see :mod:`.messages`).
_new_element = partial(tuple.__new__, ElementSMsg)


def syncs_sender(b: SkipRotatingVector, *,
                 forward_terminators: bool = True,
                 tracer: Tracer | None = None
                 ) -> Generator[Any, Any, VectorSenderReport]:
    """The sending side of ``SYNCS_b(a)``.

    ``forward_terminators=False`` disables the terminator-forwarding
    clarification (see the module docstring) and follows Algorithm 4 to
    the letter: a skipped segment's boundary element is suppressed too.
    The result stays *correct* but the receiver's ``segs`` counter falls
    behind after every honored skip, so later SKIPs arrive stale and
    whole known segments stream redundantly — the ablation benchmark
    measures exactly that cost.
    """
    report = VectorSenderReport()
    segs = 0
    skipping = False
    rows = b.order.rows()
    for row in rows:
        # Drain asynchronous control traffic before touching the next element.
        while True:
            incoming = yield POLL
            if not incoming:
                if incoming is QUIET and not skipping:
                    # No control message can reach us before ⌈b⌉: every
                    # remaining row would be sent, so hand this row, the
                    # rest and the HALT over in one effect.
                    messages = (*map(_new_element, chain((row,), rows)),
                                SEND_HALT1.message)
                    yield tuple.__new__(SendAll, (messages,))
                    report.elements_sent += len(messages) - 1
                    report.reached_end = True
                    return report
                break
            if isinstance(incoming, Halt):
                if tracer is not None:
                    tracer.event(obs.CONTROL, party="sender",
                                 signal="halt_received")
                report.halted_by_peer = True
                return report
            if (isinstance(incoming, Skip) and incoming.segs == segs
                    and not skipping):
                skipping = True
                report.skips_honored += 1
                if tracer is not None:
                    tracer.event(obs.GAMMA_SKIP, party="sender", segs=segs)
            elif isinstance(incoming, Skip) and tracer is not None:
                tracer.event(obs.CONTROL, party="sender",
                             signal="stale_skip", segs=incoming.segs)
            # Anything else is a stale SKIP whose segment already streamed.
        segment = row[3]
        if not skipping or (segment and forward_terminators):
            # Terminators are sent even inside a skip so the receiver sees
            # every boundary and the two segs counters stay in lock-step.
            # The row is the message's field tuple: one C call each.
            yield tuple.__new__(Send, (tuple.__new__(ElementSMsg, row),))
            report.elements_sent += 1
        else:
            report.elements_suppressed += 1
            if tracer is not None:
                tracer.event("element_suppressed", party="sender",
                             site=row[0])
        if segment:
            segs += 1
            skipping = False
    # ⌈b⌉ passed (or b is empty and precedes everything).
    yield SEND_HALT1
    report.reached_end = True
    return report


def syncs_receiver(a: SkipRotatingVector, *, reconcile: bool,
                   tracer: Tracer | None = None
                   ) -> Generator[Any, Any, VectorReceiverReport]:
    """The receiving side of ``SYNCS_b(a)``; mutates ``a`` in place."""
    report = VectorReceiverReport()
    order = a.order
    prev: str | None = None
    segs = 0
    skipping = False
    try:
        while True:
            message: Message = yield RECV
            if isinstance(message, Halt):
                # The sender exhausted ⌈b⌉.  During a reconciliation the run of
                # freshly written elements still needs its terminator: what
                # follows them in ≺_a is causally unrelated, and without the
                # boundary a later local update would fuse the two runs into
                # one (unskippable-safe but also *unsafe*) segment.
                if reconcile and prev is not None:
                    order.set_segment(prev)
                if tracer is not None:
                    tracer.event(obs.CONTROL, party="receiver",
                                 signal="halt_received")
                report.received_halt = True
                return report
            assert isinstance(message, ElementSMsg)
            site, value, conflict, segment = message
            if value <= order.value(site):
                if skipping:
                    report.ignored_elements += 1
                else:
                    report.redundant_elements += 1
                    if tracer is not None:
                        tracer.event(obs.GAMMA_RETRANSMIT, party="receiver",
                                     site=site, value=value,
                                     conflict=conflict)
                    # A skip (or halt) cuts the run of freshly written elements:
                    # the last one written now ends a segment of ≺_a (§4).
                    if reconcile and prev is not None:
                        order.set_segment(prev)
                    if conflict:
                        reconcile = True
                        if not segment:
                            yield Send(Skip(segs))
                            report.skips_issued += 1
                            skipping = True
                            if tracer is not None:
                                tracer.event(obs.CONTROL, party="receiver",
                                             signal="skip_sent", segs=segs)
                        else:
                            # This element terminates its segment — nothing
                            # left to skip, keep reading.  Still one known
                            # segment consumed at O(1) cost (γ accounting).
                            report.inline_segments += 1
                            if tracer is not None:
                                tracer.event("inline_segment", party="receiver",
                                             segs=segs)
                    else:
                        while True:
                            extra = yield DRAIN
                            if extra is None:
                                break
                            if isinstance(extra, Halt):
                                report.received_halt = True
                                return report
                            report.ignored_elements += 1
                        yield SEND_HALT1
                        if tracer is not None:
                            tracer.event(obs.CONTROL, party="receiver",
                                         signal="halt_sent")
                        report.sent_halt = True
                        return report
            else:
                skipping = False
                tagged = True if reconcile else conflict
                order.place_after(prev, site, value, tagged, segment)
                prev = site
                report.new_elements += 1
                if tracer is not None:
                    tracer.event(obs.DELTA_ELEMENT, party="receiver",
                                 site=site, value=value)
                    if tagged:
                        tracer.event(obs.CONFLICT_BIT, party="receiver",
                                     site=site, inherited=conflict)
            if segment:
                segs += 1
                skipping = False
    except GeneratorExit:
        # Closed mid-session (the reliable transport aborting an
        # attempt).  The run of freshly written elements still needs
        # its segment terminator, exactly as on Halt: without the
        # boundary, causally unrelated successors in ≺_a would fuse
        # with the run into one unsafe segment.  Note the torn vector
        # remains causally *incomplete* regardless (it holds Δ's newest
        # elements without their past) — resumable callers merge each
        # attempt into a fresh copy and drop a torn one, per
        # SessionOptions.rebuild's contract; the seal only keeps ≺_a
        # structurally sane for direct users.
        if reconcile and prev is not None:
            order.set_segment(prev)
        raise


def sync_srv(a: SkipRotatingVector, b: SkipRotatingVector, *,
             encoding: Encoding = DEFAULT_ENCODING,
             reconcile: bool | None = None,
             tracer: Tracer | None = None) -> SessionResult:
    """Run ``SYNCS_b(a)`` under the instant driver, mutating ``a``.

    ``reconcile`` defaults to the Algorithm 1 verdict ``a ∥ b``.  As with
    SYNCC, the post-reconciliation self-increment is the replication
    layer's job.
    """
    if reconcile is None:
        reconcile = a.compare(b).is_concurrent
    return run_session(syncs_sender(b, tracer=tracer),
                       syncs_receiver(a, reconcile=reconcile, tracer=tracer),
                       encoding=encoding, tracer=tracer, span_name="SYNCS")
