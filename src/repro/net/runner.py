"""Timed protocol execution on the discrete-event simulator.

Runs the *same* protocol coroutines the instant driver runs, through the
same interpreter (:class:`repro.protocols.session.Party`), under the timed
delivery policy for a :class:`~repro.net.channel.ChannelSpec`:

* ``Send`` occupies the sender for the message's serialization delay and
  schedules delivery one propagation latency later (FIFO per direction);
* ``Recv`` parks the party until a delivery fires;
* ``Poll``/``Drain`` report instantly what has arrived by the party's
  current clock — which is precisely what makes pipelining overshoot real:
  a control message emitted by the peer only becomes visible one latency
  later, and everything the sender serialized in between is the paper's
  β = bandwidth·rtt excess.

Unified entry point
-------------------

All session launching goes through one door::

    handle = launch(sim, SessionOptions(pairs=((sender, receiver),), ...))
    sim.run()
    handle.result          # TimedSessionResult once both parties finished

:class:`SessionOptions` is a keyword-only value object covering the single
-object, batched multi-object, and fault-tolerant regimes; :func:`launch`
starts the session's two parties on a shared simulator and returns a live
:class:`SessionHandle`.  :func:`run_timed` is the private-simulator
convenience (build a sim, launch, run to completion, return the result).

Reliability
-----------

When the channel carries an enabled :class:`~repro.net.faults.FaultSpec`,
the driver swaps its transport for a selective-repeat ARQ: every protocol
message gets a per-direction sequence number, its own retransmission
timer and its own retry budget; acknowledgments and data both pass
through the seeded :class:`~repro.net.faults.FaultInjector` (drop/
duplicate/reorder/partition), timeouts retransmit with exponential
backoff and deterministic jitter (:class:`~repro.net.faults.RetryPolicy`),
the receiver buffers early arrivals and delivers in order exactly once,
and a message that exhausts its retry budget aborts the session attempt.
The window is open: a sender streams ahead as on the perfect link and
finishes when its last message is acknowledged.  An attempt *commits*
when both coroutines of its last wire have returned: the receiver then
holds its whole Δ, ancestor-closed, and neither vector is iterated
again, so ``SessionOptions.on_commit`` fires and the owner may release
the endpoints while the parties drain their acks.  A run in which no
fault fires therefore commits at the perfect link's instant and
completes one ack trip later.  An abort before the commit tears the
attempt; one after it (a drained message out of retry budget) completes
it, since nothing is left to deliver.  A torn session *resumes* — when
``SessionOptions.rebuild`` can produce fresh coroutines — by
re-handshaking from the receiver's committed state.  Attempts are
transactional: the protocols stream Δ newest-first, so a torn attempt's
acked prefix is never ancestor-closed and can NOT be kept (a vector
claiming an element without its causal past halts every later sync
prematurely).  So no attempt writes a live receiving vector: the
rebuild callback merges each attempt into fresh copies, which its
owner installs at the commit, and a torn attempt's copies and traffic
are pure accounted waste.

Accounting: the first transmission of each distinct transport message is
*goodput*; every further copy is recorded via
:meth:`~repro.net.stats.DirectionStats.record_retransmit`, so
``total_retransmitted_bits == total_bits - total_goodput_bits`` holds
exactly and a fault-free run's goodput equals its wire bits.  With all
fault rates at zero the reliable transport is never engaged and every
code path, event order, and bit count is identical to the historical
driver.

With ``stop_and_wait=True`` (and no faults) every data message waits for
an implicit per-item acknowledgment (rtt + ack serialization) before the
next one starts — the baseline the paper's pipelining claim of a
``(k−1)·rtt`` saving is measured against.  The acknowledgment bits are
charged to the opposite direction so total-traffic comparisons stay
honest, and they are recorded at the ack's simulated *arrival* instant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SessionError, ValidationError
from repro.net.channel import ChannelSpec, serialization_ns
from repro.net.faults import FaultInjector, RetryPolicy
from repro.net.simulator import Simulator, Timer, to_ns, to_seconds
from repro.net.stats import TransferStats
from repro.net.wire import DEFAULT_ENCODING, Encoding
from repro.obs import trace as obs
from repro.obs.trace import Tracer
from repro.protocols.batch import BatchFrame, batch_party
from repro.protocols.messages import Message
from repro.protocols.session import INBOX, Party, ProtocolCoroutine, Wire

#: One object's coroutine pair: ``(sender, receiver)``.
SessionPair = Tuple[ProtocolCoroutine, ProtocolCoroutine]
#: Factory producing fresh coroutine pairs for a (re)launch attempt.
PairFactory = Callable[[], Sequence[SessionPair]]


@dataclass
class TimedSessionResult:
    """Outcome of a timed protocol session.

    ``completion_time`` is when the *last* party finished, in simulated
    seconds; the per-party finish times expose the asymmetry (a pipelined
    sender typically outlives the receiver by roughly one rtt while its
    overshoot drains).  For sessions launched on a shared simulator the
    times are absolute simulator clock values; ``start_time`` records when
    the session's parties were started.  Each is a whole number of
    nanoseconds, so :func:`~repro.net.simulator.to_ns` recovers it exactly.
    """

    stats: TransferStats
    sender_result: Any
    receiver_result: Any
    completion_time: float
    sender_finish: float
    receiver_finish: float
    start_time: float = 0.0

    @property
    def duration(self) -> float:
        """Seconds from start to the last party's finish, taken in whole
        nanoseconds: the same number wherever the session started."""
        return to_seconds(to_ns(self.completion_time)
                          - to_ns(self.start_time))


@dataclass(frozen=True, kw_only=True)
class SessionOptions:
    """Everything one session launch needs, in one keyword-only object.

    Attributes:
        pairs: one ``(sender, receiver)`` coroutine pair per object.  A
            single pair runs the historical single-object session; more
            pairs run the (possibly framed) multi-object machinery.
        rebuild: factory returning fresh pairs; required for session
            *resume* (coroutines are one-shot, so every attempt needs
            new ones).  When given, it supplies the first attempt's
            pairs too and ``pairs`` must be left empty.  Contract: the
            callback owns attempt isolation — a torn attempt leaves its
            receiving vectors causally incomplete (the stream is
            newest-first), so on a link that can tear an attempt every
            call must build over fresh copies of the committed
            receiving vectors, for ``on_commit`` to install
            (:class:`~repro.net.cluster.ClusterRunner`,
            :class:`~repro.store.cluster.StoreCluster`).
        batch_size: above 1, every pair rides one framed wire session
            (:mod:`repro.protocols.batch`) in frames of at most this many
            entries; 1 runs each object through the plain per-object
            path, bit-for-bit the unbatched driver.
        channel: link model, including its fault spec.
        encoding: wire pricing for every message.
        stop_and_wait: per-item implicit-ack baseline instead of
            pipelining (ignored under the reliable transport, whose
            window is open).
        proc_time: per-received-message processing seconds at a ``Recv``.
        max_steps: protocol-effect budget guarding against livelock bugs.
        tracer: optional structured trace sink.
        party_names: labels for the two parties in trace events (e.g.
            site names when hosted by a cluster runner).
        on_commit: fires once, with no argument, when the final
            attempt *commits*: both coroutines of its last wire have
            returned, so the receiver holds its whole Δ and neither
            vector is iterated again.  The parties may still be draining
            acks; an abort after this point completes the attempt (it
            does not resume).  On a perfect link it fires
            just before ``on_complete``.
        on_complete: fires once with the full :class:`TimedSessionResult`
            when both parties of the final attempt have finished.
        retry: ARQ knobs for the reliable transport (timeouts, backoff,
            retry budget, resume budget).
        fault_seed: per-session override of the fault spec's seed, so
            many sessions on one channel draw independent-but-replayable
            fault schedules (the cluster runner passes the session
            index).
        session_id: cluster-level session identity stamped into every
            wire trace event as ``fields["session"]`` (the cluster
            runner passes its record index); ``None`` leaves standalone
            session events exactly as before.
        on_abandon: ``on_abandon(error, stats)`` fires with the
            :class:`~repro.errors.SessionError` describing the failure
            and the session's spent :class:`TransferStats` (every
            attempt's wire bits, the aborted ones included) when the
            session aborts *permanently* — retry budget exhausted and no
            resume possible — instead of raising out of the simulator;
            no callback needs the handle (capturing it would be a cycle
            per session).  ``result`` stays ``None``.  Hosts that own shared
            state (e.g. a replicated store's per-key tables) use this to
            release what the session held and keep the fleet running;
            leaving it ``None`` keeps the historical
            raise-through-the-simulator behavior.
    """

    pairs: Tuple[SessionPair, ...] = ()
    rebuild: Optional[PairFactory] = None
    batch_size: int = 1
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    encoding: Encoding = DEFAULT_ENCODING
    stop_and_wait: bool = False
    proc_time: float = 0.0
    max_steps: int = 10_000_000
    tracer: Optional[Tracer] = None
    party_names: Tuple[str, str] = ("sender", "receiver")
    on_commit: Optional[Callable[[], None]] = None
    on_complete: Optional[Callable[[TimedSessionResult], None]] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    fault_seed: Optional[int] = None
    session_id: Optional[int] = None
    on_abandon: Optional[Callable[[SessionError, TransferStats], None]] = None

    def __post_init__(self) -> None:
        if bool(self.pairs) == (self.rebuild is not None):
            raise ValidationError(
                "exactly one of pairs/rebuild must be provided: pairs for "
                "a one-shot session, rebuild for a resumable one")
        if self.batch_size < 1:
            raise ValidationError(
                f"batch_size must be >= 1, got {self.batch_size}")
        if not self.proc_time >= 0:
            raise ValidationError(
                f"proc_time must be >= 0, got {self.proc_time}")
        if self.max_steps < 1:
            raise ValidationError(
                f"max_steps must be >= 1, got {self.max_steps}")
        if len(self.party_names) != 2 \
                or self.party_names[0] == self.party_names[1]:
            raise ValidationError(
                f"party_names must be two distinct labels, "
                f"got {self.party_names!r}")

    @classmethod
    def for_pair(cls, sender: ProtocolCoroutine,
                 receiver: ProtocolCoroutine, **kwargs: Any
                 ) -> "SessionOptions":
        """Options for one plain single-object session."""
        return cls(pairs=((sender, receiver),), **kwargs)

    @property
    def use_reliable(self) -> bool:
        """Whether this launch engages the ARQ transport: exactly when
        the channel's fault spec can produce a fault."""
        return self.channel.faults.enabled


@dataclass
class SessionHandle:
    """Live view of one launched session.

    ``stats`` fills in as the hosting simulator runs and aggregates every
    attempt (including aborted ones — their wire bits were spent);
    ``result`` is ``None`` until the final attempt completes.
    """

    options: SessionOptions
    stats: TransferStats = field(default_factory=TransferStats)
    result: Optional[TimedSessionResult] = None
    attempts: int = 0

    @property
    def completed(self) -> bool:
        return self.result is not None


# ---------------------------------------------------------------------------
# Wire parties: the two sides of one wire session, stepped by kernel events.
# ---------------------------------------------------------------------------

#: What an ARQ party is parked on besides its inbox (``Party.parked``).
_ACK = "ack"


class _Wire(Wire):
    """What the two parties of one wire session share.

    It never refers to a party, so the only cycle on the path is the
    parties' peer links, and :meth:`_Party.leave` cuts those when the
    second party finishes.
    """

    __slots__ = ("sim", "channel", "stop_and_wait", "proc_time", "retry",
                 "injector", "jitter_rng", "on_commit", "on_complete",
                 "on_abort", "returned")

    def __init__(self, sim: Simulator, stats: TransferStats,
                 options: SessionOptions, on_commit: Callable[[], None],
                 on_complete: Callable[["_Party", "_Party"], None],
                 on_abort: Callable[[], None],
                 injector: Optional[FaultInjector],
                 jitter_rng: Optional[random.Random]) -> None:
        # Every ARQ attempt is a fresh handshake; it re-pays the header.
        Wire.__init__(self, stats, options.encoding, options.max_steps,
                      options.tracer, options.session_id)
        self.sim = sim
        self.channel = options.channel
        self.stop_and_wait = options.stop_and_wait
        self.proc_time = to_ns(options.proc_time)
        self.retry = options.retry
        self.injector, self.jitter_rng = injector, jitter_rng
        self.on_commit = on_commit
        self.on_complete, self.on_abort = on_complete, on_abort
        #: Parties whose coroutine has returned; the second commits.
        self.returned = 0


class _Party(Party):
    """One side of a wire session on the perfect link: the timed policy.

    A ``Send`` serializes on the kernel and returns; a ``Recv`` with mail
    (after ``proc_time``, if any) and an empty ``Poll`` resolve inline;
    the kernel heap decides who steps next, each event calling one of
    this party's bound methods.  Which events are scheduled, when and in
    what order is fixed (DESIGN.md §5, "Wire parties"), and
    ``tests/net/test_wire_trace.py`` pins it.
    """

    __slots__ = ("sim", "peer", "aborted", "outgoing", "sent_seq", "finish")

    def __init__(self, wire: _Wire, name: str, coroutine: ProtocolCoroutine,
                 forward: bool) -> None:
        Party.__init__(self, wire, name, coroutine, forward,
                       wire.proc_time > 0, False)
        self.sim = wire.sim
        self.peer: Optional[_Party] = None
        self.aborted = False
        self.outgoing: Optional[Message] = None
        self.sent_seq: Optional[int] = None
        self.finish: Optional[int] = None  # ns

    def hold(self, parked: str) -> None:
        """A ``Recv``: spend the processing time on mail already here,
        or park on the inbox until a delivery."""
        if self.inbox:
            self.process()
            return
        self.parked = INBOX
        self.sim.park()

    def wake(self) -> None:
        """A delivery (or an abort) woke this party from its inbox."""
        self.sim.unpark()
        if self.aborted:
            self.quit()
            return
        if self.holds_mail:
            self.process()
            return
        self.advance(self.inbox.pop(0))

    def process(self) -> None:
        """Spend the per-message processing time before taking it."""
        sim = self.sim
        sim.schedule(sim.now + self.wire.proc_time, self.processed)

    def processed(self) -> None:
        if self.aborted:
            self.quit()
            return
        self.advance(self.inbox.pop(0))

    def quit(self) -> None:
        """The attempt aborted: close the coroutine and leave, once."""
        if self.done:
            return
        if self.parked is not None:
            self.parked = None
            self.sim.unpark()
        self.coroutine.close()
        self.leave()

    def exit(self, result: Any) -> None:
        """The coroutine returned; the second return commits the wire."""
        self.result = result
        wire = self.wire
        wire.returned += 1
        if wire.returned == 2:
            wire.on_commit()
        self.leave()

    def leave(self) -> None:
        """Finish.  Once both have, the wire completes — or, aborted
        before it committed, gives up."""
        self.done = True
        self.finish = self.sim.now
        peer = self.peer
        if not peer.done:
            return
        # The second party out cuts the peer links, so the finished
        # session holds no cycle (DESIGN.md §5).
        self.peer = peer.peer = None
        wire = self.wire
        if wire.returned < 2:
            wire.on_abort()
            return
        if self.forward:
            wire.on_complete(self, peer)
        else:
            wire.on_complete(peer, self)

    # -- perfect-link transport ---------------------------------------------

    def transmit(self, message: Message) -> bool:
        """Occupy the link for ``message``'s serialization delay."""
        wire = self.wire
        bits = message.bits(wire.encoding)
        self.sent_seq = self.account(message, bits)
        self.outgoing = message
        sim = self.sim
        sim.schedule(sim.now + serialization_ns(bits, wire.channel.bandwidth),
                     self.serialized)
        return True

    def serialized(self) -> None:
        """The last bit left: it lands one propagation latency later."""
        wire, sim = self.wire, self.sim
        sim.schedule(sim.now + wire.channel.latency_ns,
                     partial(self.peer.deliver, self.outgoing, self.sent_seq))
        if wire.stop_and_wait:
            # The implicit ack crosses back only after the data message
            # lands; record it when it *arrives* here (now + rtt + ack
            # serialization), not when the data finished serializing —
            # otherwise traces show the Ack before the deliver it
            # acknowledges.
            sim.schedule(sim.now + wire.channel.stop_and_wait_ns(),
                         self.implicitly_acked)
            return
        self.advance()

    def implicitly_acked(self) -> None:
        self.peer.acknowledge()
        self.advance()

    def acknowledge(self, first: bool = True,
                    seq: Optional[int] = None) -> None:
        """Account one acknowledgment this party returns (of the peer's
        message ``seq`` under ARQ); only the first per message is
        goodput."""
        wire, out = self.wire, self.out_stats
        ack_bits = wire.channel.ack_bits
        (out.record if first else out.record_retransmit)("Ack", ack_bits)
        if wire.tracer is not None:
            copy = {} if seq is None else {"seq": seq}
            wire.tracer.event(obs.MESSAGE, party=self.name, message="Ack",
                              bits=ack_bits, **copy,
                              direction="forward" if self.forward
                              else "backward", **wire.session_fields)

    def deliver(self, message: Message, sent_seq: Optional[int]) -> None:
        """A message landed in this party's inbox."""
        tracer = self.wire.tracer
        if tracer is not None:
            fields: Dict[str, Any] = {}
            if sent_seq is not None:
                # The trace seq of the MESSAGE event whose copy landed —
                # the send→deliver happens-before edge, by construction
                # acyclic (the send was emitted strictly earlier).
                fields["sent_seq"] = sent_seq
            fields.update(self.wire.session_fields)
            tracer.event(obs.DELIVER, party=self.name,
                         message=message.type_name, **fields)
        self.inbox.append(message)
        if self.parked is INBOX:
            # A zero-delay hop, not an inline call: the party resumes at
            # this instant but behind everything already due now.
            self.parked = None
            self.sim.schedule(self.sim.now, self.wake)


class _Out:
    """One outstanding ARQ message: its copies, timer and retry state."""

    __slots__ = ("seq", "message", "bits", "rto", "attempt", "timeout",
                 "timer", "sent_seq")

    def __init__(self, seq: int, message: Message, bits: int,
                 rto: float) -> None:
        self.seq, self.message, self.bits, self.rto = seq, message, bits, rto
        self.attempt, self.timeout = 0, 0  # timeout: the armed timer's ns
        self.timer: Optional[Timer] = None
        self.sent_seq: Optional[int] = None  # its latest copy's trace seq


class _ArqParty(_Party):
    """One side of a wire-session attempt on the selective-repeat ARQ.

    Each outgoing message carries a sequence number and keeps its own
    retransmission timer and retry budget (an :class:`_Out`); a
    retransmission queues behind the copy on the link.  The receiving
    side buffers early arrivals, delivers in order exactly once and
    acknowledges every arriving copy.  Every transmission — data and
    acks — passes through the session's seeded
    :class:`~repro.net.faults.FaultInjector`.  The window is open: the
    coroutine resumes once its message has serialized, and a party whose
    coroutine has returned waits for its last ack (``parked`` is
    ``"ack"``) before it finishes (DESIGN.md §5, "The ARQ window").
    """

    __slots__ = ("next_seq", "expected", "unacked", "queue", "on_link",
                 "early")

    def __init__(self, wire: _Wire, name: str, coroutine: ProtocolCoroutine,
                 forward: bool) -> None:
        _Party.__init__(self, wire, name, coroutine, forward)
        self.next_seq = 0       # our next outgoing sequence number
        self.expected = 0       # the peer's next sequence number we take
        self.unacked: Dict[int, _Out] = {}
        self.queue: List[_Out] = []          # copies waiting for the link
        self.on_link: Optional[_Out] = None  # the copy serializing now
        self.early: Dict[int, Tuple[Message, Optional[int]]] = {}

    def fate(self, kind: str, seq: int) -> Tuple[int, ...]:
        wire = self.wire
        fate = wire.injector.fate(self.sim.now)
        tracer = wire.tracer
        if tracer is not None:
            if not fate:
                tracer.event(obs.FAULT, party=self.name, fault="drop",
                             traffic=kind, seq=seq, **wire.session_fields)
            else:
                if len(fate) > 1:
                    tracer.event(obs.FAULT, party=self.name,
                                 fault="duplicate", traffic=kind, seq=seq,
                                 **wire.session_fields)
                if fate[0] > 0:
                    tracer.event(obs.FAULT, party=self.name,
                                 fault="reorder", traffic=kind, seq=seq,
                                 delay=to_seconds(fate[0]),
                                 **wire.session_fields)
        return fate

    def quit(self) -> None:
        """Leave the aborted attempt; no timer of ours outlives it."""
        for out in self.unacked.values():
            if out.timer is not None:
                out.timer.cancel()
        _Party.quit(self)

    def leave(self) -> None:
        if self.unacked and not self.aborted:
            # The drain: the party finishes on its last message's ack.
            self.parked = _ACK
            self.sim.park()
            return
        _Party.leave(self)

    # -- sending side -------------------------------------------------------

    def transmit(self, message: Message) -> bool:
        wire = self.wire
        out = _Out(self.next_seq, message, message.bits(wire.encoding),
                   wire.retry.rto_for(wire.channel))
        self.unacked[out.seq] = out
        self.next_seq += 1
        self.send_copy(out)
        return True

    def send_copy(self, out: _Out) -> None:
        """Serialize one copy of ``out``, or queue it behind the link's."""
        if self.on_link is not None:
            self.queue.append(out)
            return
        wire = self.wire
        out.attempt = attempt = out.attempt + 1
        if attempt > 1:
            wire.stats.retries += 1
            if wire.tracer is not None:
                wire.tracer.event(obs.RETRY, party=self.name,
                                  message=out.message.type_name, seq=out.seq,
                                  attempt=attempt, **wire.session_fields)
        out.sent_seq = self.account(out.message, out.bits, out.seq, attempt)
        self.on_link = out
        sim = self.sim
        sim.schedule(
            sim.now + serialization_ns(out.bits, wire.channel.bandwidth),
            self.serialized)

    def serialized(self) -> None:
        if self.aborted or self.done:
            self.quit()
            return
        wire, sim, out = self.wire, self.sim, self.on_link
        seq, arrival = out.seq, sim.now + wire.channel.latency_ns
        on_data = partial(self.peer.on_data, self, seq, out.message,
                          out.sent_seq)
        for delay in self.fate("data", seq):
            sim.schedule(arrival + delay, on_data)
        self.on_link = None
        unacked = self.unacked
        if seq in unacked:
            out.timeout = timeout = wire.retry.draw_timeout(
                out.rto, wire.jitter_rng)
            out.timer = sim.call_at(sim.now + timeout,
                                    partial(self.on_timeout, out))
        queue = self.queue
        while queue and self.on_link is None:
            # A queued retransmission whose ack has landed stays home.
            out_next = queue.pop(0)
            if out_next.seq in unacked:
                self.send_copy(out_next)
        if out.attempt == 1:
            # The coroutine waits on its message's first copy only.
            self.advance()

    def on_timeout(self, out: _Out) -> None:
        out.timer = None
        if not self.aborted:
            self.expire(out)

    def on_ack(self, seq: int) -> None:
        """An acknowledgment for our message ``seq`` arrived."""
        # Acks for acknowledged sequence numbers are stale duplicates.
        out = None if self.aborted else self.unacked.pop(seq, None)
        if out is None:
            return
        if out.timer is not None:
            out.timer.cancel()
        if self.parked is _ACK and not self.unacked:
            self.parked = None
            self.sim.schedule(self.sim.now, self.ack_wake)

    def ack_wake(self) -> None:
        """The drain's last ack arrived, or the attempt aborted."""
        self.sim.unpark()
        if self.aborted:
            self.quit()
        else:
            _Party.leave(self)

    def expire(self, out: _Out) -> None:
        """``out`` timed out: retransmit, or abort past its budget."""
        wire = self.wire
        wire.stats.timeouts += 1
        if wire.tracer is not None:
            wire.tracer.event(obs.TIMEOUT, party=self.name,
                              message=out.message.type_name, seq=out.seq,
                              attempt=out.attempt,
                              rto=to_seconds(out.timeout),
                              **wire.session_fields)
        if out.attempt >= wire.retry.max_retries + 1:
            self.abort(out)
            self.quit()
            return
        out.rto = wire.retry.next_rto(out.rto)
        self.send_copy(out)

    def abort(self, out: _Out) -> None:
        """Give up on this attempt.  A peer parked on its inbox or acks is
        woken to leave; in any other state it leaves at its next event."""
        peer = self.peer
        self.aborted = peer.aborted = True
        wire = self.wire
        if wire.tracer is not None:
            wire.tracer.event(obs.SESSION_ABORT, party=self.name,
                              seq=out.seq, attempts=out.attempt,
                              **wire.session_fields)
        if peer.parked is not None:
            wake = peer.wake if peer.parked is INBOX else peer.ack_wake
            peer.parked = None
            self.sim.schedule(self.sim.now, wake)

    # -- receiving side -----------------------------------------------------

    def on_data(self, sender: "_ArqParty", seq: int, message: Message,
                sent_seq: Optional[int]) -> None:
        """A copy of ``sender``'s message ``seq`` landed.  It names its
        sender, so a copy landing after both parties finished is still
        acknowledged with no peer link."""
        if self.aborted:
            return
        early = self.early
        # The first copy to land is new; only the ack answering it is
        # goodput.  Every copy is acked: earlier acks may have been lost.
        first = seq >= self.expected and seq not in early
        if seq == self.expected:
            self.deliver(message, sent_seq)
            self.expected = expected = seq + 1
            while expected in early:
                self.deliver(*early.pop(expected))
                self.expected = expected = expected + 1
        elif first:
            early[seq] = (message, sent_seq)
        self.acknowledge(first, seq)
        channel, sim = self.wire.channel, self.sim
        arrival = (sim.now + serialization_ns(channel.ack_bits,
                                              channel.bandwidth)
                   + channel.latency_ns)
        on_ack = partial(sender.on_ack, seq)
        for delay in self.fate("ack", seq):
            sim.schedule(arrival + delay, on_ack)


def _launch_wire(sim: Simulator, sender: ProtocolCoroutine,
                 receiver: ProtocolCoroutine, stats: TransferStats,
                 options: SessionOptions, on_commit: Callable[[], None],
                 on_complete: Callable[[_Party, _Party], None],
                 on_abort: Callable[[], None],
                 injector: Optional[FaultInjector] = None,
                 jitter_rng: Optional[random.Random] = None) -> None:
    """Start one wire session's two parties: on the perfect link, or on
    the ARQ transport when an ``injector`` is given.  Once both
    coroutines have returned, ``on_commit()`` fires; once both parties
    finish, ``on_complete(sender, receiver)`` gets them."""
    wire = _Wire(sim, stats, options, on_commit, on_complete, on_abort,
                 injector, jitter_rng)
    party = _Party if injector is None else _ArqParty
    sender_name, receiver_name = options.party_names
    first = party(wire, sender_name, sender, True)
    second = party(wire, receiver_name, receiver, False)
    first.peer, second.peer = second, first
    # Both coroutines start at this instant, the sender first.
    sim.schedule(sim.now, first.advance)
    sim.schedule(sim.now, second.advance)


# ---------------------------------------------------------------------------
# The unified launcher.
# ---------------------------------------------------------------------------


class _Attempt:
    """One attempt of a launched session.

    A framed attempt (``batch_size > 1``) is one wire: every pair rides
    one :func:`~repro.protocols.batch.batch_party` pair, in frames of at
    most ``batch_size`` entries.  An unframed one runs its pairs as plain
    per-object wires, back to back.  The wires call back into its bound
    methods, and nothing it holds leads back to it: once its last
    callback returns, the attempt and its wires' parties and spent
    generators are freed by reference counting.  A resume is a fresh
    attempt.
    """

    __slots__ = ("sim", "handle", "injector", "jitter_rng", "start_time",
                 "single", "wires", "index", "stats", "frames",
                 "sender_results", "receiver_results")

    def __init__(self, sim: Simulator, handle: SessionHandle,
                 injector: Optional[FaultInjector],
                 jitter_rng: Optional[random.Random],
                 start_time: int) -> None:
        options = handle.options
        handle.attempts += 1
        pairs = list(options.rebuild()) if options.rebuild is not None \
            else list(options.pairs)
        if not pairs:
            raise SessionError("a session needs at least one coroutine pair")
        self.sim, self.handle, self.start_time = sim, handle, start_time
        self.injector, self.jitter_rng = injector, jitter_rng
        self.single = len(pairs) == 1 and options.batch_size == 1
        self.wires = ([[pair] for pair in pairs]
                      if options.batch_size == 1 else [pairs])
        self.sender_results: List[Any] = []
        self.receiver_results: List[Any] = []

    def start_wire(self, index: int) -> None:
        """Start wire ``index``, framed when batching."""
        options = self.handle.options
        pairs = self.wires[index]
        self.index = index
        self.stats = stats = TransferStats()
        self.frames: Optional[List[BatchFrame]] = None
        if options.batch_size == 1:
            wire_sender, wire_receiver = pairs[0]
        else:
            self.frames = frames = []
            wire_sender = batch_party(
                [s for s, _ in pairs], initiator=True,
                max_steps=options.max_steps, on_frame=frames.append,
                frame_size=options.batch_size)
            wire_receiver = batch_party(
                [r for _, r in pairs], initiator=False,
                max_steps=options.max_steps, on_frame=frames.append,
                frame_size=options.batch_size)
        _launch_wire(self.sim, wire_sender, wire_receiver, stats, options,
                     self.commit_wire, self.finish_wire, self.abort_wire,
                     self.injector, self.jitter_rng)

    def commit_wire(self) -> None:
        """Both coroutines of a wire returned; the last wire's return
        commits the attempt."""
        on_commit = self.handle.options.on_commit
        if on_commit is not None and self.index + 1 == len(self.wires):
            on_commit()

    def finish_wire(self, sender: _Party, receiver: _Party) -> None:
        """The wire completed: fold its parties in, then start the next
        wire or finish the session."""
        handle, stats, frames = self.handle, self.stats, self.frames
        if frames is None:
            self.sender_results.append(sender.result)
            self.receiver_results.append(receiver.result)
        else:
            for frame in frames:
                stats.note_frame(frame.object_count)
            self.sender_results.extend(sender.result)
            self.receiver_results.extend(receiver.result)
        handle.stats.merge(stats)
        if self.index + 1 < len(self.wires):
            self.start_wire(self.index + 1)
            return
        single = self.single
        sender_finish = to_seconds(sender.finish)
        receiver_finish = to_seconds(receiver.finish)
        handle.result = final = TimedSessionResult(
            stats=handle.stats,
            sender_result=(self.sender_results[0] if single
                           else self.sender_results),
            receiver_result=(self.receiver_results[0] if single
                             else self.receiver_results),
            completion_time=max(sender_finish, receiver_finish),
            sender_finish=sender_finish,
            receiver_finish=receiver_finish,
            start_time=to_seconds(self.start_time),
        )
        if handle.options.on_complete is not None:
            handle.options.on_complete(final)

    def abort_wire(self) -> None:
        """The wire gave up.  Its traffic was spent: fold it in
        before deciding (which may raise) to resume or abandon."""
        handle = self.handle
        options, stats = handle.options, handle.stats
        stats.merge(self.stats)
        tracer = options.tracer
        session = ({} if options.session_id is None
                   else {"session": options.session_id})
        if options.rebuild is None \
                or handle.attempts >= options.retry.max_session_attempts:
            error = SessionError(
                f"session {options.party_names[0]}->"
                f"{options.party_names[1]} aborted permanently after "
                f"{handle.attempts} attempt(s): a message exhausted its "
                f"retry budget ({options.retry.max_retries} retries) "
                + ("and no rebuild factory was provided to resume from"
                   if options.rebuild is None else
                   "and the resume budget "
                   f"({options.retry.max_session_attempts} attempts) "
                   f"is spent"))
            if options.on_abandon is None:
                raise error
            if tracer is not None:
                tracer.event(obs.CONTROL, party=options.party_names[1],
                             signal="session_abandon",
                             attempts=handle.attempts, **session)
            options.on_abandon(error, stats)
            return
        stats.resumes += 1
        if tracer is not None:
            tracer.event(obs.CONTROL, party=options.party_names[1],
                         signal="session_resume",
                         attempt=handle.attempts + 1, **session)
        _Attempt(self.sim, handle, self.injector, self.jitter_rng,
                 self.start_time).start_wire(0)


def launch(sim: Simulator, options: SessionOptions) -> SessionHandle:
    """Start one session (single, batched, or fault-tolerant) on ``sim``.

    Returns a :class:`SessionHandle` whose ``stats`` fill in as the
    hosting simulator runs; ``options.on_complete`` (and
    ``handle.result``) fire once the final attempt's parties have both
    finished.  The session's wire accounting is independent of whatever
    else the simulator hosts — concurrent sessions only share the clock.

    Under a faulted channel the reliable ARQ transport is engaged; a
    session attempt that exhausts a message's retry budget before it
    commits aborts and, when ``options.rebuild`` is available and the
    retry policy's ``max_session_attempts`` budget allows, resumes by
    rebuilding fresh coroutines (over fresh copies of the receiver, by
    the callback's contract).  A session that cannot resume raises
    :class:`~repro.errors.SessionError` out of the simulator run — unless
    ``options.on_abandon`` is set, in which case the callback is invoked
    with that error and the session's spent stats, and the simulation
    continues (the handle stays incomplete).
    """
    handle = SessionHandle(options=options)
    injector: Optional[FaultInjector] = None
    jitter_rng: Optional[random.Random] = None
    if options.use_reliable:
        base_seed = (options.channel.faults.seed
                     if options.fault_seed is None else options.fault_seed)
        injector = FaultInjector(options.channel.faults, seed=base_seed)
        jitter_rng = random.Random(base_seed * 1_000_003 + options.retry.seed)
    _Attempt(sim, handle, injector, jitter_rng, sim.now).start_wire(0)
    return handle


def run_timed(options: SessionOptions, *, trace_dispatch: bool = False,
              span_name: str = "session") -> TimedSessionResult:
    """Run one session to completion on a private simulator.

    With a tracer in ``options`` the run opens one span (``span_name``)
    and stamps every event with the private simulator's clock;
    ``trace_dispatch`` additionally traces every kernel dispatch.
    """
    tracer = options.tracer
    sim = Simulator(tracer=tracer if trace_dispatch else None)
    span = None
    if tracer is not None:
        # The channel parameters let post-hoc analysis decompose each
        # send→deliver hop exactly (latency + bits/bandwidth + fault delay).
        span = tracer.span(span_name, driver="timed", time=0.0,
                           latency=options.channel.latency,
                           bandwidth=options.channel.bandwidth)
    # Every event carries the simulated clock, dispatch-traced or not.
    with sim.stamping(tracer):
        try:
            handle = launch(sim, options)
            sim.run()
        finally:
            if span is not None:
                span.end()
    if handle.result is None:
        raise SessionError("timed session ended with unfinished parties")
    return handle.result
