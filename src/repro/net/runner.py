"""Timed protocol execution on the discrete-event simulator.

Runs the *same* protocol coroutines the instant driver runs, but interprets
their effects against a :class:`~repro.net.channel.ChannelSpec`:

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
spawns the session's processes on a shared simulator and returns a live
:class:`SessionHandle`.  :func:`run_timed` is the private-simulator
convenience (build a sim, launch, run to completion, return the result).

Reliability
-----------

When the channel carries an enabled :class:`~repro.net.faults.FaultSpec`,
the driver swaps its transport for a stop-and-wait ARQ: every protocol
message gets a per-direction sequence number and must be acknowledged
before the next one starts; acknowledgments and data both pass through
the seeded :class:`~repro.net.faults.FaultInjector` (drop/duplicate/
reorder/partition), timeouts retransmit with exponential backoff and
deterministic jitter (:class:`~repro.net.faults.RetryPolicy`), the
receiver's transport de-duplicates by sequence number, and a message
that exhausts its retry budget aborts the session attempt.  An aborted
session *resumes* — when
``SessionOptions.rebuild`` can produce fresh coroutines — by
re-handshaking from the receiver's last *committed* state.  Attempts are
transactional: the protocols stream Δ newest-first, so a torn attempt's
acked prefix is never ancestor-closed and can NOT be committed (a vector
claiming an element without its causal past halts every later sync
prematurely); the rebuild callback therefore restores the receiving
vectors to their pre-session snapshot before building the next attempt's
coroutines, and the aborted attempt's traffic is pure accounted waste.

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
from collections import deque
from dataclasses import dataclass, field
from typing import (Any, Callable, Deque, Dict, List, Optional, Sequence,
                    Tuple)

from repro.errors import SessionError, ValidationError
from repro.net.channel import ChannelSpec
from repro.net.faults import FaultInjector, RetryPolicy
from repro.net.simulator import Simulator
from repro.net.stats import DirectionStats, TransferStats
from repro.net.wire import DEFAULT_ENCODING, Encoding
from repro.obs import trace as obs
from repro.obs.trace import Tracer
from repro.protocols.batch import BatchFrame, batch_party
from repro.protocols.effects import Drain, Poll, Recv, Send
from repro.protocols.messages import Message
from repro.protocols.session import ProtocolCoroutine

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
    the session's processes were spawned.
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
        """Seconds from spawn to the last party's finish."""
        return self.completion_time - self.start_time


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
            callback owns attempt isolation — a torn attempt leaves the
            receiving vectors causally incomplete (the stream is
            newest-first), so every resume call must restore them to
            the pre-session snapshot before building the next attempt's
            coroutines (see :class:`~repro.net.cluster.ClusterRunner`).
        batch_size: objects coalesced into one framed wire session
            (:mod:`repro.protocols.batch`); 1 runs each object through
            the plain per-object path, bit-for-bit the unbatched driver.
        channel: link model, including its fault spec.
        encoding: wire pricing for every message.
        stop_and_wait: per-item implicit-ack baseline instead of
            pipelining (ignored under the reliable transport, which is
            stop-and-wait by construction).
        proc_time: per-received-message processing cost at a ``Recv``.
        max_steps: protocol-effect budget guarding against livelock bugs.
        tracer: optional structured trace sink.
        party_names: labels for the two parties in trace events (e.g.
            site names when hosted by a cluster runner).
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
            roll the receiver back to its pre-session snapshot and keep
            the fleet running; leaving it ``None`` keeps the historical
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
        if self.proc_time < 0:
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


class _Mailbox:
    """FIFO of delivered messages with a wakeup signal."""

    def __init__(self, sim: Simulator, name: str,
                 tracer: Optional[Tracer] = None,
                 session_id: Optional[int] = None) -> None:
        self._messages: Deque[Message] = deque()
        self.arrival = sim.signal(f"{name}-arrival")
        self._name = name
        self._tracer = tracer
        self._session_id = session_id

    def push(self, message: Message,
             sent_seq: Optional[int] = None) -> None:
        if self._tracer is not None:
            fields: Dict[str, Any] = {}
            if sent_seq is not None:
                # The trace seq of the MESSAGE event whose copy landed —
                # the send→deliver happens-before edge, by construction
                # acyclic (the send was emitted strictly earlier).
                fields["sent_seq"] = sent_seq
            if self._session_id is not None:
                fields["session"] = self._session_id
            self._tracer.event(obs.DELIVER, party=self._name,
                               message=message.type_name, **fields)
        self._messages.append(message)
        self.arrival.fire()

    def pop_now(self) -> Optional[Message]:
        return self._messages.popleft() if self._messages else None

    def __bool__(self) -> bool:
        return bool(self._messages)


# ---------------------------------------------------------------------------
# The historical (fault-free) wire session, byte-for-byte.
# ---------------------------------------------------------------------------


def _launch_wire(sim: Simulator, sender: ProtocolCoroutine,
                 receiver: ProtocolCoroutine, stats: TransferStats,
                 options: SessionOptions,
                 on_complete: Callable[[TimedSessionResult], None]) -> None:
    """Spawn one wire session's two processes on the perfect-link path."""
    channel, encoding, tracer = \
        options.channel, options.encoding, options.tracer
    stop_and_wait, proc_time = options.stop_and_wait, options.proc_time
    max_steps, session_id = options.max_steps, options.session_id
    if encoding.session_header_bits:
        # Per-session fixed overhead: priced, not timed (it models
        # connection state, not a serialized message — see wire.py).
        stats.forward.record("SessionHeader", encoding.session_header_bits)
    sender_name, receiver_name = options.party_names
    session_fields = {} if session_id is None else {"session": session_id}
    mailboxes = {sender_name: _Mailbox(sim, sender_name, tracer, session_id),
                 receiver_name: _Mailbox(sim, receiver_name, tracer,
                                         session_id)}
    start_time = sim.now
    finish_times: Dict[str, float] = {}
    results: Dict[str, Any] = {}
    steps = 0

    def make_process(name: str, peer: str, gen: ProtocolCoroutine,
                     forward: bool, out_stats: DirectionStats,
                     ack_stats: DirectionStats):
        def process():
            nonlocal steps
            mailbox = mailboxes[name]
            try:
                pending = next(gen)
            except StopIteration as stop:
                results[name] = stop.value
                return
            while True:
                steps += 1
                if steps > max_steps:
                    raise SessionError(
                        f"timed session exceeded {max_steps} steps")
                if isinstance(pending, Send):
                    message = pending.message
                    bits = message.bits(encoding)
                    out_stats.record(message.type_name, bits)
                    sent_seq: Optional[int] = None
                    if tracer is not None:
                        sent_seq = tracer.event(
                            obs.MESSAGE, party=name,
                            message=message.type_name, bits=bits,
                            direction=("forward" if forward
                                       else "backward"),
                            **session_fields).seq
                    yield channel.serialization_delay(bits)
                    # Delivery fires one propagation latency later; note the
                    # mailbox is captured now but pushed at arrival time.
                    sim.call_after(
                        channel.latency,
                        lambda m=message, s=sent_seq:
                            mailboxes[peer].push(m, sent_seq=s))
                    if stop_and_wait:
                        # The implicit ack crosses back only after the data
                        # message lands; record it when it *arrives* here
                        # (now + rtt + ack serialization), not when the
                        # data finished serializing — otherwise traces show
                        # the Ack before the deliver it acknowledges.
                        yield channel.stop_and_wait_overhead()
                        ack_stats.record("Ack", channel.ack_bits)
                        if tracer is not None:
                            tracer.event(obs.MESSAGE, party=peer,
                                         message="Ack", bits=channel.ack_bits,
                                         direction=("backward" if forward
                                                    else "forward"),
                                         **session_fields)
                    value: Any = None
                elif isinstance(pending, (Poll, Drain)):
                    value = mailbox.pop_now()
                elif isinstance(pending, Recv):
                    while not mailbox:
                        yield mailbox.arrival
                    if proc_time > 0:
                        yield proc_time
                    value = mailbox.pop_now()
                else:  # pragma: no cover - defensive
                    raise SessionError(f"unknown effect {pending!r} in {name}")
                try:
                    pending = gen.send(value)
                except StopIteration as stop:
                    results[name] = stop.value
                    return

        def on_exit(_value: Any) -> None:
            finish_times[name] = sim.now
            if len(finish_times) == 2:
                on_complete(TimedSessionResult(
                    stats=stats,
                    sender_result=results[sender_name],
                    receiver_result=results[receiver_name],
                    completion_time=max(finish_times.values()),
                    sender_finish=finish_times[sender_name],
                    receiver_finish=finish_times[receiver_name],
                    start_time=start_time,
                ))

        sim.spawn(process(), on_exit=on_exit)

    make_process(sender_name, receiver_name, sender, True,
                 stats.forward, stats.backward)
    make_process(receiver_name, sender_name, receiver, False,
                 stats.backward, stats.forward)


# ---------------------------------------------------------------------------
# The reliable (ARQ) wire session.
# ---------------------------------------------------------------------------


class _AckWait:
    """The sender side's one-outstanding-message acknowledgment wait."""

    __slots__ = ("seq", "acked", "signal", "timer")

    def __init__(self, seq: int) -> None:
        self.seq = seq
        self.acked = False
        self.signal = None
        self.timer = None


class _ReliableWire:
    """Transport state of one wire-session attempt over a faulty link.

    Stop-and-wait ARQ per direction: outgoing messages carry a sequence
    number, the receiving transport delivers in-order exactly once and
    acknowledges every arriving copy, and the sender retransmits on
    timeout.  All transmissions — data and acks — pass through the
    session's seeded :class:`~repro.net.faults.FaultInjector`.
    """

    def __init__(self, sim: Simulator, stats: TransferStats,
                 options: SessionOptions, injector: FaultInjector,
                 jitter_rng: random.Random) -> None:
        self.sim = sim
        self.stats = stats
        self.channel = options.channel
        self.encoding = options.encoding
        self.retry = options.retry
        self.injector = injector
        self.jitter_rng = jitter_rng
        self.tracer = tracer = options.tracer
        self.aborted = False
        session_id = options.session_id
        self.session_fields = ({} if session_id is None
                               else {"session": session_id})
        sender_name, receiver_name = self.party_names = options.party_names
        self.mailboxes = {
            sender_name: _Mailbox(sim, sender_name, tracer, session_id),
            receiver_name: _Mailbox(sim, receiver_name, tracer, session_id)}
        #: Each party's outgoing direction counters (data it serializes).
        self.out_stats: Dict[str, DirectionStats] = {
            sender_name: stats.forward, receiver_name: stats.backward}
        self.next_seq: Dict[str, int] = {sender_name: 0, receiver_name: 0}
        self.expected: Dict[str, int] = {sender_name: 0, receiver_name: 0}
        self.acked_once: Dict[str, set] = {sender_name: set(),
                                           receiver_name: set()}
        self.waits: Dict[str, Optional[_AckWait]] = {sender_name: None,
                                                     receiver_name: None}

    # -- fault plumbing -----------------------------------------------------

    def _fate(self, party: str, kind: str, seq: int) -> Tuple[float, ...]:
        fate = self.injector.fate(self.sim.now)
        if self.tracer is not None:
            if not fate:
                self.tracer.event(obs.FAULT, party=party, fault="drop",
                                  traffic=kind, seq=seq,
                                  **self.session_fields)
            else:
                if len(fate) > 1:
                    self.tracer.event(obs.FAULT, party=party,
                                      fault="duplicate", traffic=kind,
                                      seq=seq, **self.session_fields)
                if fate[0] > 0:
                    self.tracer.event(obs.FAULT, party=party,
                                      fault="reorder", traffic=kind, seq=seq,
                                      delay=fate[0], **self.session_fields)
        return fate

    # -- sender side --------------------------------------------------------

    def send_reliably(self, name: str, peer: str, message: Message):
        """Generator subroutine: transmit until acked or budget exhausted.

        Yields the usual simulator effects; returns True on ack, False
        when the session aborted (either by this message's exhausted
        budget or by the peer).
        """
        out_stats = self.out_stats[name]
        bits = message.bits(self.encoding)
        type_name = message.type_name
        seq = self.next_seq[name]
        self.next_seq[name] += 1
        wait = _AckWait(seq)
        self.waits[name] = wait
        rto = self.retry.rto_for(self.channel)
        attempt = 0
        forward = name == self.party_names[0]
        direction = "forward" if forward else "backward"
        while True:
            attempt += 1
            if attempt == 1:
                out_stats.record(type_name, bits)
            else:
                out_stats.record_retransmit(type_name, bits)
                self.stats.retries += 1
                if self.tracer is not None:
                    self.tracer.event(obs.RETRY, party=name,
                                      message=type_name, seq=seq,
                                      attempt=attempt, **self.session_fields)
            sent_seq: Optional[int] = None
            if self.tracer is not None:
                sent_seq = self.tracer.event(
                    obs.MESSAGE, party=name, message=type_name,
                    bits=bits, direction=direction,
                    seq=seq, attempt=attempt, **self.session_fields).seq
            yield self.channel.serialization_delay(bits)
            if self.aborted:
                return False
            for delay in self._fate(name, "data", seq):
                self.sim.call_after(
                    self.channel.latency + delay,
                    lambda m=message, s=seq, ss=sent_seq:
                        self._on_data(peer, name, s, m, ss))
            if wait.acked:
                # A late ack for an earlier copy landed while this copy
                # was serializing; the message is delivered.
                self.waits[name] = None
                return True
            wait.signal = self.sim.signal(f"{name}-ack-{seq}")
            timeout = rto * (1.0 + self.retry.jitter
                             * self.jitter_rng.random())
            wait.timer = self.sim.call_after(
                timeout, lambda w=wait: self._on_timeout(w))
            yield wait.signal
            if self.aborted:
                return False
            if wait.acked:
                wait.timer.cancel()
                self.waits[name] = None
                return True
            self.stats.timeouts += 1
            if self.tracer is not None:
                self.tracer.event(obs.TIMEOUT, party=name, message=type_name,
                                  seq=seq, attempt=attempt, rto=timeout,
                                  **self.session_fields)
            if attempt >= self.retry.max_retries + 1:
                self.abort(party=name, seq=seq, attempts=attempt)
                return False
            rto = self.retry.next_rto(rto)

    def _on_timeout(self, wait: _AckWait) -> None:
        if self.aborted or wait.acked:
            return
        wait.signal.fire()

    def _on_ack(self, name: str, seq: int) -> None:
        """An acknowledgment for ``name``'s message ``seq`` arrived."""
        if self.aborted:
            return
        wait = self.waits.get(name)
        if wait is not None and wait.seq == seq and not wait.acked:
            wait.acked = True
            if wait.signal is not None:
                wait.signal.fire()
        # Acks for older sequence numbers are stale duplicates; drop them.

    # -- receiver side ------------------------------------------------------

    def _on_data(self, receiver: str, sender: str, seq: int,
                 message: Message,
                 sent_seq: Optional[int] = None) -> None:
        """One copy of ``sender``'s message ``seq`` reached ``receiver``."""
        if self.aborted:
            return
        if seq == self.expected[receiver]:
            self.expected[receiver] += 1
            self.mailboxes[receiver].push(message, sent_seq=sent_seq)
        elif seq > self.expected[receiver]:  # pragma: no cover - defensive
            # Impossible under stop-and-wait (one outstanding message);
            # drop rather than corrupt ordering.
            return
        # Acknowledge every arriving copy — the transport cannot know
        # whether earlier acks survived.  Only the first ack per sequence
        # number is goodput.
        acked = self.acked_once[receiver]
        ack_stats = self.out_stats[receiver]
        if seq not in acked:
            acked.add(seq)
            ack_stats.record("Ack", self.channel.ack_bits)
        else:
            ack_stats.record_retransmit("Ack", self.channel.ack_bits)
        if self.tracer is not None:
            self.tracer.event(obs.MESSAGE, party=receiver, message="Ack",
                              bits=self.channel.ack_bits, seq=seq,
                              direction=("backward"
                                         if receiver == self.party_names[1]
                                         else "forward"),
                              **self.session_fields)
        ack_delay = (self.channel.serialization_delay(self.channel.ack_bits)
                     + self.channel.latency)
        for delay in self._fate(receiver, "ack", seq):
            self.sim.call_after(ack_delay + delay,
                                lambda s=seq: self._on_ack(sender, s))

    # -- abort --------------------------------------------------------------

    def abort(self, *, party: str, seq: int, attempts: int) -> None:
        """Give up on this attempt: wake everything so processes drain."""
        if self.aborted:
            return
        self.aborted = True
        if self.tracer is not None:
            self.tracer.event(obs.SESSION_ABORT, party=party, seq=seq,
                              attempts=attempts, **self.session_fields)
        for mailbox in self.mailboxes.values():
            mailbox.arrival.fire()
        for wait in self.waits.values():
            if wait is not None and wait.signal is not None \
                    and not wait.acked:
                wait.signal.fire()


def _launch_wire_reliable(sim: Simulator, sender: ProtocolCoroutine,
                          receiver: ProtocolCoroutine, stats: TransferStats,
                          options: SessionOptions, injector: FaultInjector,
                          jitter_rng: random.Random,
                          on_complete: Callable[[TimedSessionResult], None],
                          on_abort: Callable[[], None]) -> None:
    """Spawn one wire-session attempt on the ARQ transport."""
    header_bits = options.encoding.session_header_bits
    if header_bits:
        # Every attempt is a fresh handshake; it re-pays the header.
        stats.forward.record("SessionHeader", header_bits)
    wire = _ReliableWire(sim, stats, options, injector, jitter_rng)
    proc_time, max_steps = options.proc_time, options.max_steps
    sender_name, receiver_name = options.party_names
    start_time = sim.now
    finish_times: Dict[str, float] = {}
    results: Dict[str, Any] = {}
    steps = 0

    def make_process(name: str, peer: str, gen: ProtocolCoroutine):
        def process():
            nonlocal steps
            mailbox = wire.mailboxes[name]
            try:
                pending = next(gen)
            except StopIteration as stop:
                results[name] = stop.value
                return
            while True:
                steps += 1
                if steps > max_steps:
                    raise SessionError(
                        f"timed session exceeded {max_steps} steps")
                if wire.aborted:
                    gen.close()
                    return
                if isinstance(pending, Send):
                    delivered = yield from wire.send_reliably(
                        name, peer, pending.message)
                    if not delivered:
                        gen.close()
                        return
                    value: Any = None
                elif isinstance(pending, (Poll, Drain)):
                    value = mailbox.pop_now()
                elif isinstance(pending, Recv):
                    while not mailbox:
                        yield mailbox.arrival
                        if wire.aborted:
                            gen.close()
                            return
                    if proc_time > 0:
                        yield proc_time
                        if wire.aborted:
                            gen.close()
                            return
                    value = mailbox.pop_now()
                else:  # pragma: no cover - defensive
                    raise SessionError(f"unknown effect {pending!r} in {name}")
                try:
                    pending = gen.send(value)
                except StopIteration as stop:
                    results[name] = stop.value
                    return

        def on_exit(_value: Any) -> None:
            finish_times[name] = sim.now
            if len(finish_times) < 2:
                return
            if wire.aborted:
                on_abort()
                return
            on_complete(TimedSessionResult(
                stats=stats,
                sender_result=results[sender_name],
                receiver_result=results[receiver_name],
                completion_time=max(finish_times.values()),
                sender_finish=finish_times[sender_name],
                receiver_finish=finish_times[receiver_name],
                start_time=start_time,
            ))

        sim.spawn(process(), on_exit=on_exit)

    make_process(sender_name, receiver_name, sender)
    make_process(receiver_name, sender_name, receiver)


# ---------------------------------------------------------------------------
# The unified launcher.
# ---------------------------------------------------------------------------


class _Attempt:
    """One attempt of a launched session, its chunks run back to back.

    The wires call back into its bound methods, and nothing it holds
    leads back to it: once its last callback returns, the attempt and its
    wires' mailboxes, signals and spent generators are freed by reference
    counting.  A resume is a fresh attempt.
    """

    __slots__ = ("sim", "handle", "injector", "jitter_rng", "start_time",
                 "single", "chunks", "index", "stats", "frames",
                 "sender_results", "receiver_results")

    def __init__(self, sim: Simulator, handle: SessionHandle,
                 injector: Optional[FaultInjector],
                 jitter_rng: Optional[random.Random],
                 start_time: float) -> None:
        options = handle.options
        handle.attempts += 1
        pairs = list(options.rebuild()) if options.rebuild is not None \
            else list(options.pairs)
        if not pairs:
            raise SessionError("a session needs at least one coroutine pair")
        size = options.batch_size
        self.sim, self.handle, self.start_time = sim, handle, start_time
        self.injector, self.jitter_rng = injector, jitter_rng
        self.single = len(pairs) == 1 and size == 1
        self.chunks = [pairs[i:i + size] for i in range(0, len(pairs), size)]
        self.sender_results: List[Any] = []
        self.receiver_results: List[Any] = []

    def launch_chunk(self, index: int) -> None:
        """Spawn chunk ``index``'s wire session, framed when batching."""
        options = self.handle.options
        chunk = self.chunks[index]
        self.index = index
        self.stats = stats = TransferStats()
        self.frames: Optional[List[BatchFrame]] = None
        if options.batch_size == 1:
            wire_sender, wire_receiver = chunk[0]
        else:
            self.frames = frames = []
            wire_sender = batch_party(
                [s for s, _ in chunk], initiator=True,
                max_steps=options.max_steps, on_frame=frames.append)
            wire_receiver = batch_party(
                [r for _, r in chunk], initiator=False,
                max_steps=options.max_steps, on_frame=frames.append)
        if self.injector is None:
            _launch_wire(self.sim, wire_sender, wire_receiver, stats,
                         options, self.finish_chunk)
        else:
            _launch_wire_reliable(self.sim, wire_sender, wire_receiver,
                                  stats, options, self.injector,
                                  self.jitter_rng, self.finish_chunk,
                                  self.abort_chunk)

    def finish_chunk(self, result: TimedSessionResult) -> None:
        """The chunk's wire completed: fold it in, then run the next
        chunk or finish the session."""
        handle, stats, frames = self.handle, self.stats, self.frames
        if frames is None:
            self.sender_results.append(result.sender_result)
            self.receiver_results.append(result.receiver_result)
        else:
            for frame in frames:
                stats.note_frame(frame.object_count)
            self.sender_results.extend(result.sender_result)
            self.receiver_results.extend(result.receiver_result)
        handle.stats.merge(stats)
        if self.index + 1 < len(self.chunks):
            self.launch_chunk(self.index + 1)
            return
        single = self.single
        handle.result = final = TimedSessionResult(
            stats=handle.stats,
            sender_result=(self.sender_results[0] if single
                           else self.sender_results),
            receiver_result=(self.receiver_results[0] if single
                             else self.receiver_results),
            completion_time=result.completion_time,
            sender_finish=result.sender_finish,
            receiver_finish=result.receiver_finish,
            start_time=self.start_time,
        )
        if handle.options.on_complete is not None:
            handle.options.on_complete(final)

    def abort_chunk(self) -> None:
        """The chunk's wire gave up.  Its traffic was spent: fold it in
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
                 self.start_time).launch_chunk(0)


def launch(sim: Simulator, options: SessionOptions) -> SessionHandle:
    """Spawn one session (single, batched, or fault-tolerant) on ``sim``.

    Returns a :class:`SessionHandle` whose ``stats`` fill in as the
    hosting simulator runs; ``options.on_complete`` (and
    ``handle.result``) fire once the final attempt's parties have both
    finished.  The session's wire accounting is independent of whatever
    else the simulator hosts — concurrent sessions only share the clock.

    Under a faulted channel the reliable ARQ transport is engaged; a
    session attempt that exhausts a message's retry budget aborts and,
    when ``options.rebuild`` is available and the retry policy's
    ``max_session_attempts`` budget allows, resumes by rebuilding fresh
    coroutines from the endpoints' current state (the receiver's acked
    prefix is already applied).  A session that cannot resume raises
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
    _Attempt(sim, handle, injector, jitter_rng, sim.now).launch_chunk(0)
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
