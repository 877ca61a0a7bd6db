"""The one effect interpreter, and the in-process delivery policies.

:class:`Party` is the only code that resumes a protocol coroutine,
interprets its ``Send``/``Recv``/``Poll``/``Drain`` effects, counts the
session's step budget and accounts every sent message (per-type stats, the
``message`` trace event, the transcript).  A driver is a *delivery policy*
over it that decides three things: what a ``Send`` does next
(:meth:`Party.transmit`); whether a ``Recv`` that finds mail, and a ``Poll``
that finds none, park or resolve inline (``holds_mail``/``holds_poll``);
and which parked party steps next.

* :func:`run_session` — the *instant* policy: deterministic, with immediate
  delivery.  It realizes the paper's idealized accounting (a control
  message becomes visible to the sender at the earliest possible yield
  point), so measured traffic matches the analytical counts and Table 2's
  bounds can be asserted exactly.
* :func:`run_session_randomized` — a fuzzing policy that delays deliveries
  by random amounts while preserving per-direction FIFO order.  It models
  arbitrary pipelining overshoot; the property-based tests drive the same
  coroutines through it to prove correctness does not depend on timing.

The timed policy lives in :mod:`repro.net.runner`, the codec round-trip
(a ``transmit`` override) in :mod:`repro.net.codec`.

The instant *slice* rule: a woken party resolves its ``Recv`` or ``Poll``,
then keeps running while its effects are ``Send`` (delivered to the peer at
once), ``Drain``, or ``Poll`` with a delivered message, and parks at the
next ``Recv`` or empty ``Poll``.  A party with delivered mail is woken
before one whose ``Poll`` would come up empty; ties alternate.  So a
control message (HALT, SKIP, skip-to) is always queued before the peer's
next poll: SYNCB transmits exactly |Δ|+1 elements and the Figure 3 SYNCG
example exactly the missing nodes plus one overlap node per branch, with
no pipelining overshoot.  ``Poll``-on-empty parking models the one send's
worth of useful work a pipelined sender performs between checks.  The
randomized policy keeps the slice rule but sends into a per-direction
in-flight queue, and draws with ``rng.choice`` among the parties ready to
step and the directions with a message in flight.
"""

from __future__ import annotations

import random
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.errors import SessionError
from repro.net.stats import TransferStats
from repro.net.wire import DEFAULT_ENCODING, Encoding
from repro.obs import trace as obs
from repro.obs.trace import Tracer
from repro.protocols.effects import Drain, Effect, Poll, Recv, Send
from repro.protocols.messages import Message

ProtocolCoroutine = Generator[Effect, Any, Any]


@dataclass
class SessionResult:
    """Outcome of one protocol session.

    Attributes:
        stats: what crossed the wire, priced in bits.
        sender_result: the sender coroutine's return value.
        receiver_result: the receiver coroutine's return value.
        transcript: when tracing was requested, the full message sequence
            as ``("->" | "<-", message)`` pairs — ``->`` is sender→receiver.
    """

    stats: TransferStats
    sender_result: Any = None
    receiver_result: Any = None
    transcript: Optional[List[Tuple[str, Message]]] = None


#: What a parked party waits for (``Party.parked``): a ``Recv`` resumes
#: with the next message, a ``Poll`` with the next message or ``None``.
INBOX = "inbox"
POLLED = "poll"


class Wire:
    """What the two parties of one session share: its accounting and its
    step budget.  It never refers to a party.

    Opening one records the session header (a per-session fixed overhead:
    priced, not timed — it models connection state, not a serialized
    message; see :mod:`repro.net.wire`).
    """

    __slots__ = ("stats", "encoding", "tracer", "session_fields",
                 "transcript", "steps", "max_steps")

    def __init__(self, stats: TransferStats, encoding: Encoding,
                 max_steps: int, tracer: Optional[Tracer] = None,
                 session_id: Optional[int] = None,
                 transcript: Optional[List[Tuple[str, Message]]] = None
                 ) -> None:
        header_bits = encoding.session_header_bits
        if header_bits:
            stats.forward.record("SessionHeader", header_bits)
        self.stats, self.encoding, self.tracer = stats, encoding, tracer
        #: Extra fields stamped into every wire trace event.
        self.session_fields = ({} if session_id is None
                               else {"session": session_id})
        self.transcript = transcript
        self.steps, self.max_steps = 0, max_steps


class Party:
    """One side of a session: a protocol coroutine and its inbox.

    :meth:`advance` is the effect interpreter.  A subclass is a delivery
    policy: it implements :meth:`transmit`, sets ``holds_mail`` and
    ``holds_poll``, and may override :meth:`hold` (how a party parks),
    :meth:`wake` (how it resumes) and :meth:`exit`.  The defaults are the
    slice rule of the instant and randomized policies.
    """

    __slots__ = ("wire", "name", "forward", "coroutine", "out_stats", "inbox",
                 "parked", "done", "result", "holds_mail", "holds_poll")

    def __init__(self, wire: Wire, name: str, coroutine: ProtocolCoroutine,
                 forward: bool, holds_mail: bool = True,
                 holds_poll: bool = True) -> None:
        self.wire, self.name, self.forward = wire, name, forward
        self.coroutine = coroutine
        #: This party's outgoing direction.
        self.out_stats = (wire.stats.forward if forward
                          else wire.stats.backward)
        self.inbox: List[Message] = []
        self.parked: Optional[str] = None
        self.done = False
        self.result: Any = None
        #: A ``Recv`` that finds mail parks instead of taking it.
        self.holds_mail = holds_mail
        #: A ``Poll`` that finds no mail parks instead of resolving ``None``.
        self.holds_poll = holds_poll

    # -- the interpreter ----------------------------------------------------

    def advance(self, value: Any = None) -> None:
        """Send ``value`` into the coroutine and interpret its effects
        until the policy parks the party or the coroutine returns (the
        first call starts it)."""
        wire = self.wire
        send = self.coroutine.send
        inbox = self.inbox
        while True:
            try:
                effect = send(value)
            except StopIteration as stop:
                self.exit(stop.value)
                return
            wire.steps += 1
            if wire.steps > wire.max_steps:
                raise SessionError(
                    f"session exceeded {wire.max_steps} steps")
            kind = effect.__class__
            if kind is Send:
                if self.transmit(effect.message):
                    return
                value = None
            elif kind is Recv:
                if not inbox or self.holds_mail:
                    self.hold(INBOX)
                    return
                value = inbox.pop(0)
            elif kind is Poll:
                if inbox:
                    value = inbox.pop(0)
                elif self.holds_poll:
                    self.hold(POLLED)
                    return
                else:
                    value = None
            elif kind is Drain:
                value = inbox.pop(0) if inbox else None
            else:
                raise SessionError(
                    f"unknown effect {effect!r} in {self.name}")

    def account(self, message: Message, bits: int, seq: Optional[int] = None,
                attempt: int = 1) -> Optional[int]:
        """Count one copy of a message this party put on the wire: its
        direction's per-type stats (a copy after the first is a
        retransmission), the ``message`` trace event and the transcript.
        ``seq``/``attempt`` name a transport copy in the event.  Returns
        the event's trace seq, ``None`` untraced.
        """
        wire, type_name, out = self.wire, message.type_name, self.out_stats
        if attempt == 1:
            out.record(type_name, bits)
        else:
            out.record_retransmit(type_name, bits)
        if wire.transcript is not None:
            wire.transcript.append(("->" if self.forward else "<-", message))
        if wire.tracer is None:
            return None
        copy = {} if seq is None else {"seq": seq, "attempt": attempt}
        return wire.tracer.event(
            obs.MESSAGE, party=self.name, message=type_name, bits=bits,
            direction="forward" if self.forward else "backward", **copy,
            **wire.session_fields).seq

    # -- policy hooks -------------------------------------------------------

    def transmit(self, message: Message) -> bool:
        """Put ``message`` on the wire; True when the party stops stepping."""
        raise NotImplementedError

    def hold(self, parked: str) -> None:
        """Park on a ``Recv`` (``INBOX``) or an empty ``Poll`` (``POLLED``)."""
        self.parked = parked

    def wake(self) -> None:
        """Resume a parked party with its next message, or ``None``."""
        self.parked = None
        inbox = self.inbox
        self.advance(inbox.pop(0) if inbox else None)

    def exit(self, result: Any) -> None:
        """The coroutine returned ``result``."""
        self.done = True
        self.result = result


class LocalParty(Party):
    """An in-process policy: a ``Send`` goes into ``outbox`` and the party
    keeps running.  The instant policy's outbox is the peer's inbox; the
    randomized policy's is a queue of messages in flight to the peer."""

    __slots__ = ("outbox",)

    def transmit(self, message: Message) -> bool:
        """Account ``message``, append it to the outbox, keep running."""
        self.account(message, message.bits(self.wire.encoding))
        self.outbox.append(message)
        return False


def _delivered_first(parties: Tuple[LocalParty, LocalParty],
                     turn: int) -> int:
    """The instant rule: a party with a *delivered* message ready runs
    before a party whose Poll would come up empty — what lets a control
    reply reach the sender's very next poll, the paper's idealized,
    zero-overshoot accounting.  Ties alternate."""
    for offset in (0, 1):
        index = (turn + offset) % 2
        party = parties[index]
        if party.parked is not None and party.inbox:
            return index
    for offset in (0, 1):
        index = (turn + offset) % 2
        if parties[index].parked is POLLED:
            return index
    return -1


def _random_delivery(rng: random.Random, tracer: Optional[Tracer]
                     ) -> Callable[[Tuple[LocalParty, LocalParty], int], int]:
    """The randomized rule: draw among the ready parties and the
    directions with a message in flight; a drawn delivery moves the
    oldest in-flight message to its inbox, and the draw repeats."""
    def choose(parties: Tuple[LocalParty, LocalParty], turn: int) -> int:
        while True:
            actions = [("step", index)
                       for index, party in enumerate(parties)
                       if party.parked is POLLED
                       or (party.parked is not None and party.inbox)]
            actions += [("deliver", index) for index in (0, 1)
                        if parties[1 - index].outbox]
            if not actions:
                return -1
            kind, index = rng.choice(actions)
            if kind == "step":
                return index
            party = parties[index]
            message = parties[1 - index].outbox.popleft()
            if tracer is not None:
                tracer.event(obs.DELIVER, party=party.name,
                             message=message.type_name)
            party.inbox.append(message)
    return choose


def run_parties(wire: Wire, sender: LocalParty, receiver: LocalParty,
                rng: Optional[random.Random] = None) -> SessionResult:
    """Step two in-process parties to completion: start both, then wake
    whichever parked party the policy picks — the instant rule, or with an
    ``rng`` the randomized one (each party's outbox is then a queue in
    flight, not the peer's inbox).

    Raises :class:`SessionError` when no party can step.
    """
    parties = (sender, receiver)
    if rng is None:
        sender.outbox, receiver.outbox = receiver.inbox, sender.inbox
        choose = _delivered_first
    else:
        sender.outbox, receiver.outbox = deque(), deque()
        choose = _random_delivery(rng, wire.tracer)
    sender.advance()
    receiver.advance()
    turn = 0
    while not (sender.done and receiver.done):
        index = choose(parties, turn)
        if index < 0:
            blocked = [p.name for p in parties if not p.done]
            raise SessionError(
                f"{'session' if rng is None else 'randomized session'} "
                f"deadlocked; blocked parties: {blocked}")
        parties[index].wake()
        turn = 1 - index
    return SessionResult(wire.stats, sender.result, receiver.result,
                         wire.transcript)


def run_session(sender: ProtocolCoroutine, receiver: ProtocolCoroutine, *,
                encoding: Encoding = DEFAULT_ENCODING,
                max_steps: int = 10_000_000,
                trace: bool = False,
                tracer: Optional[Tracer] = None,
                span_name: str = "session") -> SessionResult:
    """Run a session deterministically with immediate delivery.

    See the module docstring for the slice semantics.  Raises
    :class:`SessionError` on deadlock or when ``max_steps`` is exceeded
    (which indicates a protocol bug, not a workload property).  With
    ``trace=True`` the result carries the full message transcript — handy
    for debugging protocols and for documentation examples.  With a
    ``tracer`` the driver opens one span (``span_name``) and emits a
    priced ``message`` event per send; pass the same tracer to the
    protocol coroutines to interleave their semantic events.
    """
    wire = Wire(TransferStats(), encoding, max_steps, tracer,
                transcript=[] if trace else None)
    with (nullcontext() if tracer is None
          else tracer.span(span_name, driver="instant")):
        return run_parties(wire, LocalParty(wire, "sender", sender, True),
                           LocalParty(wire, "receiver", receiver, False))


def run_session_randomized(sender: ProtocolCoroutine,
                           receiver: ProtocolCoroutine, *,
                           rng: random.Random,
                           encoding: Encoding = DEFAULT_ENCODING,
                           max_steps: int = 10_000_000,
                           tracer: Optional[Tracer] = None,
                           span_name: str = "session") -> SessionResult:
    """Run a session under adversarial (random) delivery delays.

    Sent messages enter an in-flight queue and are delivered at random later
    points, preserving FIFO order per direction.  ``Poll`` and ``Drain`` see
    only delivered messages, so the sender can overshoot arbitrarily —
    exactly the pipelining regime the paper's algorithms must survive.
    With a ``tracer``, sends become ``message`` events and delayed arrivals
    ``deliver`` events; an identical seed replays an identical sequence.
    """
    wire = Wire(TransferStats(), encoding, max_steps, tracer)
    with (nullcontext() if tracer is None
          else tracer.span(span_name, driver="randomized")):
        return run_parties(wire, LocalParty(wire, "sender", sender, True),
                           LocalParty(wire, "receiver", receiver, False),
                           rng)
