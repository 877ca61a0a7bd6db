"""Effects yielded by protocol coroutines.

Every synchronization algorithm in this package is written once, as a pair
of plain generator functions (*sender* and *receiver*) that never touch a
socket, a queue, or a clock.  Instead they ``yield`` one of five effect
objects, and the driver resumes them with the result:

* ``yield Send(message)`` — transmit ``message`` to the peer; resumes with
  ``None``.
* ``yield Recv()`` — block until a message is available; resumes with the
  message.
* ``yield Poll()`` — check for a pending message without blocking; resumes
  with a message or a falsy "no mail" answer (``None``, or ``QUIET``
  below), so a consumer tests ``if not incoming``.  This is the paper's
  *network pipelining* primitive: a sender streams speculatively and polls
  for asynchronous control messages (HALT, SKIP, skip-to) instead of
  stopping and waiting.  Under the instant driver an empty Poll *parks*
  the party for one turn, modeling the instant of useful work between
  consecutive sends.
* ``yield Drain()`` — like Poll but never parks: it reports only what has
  *already* been delivered, immediately.  Receivers use it right before
  emitting their own ``HALT`` to notice a sender-side ``HALT`` that is
  already queued behind the data (the ``⌈b⌉`` race), without soliciting
  further traffic.
* ``yield SendAll(messages)`` — transmit ``messages`` in order, as one
  ``Send`` each with a ``Poll`` between consecutive elements; resumes with
  ``None``.  A sender yields it only after a poll answered ``QUIET``: the
  promise that no mail arrives before the sender next yields ``Recv``, so
  the polls it skips could only have come up empty.  Only the batched
  multiplexer (:mod:`repro.protocols.batch`) makes that promise — it
  demuxes incoming frames between turns, never inside one — so only it
  interprets ``SendAll``; every other driver answers an empty ``Poll``
  with ``None`` and rejects ``SendAll`` as an unknown effect.

One loop interprets the effects —
:meth:`repro.protocols.session.Party.advance` — and every driver is a
delivery policy over it: the instant policy
(:func:`repro.protocols.session.run_session`) delivers immediately and is
deterministic; the randomized policy delays deliveries arbitrarily to
exercise pipelining overshoot; the timed policy (:mod:`repro.net.runner`)
adds latency and bandwidth to measure running time.  The batched
multiplexer resolves the per-object effects inside a framed session.
Correctness of every protocol is independent of the policy — a property
the test suite checks explicitly.
"""

from __future__ import annotations

from typing import Tuple

from repro.protocols.messages import Halt, Message, WireValue, wire_value


class Effect(WireValue):
    """Base class for protocol effects."""

    __slots__ = ()


@wire_value
class Send(Effect):
    """Transmit ``message`` to the peer."""

    message: Message


@wire_value
class Recv(Effect):
    """Block until the next message from the peer arrives."""


@wire_value
class Poll(Effect):
    """Non-blocking check for a pending message; falsy (``None`` or
    :data:`QUIET`) if idle."""


@wire_value
class Drain(Effect):
    """Instantly report an already-delivered message, or ``None``; never parks."""


@wire_value
class SendAll(Effect):
    """Transmit the rest of a stream at once; only after a ``QUIET`` poll.

    ``messages`` holds one or more element messages followed by one
    closing control message (the HALT): the sends a per-element stream
    would have made, with a ``Poll`` between consecutive elements.
    """

    messages: Tuple[Message, ...]


class _Quiet:
    """The type of :data:`QUIET`."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "QUIET"


#: What a ``Poll`` resolves to when the inbox is empty *and* no mail can
#: reach the party before it next yields ``Recv``.  Falsy, like the
#: ``None`` of an ordinary empty poll, so a consumer that tests
#: ``if not incoming`` treats both alike; a sender that tests
#: ``incoming is QUIET`` may hand over the rest of its stream as one
#: :class:`SendAll`.
QUIET = _Quiet()


#: The argument-less effects carry no state, so the protocol coroutines
#: yield these shared instances instead of building one per resumption.
RECV, POLL, DRAIN = Recv(), Poll(), Drain()

#: SYNCS's HALT ends every SRV session; either party yields this one
#: instance.  It costs 1 bit: Table 2's SRV bound is
#: n·log(8mn) + n·log(2n) + 1.
SEND_HALT1 = Send(Halt(1))
