"""The instant driver as it stood before the one effect interpreter.

Kept verbatim (the ``_Party`` dataclass, :func:`run_session` and its
slice loop) as the reference that
``tests/protocols/test_interpreter_oracle.py`` checks the
:class:`~repro.protocols.session.Party` loop against.  Delete it together
with that test once the shared loop has shipped for one release.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, List, Optional, Tuple

from repro.errors import SessionError
from repro.net.stats import TransferStats
from repro.net.wire import DEFAULT_ENCODING, Encoding
from repro.obs import trace as obs
from repro.obs.trace import Tracer
from repro.protocols.effects import Drain, Effect, Poll, Recv, Send
from repro.protocols.messages import Message
from repro.protocols.session import ProtocolCoroutine, SessionResult




@dataclass
class _Party:
    """Bookkeeping for one side of a session."""

    name: str
    gen: ProtocolCoroutine
    inbox: Deque[Message] = field(default_factory=deque)
    pending: Optional[Effect] = None
    done: bool = False
    result: Any = None

    def prime(self) -> None:
        """Advance to the first yield (or completion)."""
        try:
            self.pending = next(self.gen)
        except StopIteration as stop:
            self.done, self.result = True, stop.value

    def advance(self, value: Any) -> None:
        """Resolve the pending effect with ``value`` and run to the next one."""
        try:
            self.pending = self.gen.send(value)
        except StopIteration as stop:
            self.done, self.result = True, stop.value
            self.pending = None


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
    if tracer is not None:
        span = tracer.span(span_name, driver="instant")
        try:
            return _run_session_instant(sender, receiver, encoding=encoding,
                                        max_steps=max_steps, trace=trace,
                                        tracer=tracer)
        finally:
            span.end()
    return _run_session_instant(sender, receiver, encoding=encoding,
                                max_steps=max_steps, trace=trace, tracer=None)


def _run_session_instant(sender: ProtocolCoroutine,
                         receiver: ProtocolCoroutine, *,
                         encoding: Encoding, max_steps: int, trace: bool,
                         tracer: Optional[Tracer]) -> SessionResult:
    stats = TransferStats()
    if encoding.session_header_bits:
        stats.forward.record("SessionHeader", encoding.session_header_bits)
    transcript: Optional[List[Tuple[str, Message]]] = [] if trace else None
    party_s = _Party("sender", sender)
    party_r = _Party("receiver", receiver)
    parties = (party_s, party_r)
    party_s.prime()
    party_r.prime()
    steps = 0

    def run_slice_tail(index: int) -> None:
        """Step 2 of a slice: flush Sends, resolve Drains and hot Polls."""
        nonlocal steps
        party, peer = parties[index], parties[1 - index]
        while not party.done and steps < max_steps:
            effect = party.pending
            if isinstance(effect, Send):
                direction = stats.forward if party is party_s else stats.backward
                bits = effect.message.bits(encoding)
                direction.record(effect.message.type_name, bits)
                if tracer is not None:
                    tracer.event(
                        obs.MESSAGE, party=party.name,
                        message=effect.message.type_name, bits=bits,
                        direction=("forward" if party is party_s
                                   else "backward"))
                if transcript is not None:
                    arrow = "->" if party is party_s else "<-"
                    transcript.append((arrow, effect.message))
                peer.inbox.append(effect.message)
                party.advance(None)
            elif isinstance(effect, Drain):
                party.advance(party.inbox.popleft() if party.inbox else None)
            elif isinstance(effect, Poll) and party.inbox:
                party.advance(party.inbox.popleft())
            else:
                return  # parked on Poll-empty or Recv
            steps += 1

    run_slice_tail(0)
    run_slice_tail(1)
    turn = 0

    def pick_party() -> int:
        """Choose who runs next.

        A party with a *delivered* message ready (Recv/Poll/Drain with a
        non-empty inbox) takes priority over a party whose Poll would come
        up empty: processing delivered traffic first is what lets a control
        reply reach the sender's very next poll — the paper's idealized,
        zero-overshoot accounting.  Ties alternate.
        """
        for offset in range(2):
            index = (turn + offset) % 2
            party = parties[index]
            if (not party.done and party.inbox
                    and isinstance(party.pending, (Recv, Poll, Drain))):
                return index
        for offset in range(2):
            index = (turn + offset) % 2
            party = parties[index]
            if not party.done and isinstance(party.pending, (Poll, Drain)):
                return index
        return -1

    while steps < max_steps:
        if party_s.done and party_r.done:
            return SessionResult(stats, party_s.result, party_r.result,
                                 transcript)
        index = pick_party()
        if index < 0:
            blocked = [p.name for p in parties if not p.done]
            raise SessionError(f"session deadlocked; blocked parties: {blocked}")
        party = parties[index]
        party.advance(party.inbox.popleft() if party.inbox else None)
        steps += 1
        run_slice_tail(index)
        turn = 1 - index
    raise SessionError(f"session exceeded {max_steps} steps")
