"""Batched multi-object synchronization sessions.

A site pair that replicates *k* objects pays, under per-object sessions,
k session headers and — under the stop-and-wait baseline — one ack per
message.  This module coalesces the per-object SYNCB/SYNCC/SYNCS
exchanges into a single framed conversation:

* one shared session header for the whole batch — one per attempt,
  however many frames it takes (see
  :attr:`~repro.net.wire.Encoding.session_header_bits`);
* per-object payloads multiplexed into :class:`BatchFrame` messages of at
  most ``frame_size`` entries, delimited by self-describing Elias-γ
  varints (the gap past the previous entry's session-wide object index,
  then the message count) so the frame prices itself exactly and a dense
  run of objects pays one bit per index after its first;
* one ack per *frame* under stop-and-wait, instead of one per message.

The per-object protocol coroutines run **unmodified**: :func:`batch_party`
wraps k of them into one composite coroutine that speaks frames on the
outside and ordinary ``Send``/``Poll``/``Drain``/``Recv`` effects (plus
``SendAll``, below) on the inside.  The composite is itself an ordinary
protocol coroutine, so every existing driver (instant, randomized, timed)
can run it.

Multiplexing semantics
----------------------

Each composite takes *turns*: its first turn, then one per frame it
receives.  Within a turn each object coroutine runs as far as it can:
``Send`` buffers the message into the outgoing entry, ``Poll``/``Drain``
resolve from the object's demuxed inbox, and ``Recv`` parks the object
until a frame names it.  A side's first turn runs every object; after it
every live object is parked on ``Recv``, so a later turn runs exactly the
objects its frame names, and host work stays O(entries) per frame.  The
turn's buffer leaves as ⌈entries/``frame_size``⌉ frames, back to back, so
they pipeline on the link while the peer takes a turn per frame as each
lands.  An empty ``Poll`` never ends a turn — the sender keeps streaming,
exactly the pipelining-overshoot regime of §3.1 that the protocols are
already proven robust against (the randomized-driver fuzz suite).  The
trade is explicit: batching forfeits mid-stream control feedback (a HALT
or SKIP only arrives with the next frame, so the sender streams segments
it might have skipped), and in exchange the whole batch costs one header
plus one ack per frame.  For fleets of small per-object vectors — the
many-objects regime the batching benchmarks model — the framing savings
dominate.

Because frames demux only between turns, an object's empty inbox stays
empty until it next yields ``Recv``.  The mux says so: an empty ``Poll``
resolves to :data:`~repro.protocols.effects.QUIET` (falsy, like the
``None`` an empty ``Drain`` still gets).  A SYNCS sender that hears
``QUIET`` builds the rest of its stream and the HALT in one pass and
yields one :class:`~repro.protocols.effects.SendAll`, which extends the
object's frame entry in one call instead of two coroutine resumes per
element; SYNCB and SYNCC senders take ``QUIET`` as an ordinary empty
poll.  It is charged the steps its per-message form would have taken
(one per ``Send``, one per ``Poll`` between elements), so ``max_steps``
stops the same sessions, and the frames are the ones the per-element
stream would have built.

``batch_size=1`` is, by convention of the callers
(:func:`repro.net.runner.launch`,
:class:`repro.net.cluster.ClusterRunner`), **not framed at all**: each
object runs through the plain per-object machinery, so the batched path
at size 1 is bit-for-bit the unbatched path.
"""

from __future__ import annotations

from collections import deque
from typing import (Any, Callable, Deque, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.errors import ProtocolError, SessionError
from repro.extensions.varint import elias_gamma_bits
from repro.net.wire import DEFAULT_ENCODING, Encoding
from repro.protocols.effects import (QUIET, RECV, Drain, Poll, Recv, Send,
                                     SendAll)
from repro.protocols.messages import Message, wire_value
from repro.protocols.session import (ProtocolCoroutine, SessionResult,
                                     run_session)

#: One frame entry: ``(object index, messages for that object)``.
BatchEntry = Tuple[int, Tuple[Message, ...]]


@wire_value
class BatchFrame(Message):
    """One wire frame multiplexing several objects' protocol messages.

    Entry indices are session-wide and strictly increasing within a frame;
    a frame whose indices are not has no price, and :meth:`bits` (like
    the codec) raises :class:`~repro.errors.ProtocolError`.  Pricing: each
    entry costs γ(index − prev − 1) + γ(message count) bits of framing on
    top of its payload messages' own prices, where ``prev`` is the
    previous entry's index (−1 for the first), so every entry of a dense
    run but its first pays one index bit, wherever the run sits in the
    session.  The session header is *not* part of the frame — it is
    charged once per session by the driver (see
    :attr:`~repro.net.wire.Encoding.session_header_bits`), which is
    exactly what a batch amortizes across its objects.
    """

    entries: Tuple[BatchEntry, ...]

    def bits(self, encoding: Encoding) -> int:
        """Wire size in bits (see the class docstring)."""
        total = 0
        prev = -1
        for index, messages in self.entries:
            if index <= prev:
                raise ProtocolError(
                    f"batch frame indices must strictly increase: {self!r}")
            total += (elias_gamma_bits(index - prev - 1)
                      + elias_gamma_bits(len(messages)))
            prev = index
            for message in messages:
                total += message.bits(encoding)
        return total

    @property
    def object_count(self) -> int:
        """How many objects this frame carries payload for."""
        return len(self.entries)

    @property
    def message_count(self) -> int:
        """Total multiplexed payload messages across all entries."""
        return sum(len(messages) for _, messages in self.entries)

    def __repr__(self) -> str:
        inner = ", ".join(f"{index}:{len(messages)}msg"
                          for index, messages in self.entries)
        return f"BatchFrame({inner})"


class _MuxObject:
    """One multiplexed per-object coroutine and its demux inbox."""

    __slots__ = ("index", "gen", "inbox", "pending", "done", "result")

    def __init__(self, index: int, gen: ProtocolCoroutine) -> None:
        self.index = index
        self.gen = gen
        self.inbox: Deque[Message] = deque()
        self.pending: Any = None
        self.done = False
        self.result: Any = None

    def prime(self) -> None:
        try:
            self.pending = next(self.gen)
        except StopIteration as stop:
            self.done, self.result = True, stop.value

    def run_turn(self, buffer: List[Tuple[int, List[Message]]],
                 steps: int, max_steps: int) -> int:
        """Advance until the object parks on an empty ``Recv`` or finishes.

        Sends append to ``buffer`` under this object's entry.  ``steps`` is
        the session's shared count of resolved effects so far; the new
        count is returned, and passing ``max_steps`` raises — inside the
        turn, so an object that never parks cannot spin forever.
        """
        if self.done:
            return steps
        entry: Optional[List[Message]] = None
        inbox, send = self.inbox, self.gen.send
        effect = self.pending
        try:
            while True:
                kind = effect.__class__
                if kind is Send:
                    if entry is None:
                        entry = []
                        buffer.append((self.index, entry))
                    entry.append(effect.message)
                    value = None
                elif kind is Poll:
                    # Frames demux only between turns, so an empty inbox
                    # stays empty until this object next yields Recv.
                    value = inbox.popleft() if inbox else QUIET
                elif kind is Drain:
                    value = inbox.popleft() if inbox else None
                elif kind is Recv:
                    if not inbox:
                        # Parked until the next frame demuxes.
                        self.pending = effect
                        return steps
                    value = inbox.popleft()
                elif kind is SendAll:
                    messages = effect.messages
                    if entry is None:
                        entry = []
                        buffer.append((self.index, entry))
                    entry.extend(messages)
                    # Charge the per-message form: a Send per message and a
                    # Poll between consecutive elements, 2·len − 2 steps
                    # (the shared increment below counts one of them).
                    steps += 2 * len(messages) - 3
                    value = None
                else:  # pragma: no cover - defensive
                    raise SessionError(
                        f"unknown effect {effect!r} in batched object "
                        f"{self.index}")
                steps += 1
                if steps > max_steps:
                    raise SessionError(
                        f"batched session exceeded {max_steps} steps")
                effect = send(value)
        except StopIteration as stop:
            self.done, self.result, self.pending = True, stop.value, None
        return steps


def batch_party(generators: Sequence[ProtocolCoroutine], *,
                initiator: bool,
                max_steps: int = 10_000_000,
                on_frame: Optional[Callable[[BatchFrame], None]] = None,
                frame_size: Optional[int] = None
                ) -> ProtocolCoroutine:
    """Wrap per-object coroutines into one frame-speaking composite.

    The composite returns the list of per-object coroutine results, in
    input order.  ``initiator=True`` runs its first turn immediately (the
    sender side); ``initiator=False`` waits for the first frame (the
    receiver side).  A turn's output leaves as frames of at most
    ``frame_size`` entries (``None``: one frame per turn), back to back.
    ``on_frame`` observes every outgoing frame — drivers use it to fill
    :attr:`~repro.net.stats.TransferStats.frames`.
    """
    objects = [_MuxObject(index, gen)
               for index, gen in enumerate(generators)]
    if not objects:
        raise SessionError("batch_party needs at least one object")
    for obj in objects:
        obj.prime()
    live = sum(1 for obj in objects if not obj.done)
    limit = frame_size or len(objects)
    steps = 0
    # A side's first turn runs every object; after it each live object is
    # parked on Recv, so a later turn need only run those a frame names.
    turn: Optional[List[_MuxObject]] = objects if initiator else None
    try:
        while True:
            if turn is not None:
                buffer: List[Tuple[int, List[Message]]] = []
                for obj in turn:
                    if not obj.done:
                        steps = obj.run_turn(buffer, steps, max_steps)
                        if obj.done:
                            live -= 1
                for start in range(0, len(buffer), limit):
                    frame = BatchFrame(tuple(
                        (index, tuple(messages))
                        for index, messages in buffer[start:start + limit]))
                    if on_frame is not None:
                        on_frame(frame)
                    yield Send(frame)
            if not live:
                return [obj.result for obj in objects]
            frame = yield RECV
            if not isinstance(frame, BatchFrame):  # pragma: no cover
                raise SessionError(
                    f"batch party expected a BatchFrame, got {frame!r}")
            named = []
            for index, messages in frame.entries:
                obj = objects[index]
                obj.inbox.extend(messages)
                named.append(obj)
            turn = objects if turn is None else named
    except GeneratorExit:
        # Closed mid-session (the reliable transport aborting an attempt):
        # propagate the close to every live per-object coroutine so each
        # runs its own abort handling (e.g. SYNCS segment sealing).
        for obj in objects:
            if not obj.done:
                obj.gen.close()
        raise


def run_batch(pairs: Iterable[Tuple[ProtocolCoroutine, ProtocolCoroutine]],
              *, encoding: Encoding = DEFAULT_ENCODING,
              max_steps: int = 10_000_000,
              trace: bool = False) -> SessionResult:
    """Run one framed batch under the instant driver.

    ``pairs`` holds one ``(sender, receiver)`` coroutine pair per object.
    Returns a :class:`~repro.protocols.session.SessionResult` whose
    ``sender_result``/``receiver_result`` are per-object lists and whose
    stats carry frame counters.  For the timed counterpart see
    :func:`repro.net.runner.launch`.
    """
    pair_list = list(pairs)
    frames: List[BatchFrame] = []
    sender = batch_party([s for s, _ in pair_list], initiator=True,
                         max_steps=max_steps, on_frame=frames.append)
    receiver = batch_party([r for _, r in pair_list], initiator=False,
                           max_steps=max_steps, on_frame=frames.append)
    result = run_session(sender, receiver, encoding=encoding,
                         max_steps=max_steps, trace=trace,
                         span_name="BATCH")
    for frame in frames:
        result.stats.note_frame(frame.object_count)
    return result
