"""Regression micro-benchmarks for the fast paths.

Every optimized path in this repo keeps an oracle next to it so property
tests can compare *results*: the segment-partition cache has
``segments_uncached``, the CRG Π/segment memos have uncached walks, the
array vector backend has the linked backend, and the one-pass stream
codec has the bit-by-bit codec.  This module compares their **cost**:
on workloads where the fast path is supposed to pay, it must beat its
oracle by at least the cell's floor.  CI runs
``python -m repro.perf.microbench`` and fails the build if any cell
falls below its floor — the cheap tripwire for "someone broke the
optimization and everything silently fell back to the slow path".

Each cell measures two ratios, oracle over fast.  The **call ratio**
counts the Python and C function calls one run of each side makes
(:func:`call_count`, through ``sys.setprofile``): deterministic, so a
floor on it never flakes on a loaded host.  The **speedup** is wall time,
each side's best of several rounds with fast and oracle interleaved, so
a slow stretch of host time cannot land on one side only.  A cell whose
fast path wins by making fewer calls gates on the call ratio
(``min_call_ratio``, set about 10 % under the ratio CPython 3.11
measured); the speedup is printed beside it.  Two cells win per call
rather than by calls and keep a wall floor (``min_speedup``):
``messages.element_build`` (2×; tuple-backed wire values against the
dict-backed dataclass they were, the same number of calls) and
``stats.session_accounting`` (1.8×; plain-dict message histograms
against Counter-backed twins).

The E4/E11 cells gate the headline pipelines: E4 ships one SRV's whole
element walk (parse + messages + wire) and E11 round-trips the 8×32
chaos fleet's batched frame.  The two ``sync.*`` cells gate the
array-level protocol path — a sender's ``rows()`` walk (message
construction included on both sides) and a receiver's ``place_after``
against the per-element view idiom they replaced.  ``batch.quiet_turn``
gates a batched SYNCS sender's turn: the mux's ``QUIET`` poll answer and
one ``SendAll`` against the per-element stream (two coroutine resumes
per element) that every other policy runs.  The workloads are
deterministic (fixed seeds, fixed sizes).
"""

from __future__ import annotations

import random
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.core.arrayorder import Row
from repro.core.arrayvec import ArraySkipRotatingVector
from repro.core.skip import SkipRotatingVector
from repro.extensions.varint import AdaptiveEncoding
from repro.graphs.crg import coalesce
from repro.graphs.replicationgraph import ReplicationGraph
from repro.net.codec import BitByBitReader, BitByBitWriter, Codec
from repro.net.stats import DirectionStats, TransferStats
from repro.net.wire import DEFAULT_ENCODING
from repro.protocols.batch import BatchFrame, batch_party
from repro.protocols.effects import Send
from repro.protocols.messages import ElementSMsg, Halt, Message
from repro.protocols.session import Party, Wire
from repro.protocols.syncs import syncs_sender
from repro.replication.membership import SiteRegistry

#: Timing rounds; each result keeps the fastest (least-noise) round.
ROUNDS = 5


@dataclass(frozen=True)
class MicrobenchResult:
    """One fast-path-vs-oracle comparison.

    With ``min_call_ratio`` set the cell gates on its call ratio;
    otherwise ``min_speedup`` is its floor: 1.0 (the default) just
    demands "never slower than the oracle".
    """

    name: str
    cached_seconds: float
    uncached_seconds: float
    min_speedup: float = 1.0
    cached_calls: int = 0
    uncached_calls: int = 0
    min_call_ratio: Optional[float] = None

    @property
    def speedup(self) -> float:
        """Oracle time over fast-path time (> 1 means the fast path pays)."""
        return (self.uncached_seconds / self.cached_seconds
                if self.cached_seconds else float("inf"))

    @property
    def call_ratio(self) -> float:
        """Oracle calls over fast-path calls."""
        return (self.uncached_calls / self.cached_calls
                if self.cached_calls else float("inf"))

    @property
    def regressed(self) -> bool:
        """True when the fast path fell below its floor."""
        if self.min_call_ratio is not None:
            return self.call_ratio < self.min_call_ratio
        return self.speedup < self.min_speedup


def _best_pair(fast: Callable[[], None], oracle: Callable[[], None],
               rounds: int = ROUNDS) -> Tuple[float, float]:
    """Each side's fastest round, the rounds interleaved: a slow stretch
    of host time lands on both sides, not on whichever ran through it."""
    best = [float("inf"), float("inf")]
    for _ in range(rounds):
        for side, fn in enumerate((fast, oracle)):
            start = time.perf_counter()
            fn()
            best[side] = min(best[side], time.perf_counter() - start)
    return best[0], best[1]


def call_count(fn: Callable[[], None]) -> int:
    """The Python and C function calls one run of ``fn`` makes."""
    calls = 0

    def profile(frame: object, event: str, arg: object) -> None:
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def _measure(name: str, fast: Callable[[], None],
             oracle: Callable[[], None], **floor: float) -> MicrobenchResult:
    """Time both sides, then count one (warm) run of each."""
    timings = _best_pair(fast, oracle)
    return MicrobenchResult(name, *timings, cached_calls=call_count(fast),
                            uncached_calls=call_count(oracle), **floor)


def bench_srv_segments(*, n_segments: int = 150, segment_len: int = 3,
                       repeats: int = 100) -> MicrobenchResult:
    """Repeated segment parses of one large SRV: cache vs full walk.

    The cached path re-parses only when the element order's version
    moves; ``repeats`` reads of an unchanged vector should cost one walk,
    not ``repeats``.
    """
    sites = iter(f"S{i:04d}" for i in range(n_segments * segment_len))
    vector = SkipRotatingVector.from_segments(
        [[(next(sites), 1) for _ in range(segment_len)]
         for _ in range(n_segments)])

    def cached() -> None:
        for _ in range(repeats):
            vector.segments()

    def uncached() -> None:
        for _ in range(repeats):
            vector.segments_uncached()

    # Warm the partition cache outside the timed region: steady-state
    # read cost is what regressions would change.
    vector.segments()
    return _measure("srv.segments", cached, uncached, min_call_ratio=230.0)


def _grown_crg(steps: int, seed: int):
    """A coalesced graph over a deterministic random update/merge history."""
    rng = random.Random(seed)
    graph = ReplicationGraph()
    counter = {"A": 1}
    frontier = [graph.add_initial([("A", 1)]).node_id]
    sites = ["A", "B", "C", "D", "E"]
    for _ in range(steps):
        site = rng.choice(sites)
        counter[site] = counter.get(site, 0) + 1
        vector = sorted(counter.items())
        if len(frontier) >= 2 and rng.random() < 0.25:
            left, right = rng.sample(frontier, 2)
            node = graph.add_merge(left, right, vector)
            frontier = [f for f in frontier
                        if f not in (left, right)] + [node.node_id]
        else:
            parent = rng.choice(frontier)
            node = graph.add_update(parent, vector)
            if rng.random() < 0.5:
                frontier.remove(parent)
            frontier.append(node.node_id)
    return coalesce(graph)


def bench_crg_pi_sweep(*, steps: int = 400, seed: int = 7
                       ) -> MicrobenchResult:
    """Π of every node: memoized sweep vs per-node ancestor walks.

    The memo shares ancestors' Π sets, making a whole-graph sweep linear
    in arcs; the oracle re-walks the ancestry per node.  A fresh graph is
    built per timing round so every cached round starts memo-cold.
    """
    node_ids = [node.node_id for node in _grown_crg(steps, seed).nodes()]

    def cached() -> None:
        crg = _grown_crg(steps, seed)
        for node_id in node_ids:
            crg.pi_set(node_id)

    def uncached() -> None:
        crg = _grown_crg(steps, seed)
        for node_id in node_ids:
            crg.pi_set_uncached(node_id)

    return _measure("crg.pi_sweep", cached, uncached, min_call_ratio=8.5)


def _srv_segment_spec(n_segments: int, segment_len: int
                      ) -> List[List[Tuple[str, int]]]:
    """Deterministic segment layout shared by the backend-vs-backend cells."""
    rng = random.Random(4)
    sites = iter(f"S{i:04d}" for i in range(n_segments * segment_len))
    return [[(next(sites), rng.randrange(1, 200))
             for _ in range(segment_len)]
            for _ in range(n_segments)]


def bench_vector_copy(*, n_segments: int = 300, segment_len: int = 3,
                      repeats: int = 50) -> MicrobenchResult:
    """Deep-copying a large SRV: array backend vs the linked oracle.

    ``copy`` dominates session snapshots (resumable sessions snapshot the
    receiver before every sync); the array backend copies six flat lists
    instead of relinking ~1000 nodes.
    """
    spec = _srv_segment_spec(n_segments, segment_len)
    array_vec = ArraySkipRotatingVector.from_segments(spec)
    linked_vec = SkipRotatingVector.from_segments(spec)

    def fast() -> None:
        for _ in range(repeats):
            array_vec.copy()

    def oracle() -> None:
        for _ in range(repeats):
            linked_vec.copy()

    return _measure("vector.copy", fast, oracle, min_call_ratio=54.0)


def bench_vector_rotate(*, n_segments: int = 300, segment_len: int = 3,
                        rotations: int = 2000, repeats: int = 10
                        ) -> MicrobenchResult:
    """Batched ROTATE replay: array backend vs the linked oracle.

    Both backends splice in O(1) per rotation, so this is a *parity*
    guard: the floor only fails the build if the array backend's pointer
    surgery grows back toward the linked list's calls.
    """
    spec = _srv_segment_spec(n_segments, segment_len)
    array_vec = ArraySkipRotatingVector.from_segments(spec)
    linked_vec = SkipRotatingVector.from_segments(spec)
    rng = random.Random(5)
    names = [site for segment in spec for site, _ in segment]
    sites = [rng.choice(names) for _ in range(rotations)]

    def fast() -> None:
        for _ in range(repeats):
            array_vec.rotate_many(sites)

    def oracle() -> None:
        for _ in range(repeats):
            linked_vec.rotate_many(sites)

    return _measure("vector.rotate", fast, oracle, min_call_ratio=1.8)


def _pipeline_fixture(n_segments: int, segment_len: int):
    """Vectors, registry, and codecs for the E4/E11 pipeline cells.

    Returns ``(array_vec, linked_vec, fast_codec, slow_codec)`` where the
    slow codec runs the same wire format through the one-bit-at-a-time
    reference writer/reader — the honest pre-optimization baseline.
    """
    spec = _srv_segment_spec(n_segments, segment_len)
    array_vec = ArraySkipRotatingVector.from_segments(spec)
    linked_vec = SkipRotatingVector.from_segments(spec)
    n_sites = n_segments * segment_len
    encoding = AdaptiveEncoding.for_system(n_sites, 4096)
    registry = SiteRegistry(site for segment in spec for site, _ in segment)
    fast_codec = Codec(encoding, registry)
    slow_codec = Codec(encoding, registry,
                       bit_io=(BitByBitWriter, BitByBitReader))
    return array_vec, linked_vec, fast_codec, slow_codec


def bench_e4_segment_stream(*, n_segments: int = 333, segment_len: int = 3,
                            repeats: int = 3) -> MicrobenchResult:
    """E4's wire hop: a whole element walk over the wire and back.

    Fast: ``encode_elements``/``decode_elements`` streaming ~1000 SRV
    elements plus HALT in one pass.  Oracle: per-message bit-by-bit
    encode/decode — the shape of the code before the stream fast path
    existed, when every message paid its own writer, reader, and
    byte-assembly.  This is the gate on the E4 microcell.  (Parse
    cost is gated separately by ``srv.segments``; message construction
    is identical on both sides and so is excluded.)
    """
    array_vec, _, fast_codec, slow_codec = _pipeline_fixture(
        n_segments, segment_len)
    channel = "srv_fwd"
    messages = [ElementSMsg(site, value, conflict, segment)
                for site, value, conflict, segment
                in array_vec.order.as_tuples()]
    messages.append(Halt(1))

    def fast() -> None:
        for _ in range(repeats):
            data, nbits = fast_codec.encode_elements(messages, channel)
            fast_codec.decode_elements(data, nbits, channel)

    def oracle() -> None:
        for _ in range(repeats):
            for message in messages:
                data, nbits = slow_codec.encode(message, channel)
                slow_codec.decode(data, nbits, channel)

    return _measure("e4.segment_stream", fast, oracle,
                    min_call_ratio=9.0)


def bench_e11_batch_frame(*, n_objects: int = 32, msgs_per_object: int = 5,
                          repeats: int = 30) -> MicrobenchResult:
    """E11's batched frame round-trip: one-pass codec vs per-message bits.

    The frame carries all 32 objects of one 8×32 chaos-fleet session in
    one frame, each contributing a handful of SRV elements plus HALT.
    Fast: ``encode_batch``/``decode_batch`` in a single stream pass.
    Oracle: bit-by-bit γ headers per entry plus a per-message bit-by-bit
    round-trip — how frames were priced-and-shipped before batch frames
    had a wire path.  This is the gate on the E11 microcell.
    """
    array_vec, _, fast_codec, slow_codec = _pipeline_fixture(40, 4)
    channel = "srv_fwd"
    rows = array_vec.order.as_tuples()
    rng = random.Random(6)
    entries = []
    for index in range(n_objects):
        picks = rng.sample(rows, msgs_per_object)
        payload = [ElementSMsg(site, value, conflict, segment)
                   for site, value, conflict, segment in picks]
        payload.append(Halt(1))
        entries.append((index, tuple(payload)))
    frame = BatchFrame(tuple(entries))

    def fast() -> None:
        for _ in range(repeats):
            data, nbits = fast_codec.encode_batch(frame, channel)
            fast_codec.decode_batch(data, nbits, channel)

    def oracle() -> None:
        for _ in range(repeats):
            prev = -1
            for index, messages in frame.entries:
                headers = BitByBitWriter()
                headers.write_gamma(index - prev - 1)
                prev = index
                headers.write_gamma(len(messages))
                header_bytes = headers.getvalue()
                header_reader = BitByBitReader(header_bytes,
                                               headers.bit_length)
                header_reader.read_gamma()
                header_reader.read_gamma()
                for message in messages:
                    data, nbits = slow_codec.encode(message, channel)
                    slow_codec.decode(data, nbits, channel)

    return _measure("e11.batch_frame", fast, oracle, min_call_ratio=7.9)


def bench_sync_stream_rows(*, n_segments: int = 250, segment_len: int = 4,
                           repeats: int = 10) -> MicrobenchResult:
    """A SYNCS sender's walk of a whole 1,000-element SRV, messages built.

    Fast: the ``rows()`` walk the senders stream.  Oracle: the same
    vector hopped view by view (``first()``, four field properties,
    ``.next``) — the idiom the protocols ran on before, views already
    cached.  Message construction is on both sides, as it is in a
    session, so the floor is what the walk alone buys end to end.
    """
    vector = ArraySkipRotatingVector.from_segments(
        _srv_segment_spec(n_segments, segment_len))

    def fast() -> None:
        for _ in range(repeats):
            for site, value, conflict, segment in vector.order.rows():
                ElementSMsg(site, value, conflict, segment)

    def oracle() -> None:
        for _ in range(repeats):
            element = vector.first()
            while element is not None:
                ElementSMsg(element.site, element.value, element.conflict,
                            element.segment)
                element = element.next

    return _measure("sync.stream_rows", fast, oracle, min_call_ratio=2.7)


def bench_sync_place_after(*, n_segments: int = 250, segment_len: int = 4,
                           repeats: int = 10) -> MicrobenchResult:
    """A reconciling SYNCS receive of 1,000 elements, all of them news.

    The receiver holds the same sites in another order with older
    values, so every element is re-anchored behind the previous one and
    tagged.  Fast: one ``place_after`` per element.  Oracle:
    ``rotate_after`` plus three writes through the returned view.  Each
    repeat starts from a fresh copy of the receiver on both sides.
    """
    spec = _srv_segment_spec(n_segments, segment_len)
    rows = ArraySkipRotatingVector.from_segments(
        [[(site, value + 1) for site, value in segment] for segment in spec]
    ).order.as_tuples()
    stale = [pair for segment in spec for pair in segment]
    random.Random(8).shuffle(stale)
    receiver = ArraySkipRotatingVector.from_pairs(stale)

    def fast() -> None:
        for _ in range(repeats):
            order, prev = receiver.order.copy(), None
            for site, value, _, segment in rows:
                order.place_after(prev, site, value, True, segment)
                prev = site

    def oracle() -> None:
        for _ in range(repeats):
            order, prev = receiver.order.copy(), None
            for site, value, _, segment in rows:
                element = order.rotate_after(prev, site)
                element.value = value
                element.conflict = True
                element.segment = segment
                prev = site

    return _measure("sync.place_after", fast, oracle, min_call_ratio=2.0)


@dataclass(frozen=True)
class _DataclassElementSMsg:
    """The dict-backed frozen dataclass ElementSMsg was: the oracle."""

    site: str
    value: int
    conflict: bool
    segment: bool


@dataclass(frozen=True)
class _DataclassSend:
    """The dict-backed frozen dataclass Send was: the oracle."""

    message: _DataclassElementSMsg


def build_element_sends(rows: List[Row]) -> List[Send]:
    """``Send(ElementSMsg)`` per row, built as the SYNCS sender builds it."""
    return [tuple.__new__(Send, (tuple.__new__(ElementSMsg, row),))
            for row in rows]


def build_element_sends_oracle(rows: List[Row]) -> List[_DataclassSend]:
    """The same sends through the dataclass twins' ``__init__``."""
    return [_DataclassSend(_DataclassElementSMsg(site, value, conflict,
                                                 segment))
            for site, value, conflict, segment in rows]


def bench_messages_element_build(*, n_segments: int = 250,
                                 segment_len: int = 4, repeats: int = 10
                                 ) -> MicrobenchResult:
    """Building 1,000 ``Send(ElementSMsg)`` effects from SRV rows.

    Fast: the wire values built from each row in one C call apiece, as
    the SYNCS sender does.  Oracle: a plain ``@dataclass(frozen=True)``
    twin with the same fields — an instance dict and one
    ``object.__setattr__`` per field, the representation messages had
    before.  The 2× floor guards against a dict-backed wire value coming
    back.
    """
    rows = ArraySkipRotatingVector.from_segments(
        _srv_segment_spec(n_segments, segment_len)).order.as_tuples()

    def fast() -> None:
        for _ in range(repeats):
            build_element_sends(rows)

    def oracle() -> None:
        for _ in range(repeats):
            build_element_sends_oracle(rows)

    return _measure("messages.element_build", fast, oracle,
                    min_speedup=2.0)


@dataclass
class _CounterDirectionStats(DirectionStats):
    """:class:`~repro.net.stats.DirectionStats` with the
    :class:`~collections.Counter` histogram it had: the oracle."""

    by_type: Counter = field(default_factory=Counter)

    def record(self, type_name: str, bits: int) -> None:
        self.bits += bits
        self.messages += 1
        self.by_type[type_name] += 1

    def merge(self, other: DirectionStats) -> None:
        self.bits += other.bits
        self.messages += other.messages
        self.by_type.update(other.by_type)
        self.retransmitted_bits += other.retransmitted_bits
        self.retransmitted_messages += other.retransmitted_messages


@dataclass
class _CounterTransferStats(TransferStats):
    """:class:`~repro.net.stats.TransferStats` over the Counter twins."""

    forward: DirectionStats = field(default_factory=_CounterDirectionStats)
    backward: DirectionStats = field(default_factory=_CounterDirectionStats)


#: One lossy-fleet session's messages as ``(forward?, type, bits)``: the
#: sender's HALT, the ARQ's ack of it.
_SESSION_MESSAGES = ((True, "Halt", 1), (False, "Ack", 1))


def account_sessions(stats_cls: type, sessions: int) -> TransferStats:
    """``sessions`` sessions' accounting into one run total, as a cluster
    does it: a chunk's stats take each message, merge into the session
    handle's stats, and those merge into the total."""
    totals = stats_cls()
    for _ in range(sessions):
        chunk, handle = stats_cls(), stats_cls()
        for forward, type_name, bits in _SESSION_MESSAGES:
            (chunk.forward if forward else chunk.backward).record(
                type_name, bits)
        handle.merge(chunk)
        totals.merge(handle)
    return totals


def bench_stats_session_accounting(*, sessions: int = 2_000,
                                   repeats: int = 5) -> MicrobenchResult:
    """Per-session :class:`~repro.net.stats.TransferStats` work of an
    empty lossy-fleet session: two stats built, two records, two merges.

    Fast: the plain-dict ``by_type`` histograms.  Oracle: Counter-backed
    twins, the representation before — a ``Counter()`` per direction per
    stats object and ``Counter.update`` per merge.  The 1.8× floor guards
    against a Counter coming back.
    """
    def fast() -> None:
        for _ in range(repeats):
            account_sessions(TransferStats, sessions)

    def oracle() -> None:
        for _ in range(repeats):
            account_sessions(_CounterTransferStats, sessions)

    return _measure("stats.session_accounting", fast, oracle,
                    min_speedup=1.8)


class _CollectingParty(Party):
    """A party whose ``Send`` only collects the message and whose empty
    ``Poll`` resolves ``None``: the per-element stream through the one
    effect interpreter, without wire accounting."""

    __slots__ = ("sent",)

    def transmit(self, message: Message) -> bool:
        self.sent.append(message)
        return False


def quiet_turn(vector: ArraySkipRotatingVector) -> Tuple[Message, ...]:
    """One mux turn of a SYNCS sender over ``vector``: its frame entry."""
    send = next(batch_party([syncs_sender(vector)], initiator=True))
    return send.message.entries[0][1]


def per_element_turn(vector: ArraySkipRotatingVector) -> List[Message]:
    """The same sender with every ``Poll`` answered ``None``: its sends."""
    wire = Wire(TransferStats(), DEFAULT_ENCODING, max_steps=10_000_000)
    party = _CollectingParty(wire, "sender", syncs_sender(vector), True,
                             holds_poll=False)
    party.sent = []
    party.advance()
    return party.sent


def bench_batch_quiet_turn(*, n_segments: int = 250, segment_len: int = 4,
                           repeats: int = 10) -> MicrobenchResult:
    """A batched SYNCS sender's whole turn over a 1,000-element SRV.

    Fast: one mux turn, where the first ``Poll`` answers ``QUIET`` and
    the sender hands its stream and HALT over as one ``SendAll``.
    Oracle: the same sender stepped by ``Party.advance`` with every
    ``Poll`` answered ``None`` — a ``Poll`` and a ``Send`` resume per
    element.  Both build the same messages.  The floor guards against
    the burst silently falling back to per-element streaming.
    """
    vector = ArraySkipRotatingVector.from_segments(
        _srv_segment_spec(n_segments, segment_len))

    def fast() -> None:
        for _ in range(repeats):
            quiet_turn(vector)

    def oracle() -> None:
        for _ in range(repeats):
            per_element_turn(vector)

    return _measure("batch.quiet_turn", fast, oracle, min_call_ratio=7.9)


def run_microbench() -> List[MicrobenchResult]:
    """All fast-path-vs-oracle probes, in a stable order."""
    return [bench_srv_segments(), bench_crg_pi_sweep(),
            bench_vector_copy(), bench_vector_rotate(),
            bench_e4_segment_stream(), bench_e11_batch_frame(),
            bench_sync_stream_rows(), bench_sync_place_after(),
            bench_messages_element_build(),
            bench_stats_session_accounting(), bench_batch_quiet_turn()]


def format_results(results: List[MicrobenchResult]) -> str:
    """Render the probe measurements as an aligned table with verdicts;
    the floor column names the ratio it gates (calls or wall)."""
    header = (f"{'probe':24} {'fast ms':>9} {'oracle ms':>9} "
              f"{'speedup':>8} {'fast calls':>10} {'oracle calls':>12} "
              f"{'calls':>7} {'floor':>12} {'status':>8}")
    lines = [header, "-" * len(header)]
    for result in results:
        if result.min_call_ratio is not None:
            floor = f"{result.min_call_ratio:.1f}x calls"
        else:
            floor = f"{result.min_speedup:.1f}x wall"
        lines.append(
            f"{result.name:24} {result.cached_seconds * 1000:>9.2f} "
            f"{result.uncached_seconds * 1000:>9.2f} "
            f"{result.speedup:>7.1f}x "
            f"{result.cached_calls:>10} {result.uncached_calls:>12} "
            f"{result.call_ratio:>6.1f}x {floor:>12} "
            f"{'REGRESS' if result.regressed else 'ok':>8}")
    return "\n".join(lines)


def main(argv: List[str] | None = None) -> int:
    """``python -m repro.perf.microbench`` — exit 1 below any floor."""
    results = run_microbench()
    print(format_results(results))
    regressed = [r.name for r in results if r.regressed]
    if regressed:
        print(f"\nfast path below its floor: "
              f"{', '.join(regressed)} — an optimization regression")
        return 1
    print("\nall fast paths clear their floors")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
