"""Golden wire traces: the timed driver's event stream, pinned by digest.

Each case runs one session through :func:`repro.net.runner.run_timed`
with kernel dispatch tracing on, and hashes every trace event — its
sequence number, kind, span, simulated time, party, message, bits and
fields, including each ``sim_dispatch`` event's ``pending`` queue
length.  The digests were taken from the generator-process driver,
except ``batched`` and ``chunked``, re-taken when a framed session became
one wire with gap-coded frame indices (``chunked``'s four objects at
batch 3 now ride one wire as frames of 3 and 1 entries), and the abort
and resume cases, re-taken when an abort after the commit point began to
complete its attempt instead of tearing it.  A transport
rewrite that moves, merges, adds or drops one kernel event,
draws one fault or jitter number in another order, or stamps one float
differently fails its case.
"""

import hashlib
import random

import pytest

from repro.core.skip import SkipRotatingVector
from repro.errors import SessionError
from repro.net.channel import ChannelSpec
from repro.net.faults import FaultSpec, RetryPolicy
from repro.net.runner import SessionOptions, run_timed
from repro.net.wire import Encoding
from repro.obs import Tracer
from repro.protocols.effects import DRAIN, POLL, RECV, Send
from repro.protocols.messages import Halt
from repro.protocols.syncs import syncs_receiver, syncs_sender
from tests.helpers import scripted

ENC = Encoding(site_bits=8, value_bits=16, session_header_bits=64)
SITES = ("A", "B", "C", "D", "E")
#: Slow enough that a pipelined sender overshoots by several elements.
PERFECT = ChannelSpec(latency=0.01, bandwidth=2e4)


def states(n_objects, seed):
    """Per-object divergent SRV pairs ``(a, b)``; ``a`` receives."""
    rng = random.Random(seed)
    out = []
    for _ in range(n_objects):
        a = SkipRotatingVector.from_pairs([("A", 1)])
        b = a.copy()
        for _ in range(rng.randint(0, 3)):
            a.record_update(rng.choice(SITES))
        for _ in range(rng.randint(12, 24)):
            b.record_update(rng.choice(SITES))
        out.append((a, b))
    return out


def pairs(pairs_of_states, tracer):
    return tuple(
        (syncs_sender(b, tracer=tracer),
         syncs_receiver(a, reconcile=a.compare(b).is_concurrent,
                        tracer=tracer))
        for a, b in pairs_of_states)


def short():
    return Send(Halt(1))


def long():
    """Two seconds of serialization on these 20 kbit/s links."""
    return Send(Halt(40_000))


def digest(tracer):
    h = hashlib.sha256()
    for event in tracer.events:
        h.update(repr((event.seq, event.kind, event.span_id, event.time,
                       event.party, event.message, event.bits,
                       sorted(event.fields.items()))).encode())
    return h.hexdigest()


def lossy(seed, **faults):
    return ChannelSpec(latency=0.01, bandwidth=2e4,
                       faults=FaultSpec(seed=seed, **faults))


def pipelined(tracer):
    return SessionOptions(pairs=pairs(states(1, 1), tracer),
                          channel=PERFECT, encoding=ENC, tracer=tracer,
                          session_id=7, party_names=("S001", "S002"))


def stop_and_wait(tracer):
    return SessionOptions(pairs=pairs(states(1, 2), tracer),
                          channel=PERFECT, encoding=ENC, tracer=tracer,
                          stop_and_wait=True)


def proc_time(tracer):
    return SessionOptions(pairs=pairs(states(1, 3), tracer),
                          channel=PERFECT, encoding=ENC, tracer=tracer,
                          proc_time=0.0007)


def batched(tracer):
    return SessionOptions(pairs=pairs(states(4, 4), tracer), batch_size=4,
                          channel=PERFECT, encoding=ENC, tracer=tracer)


def chunked(tracer):
    return SessionOptions(pairs=pairs(states(4, 5), tracer), batch_size=3,
                          channel=PERFECT, encoding=ENC, tracer=tracer,
                          stop_and_wait=True)


def arq_drop(tracer):
    return SessionOptions(pairs=pairs(states(1, 6), tracer),
                          channel=lossy(2, drop=0.3), encoding=ENC,
                          tracer=tracer, session_id=3)


def arq_duplicate_reorder(tracer):
    return SessionOptions(
        pairs=pairs(states(1, 7), tracer),
        channel=lossy(9, duplicate=0.4, reorder=0.4, reorder_window=0.05),
        encoding=ENC, tracer=tracer, proc_time=0.0005)


def arq_partition(tracer):
    return SessionOptions(
        pairs=pairs(states(1, 8), tracer),
        channel=lossy(0, partitions=((0.0, 0.4),)), encoding=ENC,
        tracer=tracer, retry=RetryPolicy(initial_rto=0.15))


def resumable(tracer, seed, channel):
    (a, b), = states(1, seed)
    state = {"a": a}
    snapshot = a.copy()
    first = [True]

    def rebuild():
        # Attempts are transactional: a resume restores the receiver.
        if first:
            first.pop()
        else:
            state["a"] = snapshot.copy()
        return pairs([(state["a"], b)], tracer)

    return SessionOptions(
        rebuild=rebuild, channel=channel, encoding=ENC, tracer=tracer,
        retry=RetryPolicy(max_retries=1, initial_rto=0.1,
                          max_session_attempts=25))


def resume(tracer):
    # One attempt tears before it commits and resumes; the next one's
    # abort falls after its commit, so it completes.
    return resumable(tracer, 9, lossy(2, drop=0.4))


def resume_chaos(tracer):
    return resumable(tracer, 11, lossy(4, drop=0.3, duplicate=0.3,
                                       reorder=0.3, reorder_window=0.05))


def ignore(error, stats):
    pass


def abandon(tracer):
    return SessionOptions(
        pairs=pairs(states(1, 10), tracer),
        channel=lossy(3, drop=0.7), encoding=ENC, tracer=tracer,
        retry=RetryPolicy(max_retries=1, initial_rto=0.05),
        on_abandon=ignore)


def recv_queued(tracer):
    # The receiver is still serializing its own long message when the
    # sender's three land, so its Drain and Recvs find them queued.
    return SessionOptions(
        pairs=((scripted(short(), short(), short()),
                scripted(POLL, long(), DRAIN, RECV, RECV)),),
        channel=PERFECT, encoding=ENC, tracer=tracer)


def dead_link(tracer, sender, receiver, *, down_from=0.0, **extra):
    """One scripted ARQ attempt whose link is down from ``down_from``."""
    return SessionOptions(
        pairs=((sender, receiver),),
        channel=lossy(0, partitions=((down_from, 1e9),)), encoding=ENC,
        tracer=tracer, retry=RetryPolicy(max_retries=0), on_abandon=ignore,
        **extra)


def abort_parked_on_ack(tracer):
    # Both send into a dead link: the first timeout aborts the attempt
    # while the other side is still parked on its ack.  Both coroutines
    # have returned, so the attempt has committed and completes.
    return dead_link(tracer, scripted(short()), scripted(short()))


def abort_while_serializing(tracer):
    return dead_link(tracer, scripted(short()), scripted(long()))


def quiet_arq(tracer, sender, receiver, **retry):
    """ARQ engaged (a partition far in the future) on a fault-free run,
    with an unjittered retry policy: every timeout is at a fixed time."""
    return SessionOptions(
        pairs=((sender, receiver),),
        channel=lossy(0, partitions=((100.0, 101.0),)), encoding=ENC,
        tracer=tracer, retry=RetryPolicy(jitter=0.0, **retry),
        on_abandon=ignore)


def ack_during_retransmit(tracer):
    # A 1 ms RTO times the 20 ms message out; the first copy's ack lands
    # while the retransmission is still serializing.
    return quiet_arq(tracer, scripted(Send(Halt(400)), short()),
                     scripted(RECV, RECV), initial_rto=0.001)


def late_after_abort(tracer):
    # The third timeout (14.15 ms) aborts after the first copy's
    # delivery (10.05 ms) but before its ack returns (20.45 ms) and
    # before the third copy lands (16.15 ms).  The receiver returned on
    # the delivery, so the abort falls after the commit and completes.
    return quiet_arq(tracer, scripted(short()), scripted(RECV),
                     initial_rto=0.002, max_retries=2)


def abort_while_processing(tracer):
    # The first message lands and is being processed for a second when
    # the second one, sent into the partition, times out.  The open window
    # sends the second message 50 us after the first.
    return dead_link(tracer, scripted(short(), short()),
                     scripted(RECV, RECV), down_from=0.000075, proc_time=1.0)


#: One digest per case.
GOLDEN = {
    "pipelined":
        "047d2131d8354c023157713181fc6d52e00441409c4cf93cf9380a784eab4b35",
    "stop_and_wait":
        "97747ae3d53ea91d26554039d074ab5f0f9a905596ac1bbf46177f3ef9f09d09",
    "proc_time":
        "598be4080796418c47194f5bcf962292ab32f22ac487a7b28dea514a22888792",
    "batched":
        "4322f0d51f158798de5dcdd21bf07db4a9fd62650f6338e6587acdf00dc93875",
    "chunked":
        "acb35e3e0dd26424229c4b9e1ae95fd47cf8fdb04ff6f29930d9dfc4a4b03e12",
    "arq_drop":
        "63c920d0f455cfb08145b4a6daee579c44a0f3b9ec0d83591f83c93776e9fd65",
    "arq_duplicate_reorder":
        "44ba175025ead61cc402b6e4cda9b437fad15b2ff3e0005d4d98828ed69515ad",
    "arq_partition":
        "b1135738dd138cecfc19229b40ee923e13ba4c03d12dd4c62fb804f8f6eac498",
    "resume":
        "bc2f49f7d9776b5edc0e8bedefff163be6a728978f9b32235216c346f2c86060",
    "resume_chaos":
        "d498c9c9d35c87ffa93bf974cff2b2ae827f5123e512cff1ca560e08fa613010",
    "abandon":
        "a25a382d5cd9f76d8ba3a598215da890790fa9c0331fae248065f747594d1796",
    "ack_during_retransmit":
        "81b6213ecc5329ba8dc5e73c3cf31b52dfdad729e332143a5eb860f9e2be6db0",
    "late_after_abort":
        "bf8fa52e55e6064e7a05ba557f2fd88423270a079abee9565158264e780ec483",
    "recv_queued":
        "8534021ae63bdfa8017d116b767d047c6672a8d31d6700f86edc46109c11cd78",
    "abort_parked_on_ack":
        "52019525862c93e5b02b0a1e763ca3a5d39c0a0efce572719f84edfc26782f9a",
    "abort_while_serializing":
        "f22242b9e79cc8d80fa41d92f6d97971c2934fc30ab6330083780281b8dc76f0",
    "abort_while_processing":
        "6c7b25092bbf0f17bbdab6a0a98185736a7a91340a9fc550acfa8ef0b9992a5c",
}

CASES = {build.__name__: build for build in (
    pipelined, stop_and_wait, proc_time, batched, chunked, recv_queued,
    arq_drop, arq_duplicate_reorder, arq_partition, resume, resume_chaos,
    ack_during_retransmit, abandon, late_after_abort, abort_parked_on_ack,
    abort_while_serializing, abort_while_processing)}
ABANDONED = {"abandon", "abort_while_serializing",
             "abort_while_processing"}


def traced_run(name):
    tracer = Tracer()
    options = CASES[name](tracer)
    if name in ABANDONED:
        with pytest.raises(SessionError, match="unfinished"):
            run_timed(options, trace_dispatch=True)
    else:
        run_timed(options, trace_dispatch=True)
    return tracer


@pytest.mark.parametrize("name", sorted(CASES))
def test_wire_trace_matches_the_golden_digest(name):
    assert digest(traced_run(name)) == GOLDEN[name]
