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
complete its attempt instead of tearing it.  Every case but
``ack_during_retransmit``, ``batched`` and ``late_after_abort`` was
re-taken when the clock became integer nanoseconds: each event, its
order, party, bits and fields stayed the same, and its time moved by at
most 1 ns (a float sum or a ``round(…, 9)`` grid before, whole ns
now).  A transport rewrite that moves, merges, adds or drops one kernel
event, draws one fault or jitter number in another order, or stamps one
time differently fails its case.
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
from tests.helpers import ShadowAttempts, scripted

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
    # Attempts are transactional: each merges into a fresh copy.
    rebuild = ShadowAttempts([a], lambda copies: pairs([(copies[0], b)],
                                                       tracer))
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
        "635540969ecb214ea533aba320c0d90045acbd6fb1371190157a7eb3d0c97591",
    "stop_and_wait":
        "fa1f4a69ff5ff0a4c955f11d01b4dc5a26ce51c2254440340a5d158a58c32482",
    "proc_time":
        "953360708d51e703ce3aa9b3b76ba1dec60d560f9fb73c44b92221284839be63",
    "batched":
        "4322f0d51f158798de5dcdd21bf07db4a9fd62650f6338e6587acdf00dc93875",
    "chunked":
        "877f06613708407620bde465a8d9e1daf33831a44436240f9d59e3104792d23f",
    "arq_drop":
        "67e0850601ce540b70544e2f0abcc3f46065e5538b6e152529652930d5c6d64e",
    "arq_duplicate_reorder":
        "7a6334eb9f4c9c5774e88438641f9d9785ac75c4a4fb300669537c7119ba5bce",
    "arq_partition":
        "0d487ab3f6c2d1473fb9ef7ba8ef5c3ebd84a399ba6c9005406e3d4c5430cc75",
    "resume":
        "d7044b73fca9a12fcab15c5cd85fb72c2e4cff73fdd4d3c540eb175b6b3c8259",
    "resume_chaos":
        "c26a03f29a7bc2a02b763c8b60ff6199427f970d9aeeaf34869278903e687d48",
    "abandon":
        "e3fa611000f3202effa6c4494da8d11382fabe9eccc00b91bfb406bf735e3ed2",
    "ack_during_retransmit":
        "81b6213ecc5329ba8dc5e73c3cf31b52dfdad729e332143a5eb860f9e2be6db0",
    "late_after_abort":
        "bf8fa52e55e6064e7a05ba557f2fd88423270a079abee9565158264e780ec483",
    "recv_queued":
        "219c35acd5b13550e888162d990c599aa41db405d2553c693afefae259b2e2b9",
    "abort_parked_on_ack":
        "3c0de354d94f1be2368dce4c78c9f94d726df044a9b14c557c232f550dc959a0",
    "abort_while_serializing":
        "c1c24edde4c2fbc45316bb7bb63f7020421fce7e3b552d2e9780085e6ca26d2c",
    "abort_while_processing":
        "b367281e138efa3c1815906e824a3c0a541ac67c63856874b51b4479ab3cc01e",
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
