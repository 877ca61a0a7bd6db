"""A batched sender's one-effect burst is invisible.

Inside a framed batch the mux answers an empty ``Poll`` with ``QUIET``
(no mail can arrive before the next ``Recv``), and a SYNCS sender that
hears it hands over the rest of its stream as one ``SendAll``; SYNCB and
SYNCC senders take ``QUIET`` as an ordinary empty poll.  Contracts under
test:

* the burst changes nothing observable: frames, stats, per-object
  reports and end states equal those of the same batch whose senders
  are *deaf* to the promise (each poll answered ``None``, so they stream
  element by element) — under the instant driver, and under the timed
  driver on a chaos channel with retries and resumes;
* the step budget is charged as the per-element stream would have been,
  so ``max_steps`` stops exactly the same batches;
* only the mux interprets ``SendAll``: the party interpreter rejects it;
* SYNCG, whose sender polls but never bursts, still converges batched.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conflict import ConflictRotatingVector
from repro.core.order import Ordering
from repro.core.rotating import BasicRotatingVector
from repro.core.skip import SkipRotatingVector
from repro.errors import SessionError
from repro.net.channel import ChannelSpec
from repro.net.faults import RetryPolicy, chaos_faults
from repro.net.runner import SessionOptions, run_timed
from repro.net.wire import Encoding
from repro.obs.trace import Tracer
from repro.protocols.batch import run_batch
from repro.protocols.effects import QUIET, SEND_HALT1, SendAll
from repro.protocols.messages import ElementSMsg
from repro.protocols.session import run_session, run_session_randomized
from repro.protocols.syncb import syncb_receiver, syncb_sender
from repro.protocols.syncc import syncc_receiver, syncc_sender
from repro.protocols.syncg import syncg_receiver, syncg_sender
from repro.protocols.syncs import syncs_receiver, syncs_sender
from repro.workload.scenarios import figure3_graphs
from tests.helpers import ShadowAttempts, build_history, site_name

ENC = Encoding(site_bits=8, value_bits=16)
N_SITES = 5

#: protocol -> (vector class, sender, receiver factory).
PROTOCOLS = {
    "brv": (BasicRotatingVector, syncb_sender,
            lambda a, concurrent: syncb_receiver(a)),
    "crv": (ConflictRotatingVector, syncc_sender,
            lambda a, concurrent: syncc_receiver(a, reconcile=concurrent)),
    "srv": (SkipRotatingVector, syncs_sender,
            lambda a, concurrent: syncs_receiver(a, reconcile=concurrent)),
}

update_command = st.tuples(st.just("update"), st.integers(0, N_SITES - 1))
sync_command = st.tuples(st.just("sync"), st.integers(0, N_SITES - 1),
                         st.integers(0, N_SITES - 1))
commands = st.lists(st.one_of(update_command, sync_command), max_size=30)
#: Per object: receiver site, sender site, and fresh updates the sender
#: makes first (so most senders have a stream worth cutting short).
pair_lists = st.lists(st.tuples(st.integers(0, N_SITES - 1),
                                st.integers(0, N_SITES - 1),
                                st.lists(st.integers(0, N_SITES - 1),
                                         max_size=6)),
                      min_size=1, max_size=8)


def relay(coroutine, seen, *, deaf):
    """Forward ``coroutine``'s effects, noting each one's class in
    ``seen``; a ``deaf`` relay answers ``QUIET`` with ``None``."""
    value = None
    try:
        while True:
            try:
                effect = coroutine.send(value)
            except StopIteration as stop:
                return stop.value
            seen.append(effect.__class__)
            value = yield effect
            if deaf and value is QUIET:
                value = None
    finally:
        coroutine.close()


def batch_inputs(protocol, command_list, pairs):
    """``(receiver vector, sender vector)`` per object; a BRV receiver
    concurrent with its sender starts empty instead (SYNCB's
    precondition is ``a ∦ b``)."""
    cls = PROTOCOLS[protocol][0]
    vectors = build_history(cls, command_list, N_SITES)
    inputs = []
    for i, j, updates in pairs:
        a, b = vectors[i].copy(), vectors[j].copy()
        for site in updates:
            b.record_update(site_name(site))
        if cls is BasicRotatingVector \
                and a.compare(b) is Ordering.CONCURRENT:
            a = cls()
        inputs.append((a, b))
    return inputs


def coroutine_pairs(protocol, receivers, senders, seen, *, deaf):
    _, sender, receiver = PROTOCOLS[protocol]
    return [(relay(sender(b), seen, deaf=deaf),
             receiver(a, a.compare(b) is Ordering.CONCURRENT))
            for a, b in zip(receivers, senders)]


def states(vectors):
    return [list(vector.order.rows()) for vector in vectors]


def bursts_expected(protocol, senders):
    """Only SYNCS bursts: its first poll, before any row, comes back
    ``QUIET`` for every sender with a row to send."""
    if protocol != "srv":
        return 0
    return sum(bool(list(b.order.rows())) for b in senders)


@settings(max_examples=60, deadline=None)
@given(protocol=st.sampled_from(sorted(PROTOCOLS)), command_list=commands,
       pairs=pair_lists)
def test_run_batch_is_identical_with_deaf_senders(protocol, command_list,
                                                  pairs):
    inputs = batch_inputs(protocol, command_list, pairs)
    senders = [b for _, b in inputs]
    outcomes = []
    for deaf in (False, True):
        receivers = [a.copy() for a, _ in inputs]
        seen = []
        result = run_batch(coroutine_pairs(protocol, receivers, senders,
                                           seen, deaf=deaf),
                           encoding=ENC, trace=True)
        outcomes.append((result, states(receivers), seen))
    (fast, fast_state, fast_seen), (slow, slow_state, slow_seen) = outcomes
    assert fast.transcript == slow.transcript
    assert fast.stats.summary() == slow.stats.summary()
    assert fast.stats == slow.stats
    assert fast.sender_result == slow.sender_result
    assert fast.receiver_result == slow.receiver_result
    assert fast_state == slow_state
    # The burst did happen, once per SYNCS sender with a row to send.
    assert fast_seen.count(SendAll) == bursts_expected(protocol, senders)
    assert SendAll not in slow_seen


def test_step_budget_stops_the_same_batches():
    """``SendAll`` is charged the per-element stream's steps exactly."""
    protocol = "srv"
    rng = random.Random(3)
    command_list = [("update", rng.randrange(N_SITES)) for _ in range(12)]
    command_list += [("sync", 0, k) for k in range(1, N_SITES)]
    command_list += [("update", rng.randrange(N_SITES)) for _ in range(6)]
    inputs = batch_inputs(protocol, command_list,
                          [(1, 0, []), (2, 0, [1, 2]), (4, 3, [4])])
    senders = [b for _, b in inputs]
    verdicts = {}
    for budget in range(1, 120):
        for deaf in (False, True):
            receivers = [a.copy() for a, _ in inputs]
            try:
                run_batch(coroutine_pairs(protocol, receivers, senders, [],
                                          deaf=deaf),
                          encoding=ENC, max_steps=budget)
                verdicts[budget, deaf] = "ok"
            except SessionError:
                verdicts[budget, deaf] = "exceeded"
        assert verdicts[budget, False] == verdicts[budget, True], budget
    assert verdicts[1, False] == "exceeded"
    assert verdicts[119, False] == "ok"


def resumable_batch(protocol, inputs, seen, *, deaf, batch_size, loss, seed):
    """A resumable batched session over ``inputs`` whose every attempt
    merges into fresh copies of the receivers."""
    senders = [b for _, b in inputs]
    rebuild = ShadowAttempts(
        [a for a, _ in inputs],
        lambda receivers: tuple(coroutine_pairs(protocol, receivers,
                                                senders, seen, deaf=deaf)))

    tracer = Tracer()
    options = SessionOptions(
        rebuild=rebuild, batch_size=batch_size,
        channel=ChannelSpec(latency=0.01, bandwidth=1e5,
                            faults=chaos_faults(loss, latency=0.01,
                                                seed=seed)),
        encoding=ENC, tracer=tracer,
        retry=RetryPolicy(max_retries=2, initial_rto=0.05,
                          max_session_attempts=6))
    return rebuild, tracer, options


def timed_outcome(protocol, inputs, *, deaf, batch_size, loss, seed):
    seen = []
    attempts, tracer, options = resumable_batch(
        protocol, inputs, seen, deaf=deaf, batch_size=batch_size, loss=loss,
        seed=seed)
    try:
        result = run_timed(options)
    except SessionError as error:
        outcome = ("abandoned", str(error))
    else:
        outcome = (result.stats.summary(), result.stats,
                   result.sender_result, result.receiver_result,
                   result.completion_time, result.sender_finish,
                   result.receiver_finish)
    events = [(e.kind, e.time, e.party, e.message, e.bits, e.fields)
              for e in tracer.events]
    return outcome, events, states(attempts.latest), seen


@settings(max_examples=40, deadline=None)
@given(protocol=st.sampled_from(sorted(PROTOCOLS)), command_list=commands,
       pairs=pair_lists, batch_size=st.integers(2, 8),
       loss=st.sampled_from([0.0, 0.1, 0.3]), seed=st.integers(0, 2**16))
def test_timed_batch_is_identical_with_deaf_senders(protocol, command_list,
                                                    pairs, batch_size, loss,
                                                    seed):
    inputs = batch_inputs(protocol, command_list, pairs)
    fast = timed_outcome(protocol, inputs, deaf=False, batch_size=batch_size,
                         loss=loss, seed=seed)
    slow = timed_outcome(protocol, inputs, deaf=True, batch_size=batch_size,
                         loss=loss, seed=seed)
    assert fast[:3] == slow[:3]
    assert SendAll not in slow[3]


def test_timed_chaos_batch_with_resumes_is_identical():
    """A pinned case that does resume, so the property above is not
    vacuous about resumes."""
    rng = random.Random(5)
    command_list = [("update", rng.randrange(N_SITES)) for _ in range(30)]
    command_list += [("sync", rng.randrange(N_SITES), rng.randrange(N_SITES))
                     for _ in range(10)]
    pairs = [(i, j, [j]) for i in range(N_SITES) for j in range(N_SITES)
             if i != j]
    inputs = batch_inputs("srv", command_list, pairs)
    resumed = 0
    # Seed 7 tears an attempt before it commits.
    for seed in range(8):
        fast = timed_outcome("srv", inputs, deaf=False, batch_size=8,
                             loss=0.3, seed=seed)
        slow = timed_outcome("srv", inputs, deaf=True, batch_size=8,
                             loss=0.3, seed=seed)
        assert fast[:3] == slow[:3]
        assert SendAll in fast[3]
        if fast[0][0] != "abandoned":
            resumed += fast[0][1].resumes
    assert resumed > 0


@pytest.mark.parametrize("driver", ["instant", "randomized"])
def test_party_interpreter_rejects_send_all(driver):
    def burst():
        yield SendAll((ElementSMsg("A", 1, False, True), SEND_HALT1.message))

    def wait():
        return (yield from ())

    run = (run_session if driver == "instant" else
           lambda s, r: run_session_randomized(s, r,
                                               rng=random.Random(0)))
    with pytest.raises(SessionError, match="unknown effect"):
        run(burst(), wait())


def test_syncg_pairs_converge_under_batch_party():
    site_a, site_c = figure3_graphs()
    cases = [(site_c, site_a), (site_a, site_c), (site_a, site_a),
             (site_c, site_c)]
    receivers = [a.copy() for a, _ in cases]
    result = run_batch([(syncg_sender(b), syncg_receiver(a))
                        for a, (_, b) in zip(receivers, cases)],
                       encoding=ENC)
    for graph, (a, b) in zip(receivers, cases):
        assert graph.arcs() == a.arcs() | b.arcs()
        assert graph.is_ancestor_closed()
    assert result.stats.frames >= 1
