"""The one effect interpreter against the instant driver it replaced.

:mod:`tests.protocols.oracle_instant` is the old instant driver, verbatim.
Over random legal histories, :func:`repro.protocols.session.run_session`
and that oracle must agree on everything a session reports: the
``trace=True`` transcript, the per-direction ``by_type`` counts and total
bits, the sender and receiver results, the receiver's final state and the
traced event stream (driver events interleaved with the protocols'
semantic ones) — for SYNCB, SYNCC, SYNCS, SYNCG, COMPARE and framed
batches.
"""

from __future__ import annotations

from typing import Callable, List, Set

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.conflict import ConflictRotatingVector
from repro.core.order import Ordering
from repro.core.rotating import BasicRotatingVector
from repro.core.skip import SkipRotatingVector
from repro.graphs.causalgraph import build_graph
from repro.net.wire import Encoding
from repro.obs import Tracer
from repro.protocols import session
from repro.protocols.batch import BatchFrame, batch_party, run_batch
from repro.protocols.comparep import compare_party
from repro.protocols.syncb import syncb_receiver, syncb_sender
from repro.protocols.syncc import syncc_receiver, syncc_sender
from repro.protocols.syncg import syncg_receiver, syncg_sender
from repro.protocols.syncs import syncs_receiver, syncs_sender
from tests.helpers import build_history
from tests.protocols import oracle_instant

ENC = Encoding(site_bits=8, value_bits=16, node_id_bits=16,
               session_header_bits=32)
N_SITES = 4

update_command = st.tuples(st.just("update"), st.integers(0, N_SITES - 1))
sync_command = st.tuples(st.just("sync"), st.integers(0, N_SITES - 1),
                         st.integers(0, N_SITES - 1))
commands = st.lists(st.one_of(update_command, sync_command), max_size=40)
pair_indices = st.tuples(st.integers(0, N_SITES - 1),
                         st.integers(0, N_SITES - 1))

#: Each node ``k > 1`` of a random DAG: one or two parents among 1..k-1.
dag_parents = st.lists(st.tuples(st.integers(0, 10 ** 6),
                                 st.integers(0, 10 ** 6), st.booleans()),
                       min_size=1, max_size=30)


def events(tracer: Tracer):
    return [(e.seq, e.kind, e.span_id, e.party, e.message, e.bits,
             sorted(e.fields.items())) for e in tracer.events]


def assert_same_session(build: Callable, state: Callable, **kwargs) -> None:
    """Run ``build(tracer)``'s coroutine pair through both drivers, each
    on fresh state, and compare what they report."""
    outcomes = []
    for run in (session.run_session, oracle_instant.run_session):
        tracer = Tracer()
        sender, receiver, target = build(tracer)
        result = run(sender, receiver, encoding=ENC, trace=True,
                     tracer=tracer, span_name="S", **kwargs)
        outcomes.append((result, state(target), events(tracer)))
    (new, new_state, new_events), (old, old_state, old_events) = outcomes
    assert new.transcript == old.transcript
    for direction in ("forward", "backward"):
        assert (getattr(new.stats, direction).by_type
                == getattr(old.stats, direction).by_type)
    assert new.stats.total_bits == old.stats.total_bits
    assert new.stats == old.stats
    assert new.sender_result == old.sender_result
    assert new.receiver_result == old.receiver_result
    assert new_state == old_state
    assert new_events == old_events


def vector_state(vector) -> List:
    return list(vector.order.rows())


def vector_pair(cls, commands, pair):
    vectors = build_history(cls, commands, N_SITES)
    return vectors[pair[0]], vectors[pair[1]]


@settings(max_examples=60, deadline=None)
@given(commands=commands, pair=pair_indices)
def test_syncb_matches_oracle(commands, pair):
    a, b = vector_pair(BasicRotatingVector, commands, pair)
    assume(a.compare(b) is not Ordering.CONCURRENT)

    def build(tracer):
        target = a.copy()
        return (syncb_sender(b, tracer=tracer),
                syncb_receiver(target, tracer=tracer), target)

    assert_same_session(build, vector_state)


@settings(max_examples=60, deadline=None)
@given(commands=commands, pair=pair_indices)
def test_syncc_matches_oracle(commands, pair):
    a, b = vector_pair(ConflictRotatingVector, commands, pair)
    reconcile = a.compare(b) is Ordering.CONCURRENT

    def build(tracer):
        target = a.copy()
        return (syncc_sender(b, tracer=tracer),
                syncc_receiver(target, reconcile=reconcile, tracer=tracer),
                target)

    assert_same_session(build, vector_state)


@settings(max_examples=60, deadline=None)
@given(commands=commands, pair=pair_indices)
def test_syncs_matches_oracle(commands, pair):
    a, b = vector_pair(SkipRotatingVector, commands, pair)
    reconcile = a.compare(b) is Ordering.CONCURRENT

    def build(tracer):
        target = a.copy()
        return (syncs_sender(b, tracer=tracer),
                syncs_receiver(target, reconcile=reconcile, tracer=tracer),
                target)

    assert_same_session(build, vector_state)


@settings(max_examples=60, deadline=None)
@given(commands=commands, pair=pair_indices)
def test_compare_matches_oracle(commands, pair):
    a, b = vector_pair(SkipRotatingVector, commands, pair)

    def build(tracer):
        return (compare_party(a, tracer=tracer, name="a"),
                compare_party(b, tracer=tracer, name="b"), None)

    assert_same_session(build, lambda _: None)


def closure(parents, seeds: List[int]) -> Set[int]:
    """Node ids of the ancestor closure of ``seeds``."""
    seen: Set[int] = set()
    stack = list(seeds)
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(parents[node])
    return seen


def subgraph(parents, nodes: Set[int]):
    arcs = []
    for node in sorted(nodes):
        arcs.extend((parent, node) for parent in parents[node])
        if not parents[node]:
            arcs.append((None, node))
    return build_graph(arcs)


@settings(max_examples=60, deadline=None)
@given(shape=dag_parents, seeds=st.data())
def test_syncg_matches_oracle(shape, seeds):
    parents = {1: []}
    for k, (left, right, merge) in enumerate(shape, start=2):
        chosen = [left % (k - 1) + 1]
        if merge and right % (k - 1) + 1 != chosen[0]:
            chosen.append(right % (k - 1) + 1)
        parents[k] = chosen
    node_ids = st.lists(st.sampled_from(sorted(parents)), min_size=1,
                        max_size=4)
    a_nodes = closure(parents, seeds.draw(node_ids))
    b_nodes = closure(parents, seeds.draw(node_ids))
    b = subgraph(parents, b_nodes)

    def build(tracer):
        target = subgraph(parents, a_nodes)
        return (syncg_sender(b, tracer=tracer),
                syncg_receiver(target, tracer=tracer), target)

    assert_same_session(build, lambda graph: sorted(graph.arcs()))


def oracle_batch(pairs, *, encoding, trace):
    """:func:`run_batch` with the oracle driver under the composites."""
    frames: List[BatchFrame] = []
    sender = batch_party([s for s, _ in pairs], initiator=True,
                         on_frame=frames.append)
    receiver = batch_party([r for _, r in pairs], initiator=False,
                           on_frame=frames.append)
    result = oracle_instant.run_session(sender, receiver, encoding=encoding,
                                        trace=trace, span_name="BATCH")
    for frame in frames:
        result.stats.note_frame(frame.object_count)
    return result


@settings(max_examples=40, deadline=None)
@given(commands=commands,
       pairs=st.lists(pair_indices, min_size=1, max_size=5))
def test_run_batch_matches_oracle(commands, pairs):
    vectors = build_history(SkipRotatingVector, commands, N_SITES)
    outcomes = []
    for run in (run_batch, oracle_batch):
        targets = [vectors[i].copy() for i, _ in pairs]
        coroutines = [
            (syncs_sender(vectors[j]),
             syncs_receiver(target, reconcile=target.compare(
                 vectors[j]) is Ordering.CONCURRENT))
            for target, (_, j) in zip(targets, pairs)]
        result = run(coroutines, encoding=ENC, trace=True)
        outcomes.append((result, [vector_state(t) for t in targets]))
    (new, new_state), (old, old_state) = outcomes
    assert new.transcript == old.transcript
    assert new.stats == old.stats
    assert new.sender_result == old.sender_result
    assert new.receiver_result == old.receiver_result
    assert new_state == old_state
