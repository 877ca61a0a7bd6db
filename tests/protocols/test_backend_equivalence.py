"""The SYNC* coroutines on the array classes against the linked oracle.

The protocols run on the element order's array-level contract
(``rows``/``value``/``place_after``/``set_segment``); the linked backend
implements the same contract node by node.  Under the randomized driver —
arbitrary pipelining overshoot — both must end in the same ``≺`` order with
the same bits, return the same reports, put the same traffic on the wire
and emit the same trace events, batched and unbatched, traced or not.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.wire import Encoding
from repro.obs.trace import Tracer
from repro.protocols import registry
from repro.protocols.batch import batch_party
from repro.protocols.session import run_session_randomized
from tests.helpers import build_history, linked_vectors

ENC = Encoding(site_bits=8, value_bits=16)
N_SITES = 4

site_indices = st.integers(0, N_SITES - 1)
commands = st.lists(
    st.one_of(st.tuples(st.just("update"), site_indices),
              st.tuples(st.just("sync"), site_indices, site_indices)),
    max_size=40)
pair_lists = st.lists(st.tuples(site_indices, site_indices),
                      min_size=1, max_size=4)


def _run(protocol, commands, pairs, seed, batched, traced):
    """Sync each ``(dst, src)`` pair of one history; everything observable."""
    spec = registry.get(protocol)
    vectors = build_history(spec.vector_cls, commands, N_SITES)
    tracer = Tracer() if traced else None
    targets, sessions = [], []
    for dst, src in pairs:
        a, b = vectors[dst].copy(), vectors[src]
        verdict = a.compare(b)
        if verdict.is_concurrent and not spec.reconciles:
            continue  # BRV: manual resolution, pair excluded
        targets.append(a)
        sessions.append(spec.build(b, a, verdict, tracer=tracer)[:2])
    if batched and sessions:
        sessions = [(batch_party([s for s, _ in sessions], initiator=True),
                     batch_party([r for _, r in sessions], initiator=False))]
    rng = random.Random(seed)
    results = [run_session_randomized(sender, receiver, rng=rng,
                                      encoding=ENC, tracer=tracer)
               for sender, receiver in sessions]
    return ([a.order.as_tuples() for a in targets],
            [(r.sender_result, r.receiver_result, r.stats) for r in results],
            None if tracer is None else
            [(e.kind, e.span_id, e.party, e.message, e.bits, e.fields)
             for e in tracer.events])


@settings(max_examples=150, deadline=None)
@given(protocol=st.sampled_from(["brv", "crv", "srv"]), commands=commands,
       pairs=pair_lists, seed=st.integers(0, 2 ** 16),
       batched=st.booleans())
def test_array_and_linked_backends_are_indistinguishable(
        protocol, commands, pairs, seed, batched):
    runs = {}
    for traced in (False, True):
        array = _run(protocol, commands, pairs, seed, batched, traced)
        with linked_vectors():
            linked = _run(protocol, commands, pairs, seed, batched, traced)
        assert array == linked
        runs[traced] = array
    # A tracer observes; it never steers.
    assert runs[False][:2] == runs[True][:2]
