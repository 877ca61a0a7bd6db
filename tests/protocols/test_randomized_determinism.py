"""Determinism of the randomized driver, observed through traces.

Two claims, per the observability layer's contract:

* **Replay**: the same seed produces the *identical* trace event sequence
  (every send, delivery, and semantic step, in the same interleaving).
* **Semantic stability**: across different seeds, delivery timing changes
  but the outcome does not — final vectors are identical, Δ (elements the
  receiver lacked) is identical, and SYNCC's Γ (tagged-known elements
  retransmitted) is identical, because every Γ element precedes the
  halting untagged-known element in the sender's FIFO stream regardless
  of delay.  SRV's γ is the one genuinely timing-*dependent* counter —
  a SKIP can go stale when the sender overshoots a segment boundary —
  so for SYNCS the invariant checked is γ ≤ the instant-driver γ plus
  the fallback accounting: skipped-or-streamed, every segment is covered.
"""

import random

import pytest

from repro.core.conflict import ConflictRotatingVector
from repro.core.skip import SkipRotatingVector
from repro.net.wire import Encoding
from repro.obs import Tracer
from repro.protocols.session import run_session_randomized
from repro.protocols.syncc import syncc_receiver, syncc_sender
from repro.protocols.syncs import sync_srv, syncs_receiver, syncs_sender

ENCODING = Encoding(site_bits=8, value_bits=16)
SEEDS = range(12)


def syncs_scenario():
    """Concurrent SRV pair whose instant-driver session honors a SKIP."""
    base = SkipRotatingVector()
    for site in ("s1", "s2"):
        base.record_update(site)
    c = base.copy()
    c.record_update("c1")
    c.record_update("c2")
    b = base.copy()
    b.record_update("b1")
    sync_srv(b, c, encoding=ENCODING)
    b.record_update("b1")
    a = c.copy()
    a.record_update("a1")
    return a, b


def syncc_scenario():
    """Concurrent CRV pair with one tagged-known element (Γ = 1)."""
    base = ConflictRotatingVector()
    for site in ("s1", "s2"):
        base.record_update(site)
    a = base.copy()
    a.record_update("a1")
    b = base.copy()
    b.record_update("b1")
    b.record_update("b2")
    return a, b


def run_syncs(seed: int):
    a, b = syncs_scenario()
    tracer = Tracer()
    reconcile = a.compare(b).is_concurrent
    result = run_session_randomized(
        syncs_sender(b, tracer=tracer),
        syncs_receiver(a, reconcile=reconcile, tracer=tracer),
        rng=random.Random(seed), encoding=ENCODING,
        tracer=tracer, span_name="SYNCS")
    return a, result, tracer


def run_syncc(seed: int):
    a, b = syncc_scenario()
    tracer = Tracer()
    reconcile = a.compare(b).is_concurrent
    result = run_session_randomized(
        syncc_sender(b, tracer=tracer),
        syncc_receiver(a, reconcile=reconcile, tracer=tracer),
        rng=random.Random(seed), encoding=ENCODING,
        tracer=tracer, span_name="SYNCC")
    return a, result, tracer


def event_tuples(tracer: Tracer):
    return [(e.seq, e.kind, e.span_id, e.party, e.message, e.bits,
             tuple(sorted(e.fields.items()))) for e in tracer.events]


class TestReplay:
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_same_seed_identical_trace(self, seed):
        _, _, first = run_syncs(seed)
        _, _, second = run_syncs(seed)
        assert event_tuples(first) == event_tuples(second)

    def test_different_seeds_can_interleave_differently(self):
        traces = {tuple(event_tuples(run_syncs(seed)[2])) for seed in SEEDS}
        assert len(traces) > 1  # the driver actually randomizes delivery


class TestSemanticStability:
    def test_syncs_final_vectors_and_delta_seed_independent(self):
        vectors, deltas = set(), set()
        for seed in SEEDS:
            a, result, tracer = run_syncs(seed)
            vectors.add(tuple(sorted(a.to_version_vector().as_dict().items())))
            deltas.add(result.receiver_result.new_elements)
            assert (tracer.count("delta_element")
                    == result.receiver_result.new_elements)
            assert (tracer.count("gamma_skip")
                    == result.sender_result.skips_honored)
            assert tracer.message_bits() == result.stats.total_bits
        assert len(vectors) == 1
        assert deltas == {1}

    def test_syncs_gamma_bounded_by_instant_driver(self):
        a, b = syncs_scenario()
        instant = sync_srv(a, b, encoding=ENCODING)
        ceiling = instant.sender_result.skips_honored
        assert ceiling >= 1
        for seed in SEEDS:
            _, result, _ = run_syncs(seed)
            honored = result.sender_result.skips_honored
            assert 0 <= honored <= ceiling
            # A stale skip costs redundant streaming, never correctness:
            # each known segment is either skipped or fully examined.
            assert (honored + result.receiver_result.redundant_elements
                    + result.receiver_result.ignored_elements) >= ceiling

    def test_syncs_some_seed_overshoots_the_instant_driver(self):
        # The bound above holds for a policy that never delays anything
        # too.  This one pins that the randomized policy does delay: on
        # some seed the sender streams past a segment boundary before the
        # receiver's SKIP lands, and honors fewer SKIPs than the instant
        # driver's zero-overshoot run.
        a, b = syncs_scenario()
        ceiling = sync_srv(a, b, encoding=ENCODING).sender_result.skips_honored
        honored = [run_syncs(seed)[1].sender_result.skips_honored
                   for seed in SEEDS]
        assert min(honored) < ceiling

    def test_syncc_all_semantic_counters_seed_independent(self):
        vectors, counters = set(), set()
        for seed in SEEDS:
            a, result, tracer = run_syncc(seed)
            receiver = result.receiver_result
            vectors.add(tuple(sorted(a.to_version_vector().as_dict().items())))
            counters.add((receiver.new_elements,
                          receiver.redundant_elements))
            assert (tracer.count("gamma_retransmit")
                    == receiver.redundant_elements)
        assert len(vectors) == 1
        assert counters == {(2, 1)}  # Δ = 2, Γ = 1, every seed
