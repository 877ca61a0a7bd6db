"""Batched multi-object sessions: framing, pricing, and equivalence.

Contracts under test:

* a :class:`~repro.protocols.batch.BatchFrame` prices itself as the sum
  of its payloads plus γ-varint delimiters — nothing hidden;
* a framed batch leaves every object's vectors in exactly the states the
  per-object instant sessions produce (batching may trade traffic, never
  outcomes);
* frame counters land in :class:`~repro.net.stats.TransferStats` and its
  ``summary()`` amortization block guards all zero divisions.
"""

import random

import pytest

from repro.core.conflict import ConflictRotatingVector
from repro.core.rotating import BasicRotatingVector
from repro.core.skip import SkipRotatingVector
from repro.extensions.varint import elias_gamma_bits
from repro.net.stats import TransferStats
from repro.net.wire import Encoding
from repro.errors import ProtocolError, SessionError
from repro.protocols.batch import BatchFrame, batch_party, run_batch
from repro.protocols.effects import POLL
from repro.protocols.messages import ElementSMsg, Halt
from repro.protocols.syncb import sync_brv, syncb_receiver, syncb_sender
from repro.protocols.syncc import sync_crv, syncc_receiver, syncc_sender
from repro.protocols.syncs import sync_srv, syncs_receiver, syncs_sender

ENCODING = Encoding(site_bits=8, value_bits=16)
SITES = ["A", "B", "C", "D", "E"]


def test_batch_frame_prices_delimiters_plus_payload():
    payload = (ElementSMsg("A", 3, False, True), Halt(1))
    frame = BatchFrame(((2, payload), (7, (Halt(1),))))
    # Each index is priced as the gap past the previous one: 2, then 7−2−1.
    expected = (elias_gamma_bits(2) + elias_gamma_bits(2)
                + sum(m.bits(ENCODING) for m in payload)
                + elias_gamma_bits(4) + elias_gamma_bits(1)
                + Halt(1).bits(ENCODING))
    assert frame.bits(ENCODING) == expected == 43
    assert frame.object_count == 2
    assert frame.message_count == 3


@pytest.mark.parametrize("indices", [(1, 1), (3, 2), (-1,)])
def test_batch_frame_rejects_indices_that_do_not_increase(indices):
    frame = BatchFrame(tuple((index, (Halt(1),)) for index in indices))
    with pytest.raises(ProtocolError, match="strictly increase"):
        frame.bits(ENCODING)


def _random_srv_pair(rng):
    a = SkipRotatingVector.from_pairs([("A", 1)])
    b = a.copy()
    for _ in range(rng.randint(2, 20)):
        rng.choice((a, b)).record_update(rng.choice(SITES))
    return a, b


def test_batched_srv_end_states_match_per_object_sessions():
    for seed in range(10):
        rng = random.Random(seed)
        originals = [_random_srv_pair(rng) for _ in range(6)]
        plain = [(a.copy(), b.copy()) for a, b in originals]
        batched = [(a.copy(), b.copy()) for a, b in originals]
        for a, b in plain:
            sync_srv(a, b, encoding=ENCODING)
        pairs = [(syncs_sender(b),
                  syncs_receiver(a, reconcile=a.compare(b).is_concurrent))
                 for a, b in batched]
        result = run_batch(pairs, encoding=ENCODING)
        assert result.stats.frames >= 1
        assert result.stats.framed_objects >= len(batched)
        for (pa, _), (ba, _) in zip(plain, batched):
            assert ba.same_structure(pa), f"seed {seed}"


def test_batched_crv_and_brv_end_states_match():
    rng = random.Random(7)
    crv_pairs = []
    for _ in range(4):
        a = ConflictRotatingVector.from_pairs([("A", 1)])
        b = a.copy()
        for _ in range(rng.randint(2, 12)):
            rng.choice((a, b)).record_update(rng.choice(SITES))
        crv_pairs.append((a, b))
    plain = [(a.copy(), b.copy()) for a, b in crv_pairs]
    for a, b in plain:
        sync_crv(a, b, encoding=ENCODING)
    result = run_batch(
        [(syncc_sender(b),
          syncc_receiver(a, reconcile=a.compare(b).is_concurrent))
         for a, b in crv_pairs], encoding=ENCODING)
    for (pa, _), (ba, _) in zip(plain, crv_pairs):
        assert ba.same_values(pa)
    # BRV: single-writer histories (Algorithm 2's a ∦ b requirement).
    brv_pairs = []
    for _ in range(4):
        b = BasicRotatingVector.from_pairs([("A", 1)])
        for _ in range(rng.randint(1, 8)):
            b.record_update(rng.choice(SITES))
        brv_pairs.append((b.copy(), b.copy()))
        for _ in range(rng.randint(0, 4)):
            brv_pairs[-1][1].record_update(rng.choice(SITES))
    plain_brv = [(a.copy(), b.copy()) for a, b in brv_pairs]
    for a, b in plain_brv:
        sync_brv(a, b, encoding=ENCODING)
    run_batch([(syncb_sender(b), syncb_receiver(a)) for a, b in brv_pairs],
              encoding=ENCODING)
    for (pa, _), (ba, _) in zip(plain_brv, brv_pairs):
        assert ba.same_values(pa)
    assert result.stats.frames >= 1


@pytest.mark.parametrize("initiator", [True, False])
def test_step_budget_stops_an_object_that_never_parks(initiator):
    """The shared budget is enforced inside a turn, not between objects."""
    def spin():
        while True:
            yield POLL

    party = batch_party([spin()], initiator=initiator, max_steps=100)
    with pytest.raises(SessionError, match="exceeded 100 steps"):
        next(party)  # the initiator's first turn runs right away ...
        # ... the other side's starts with the first incoming frame.
        party.send(BatchFrame(((0, (Halt(1),)),)))


def test_session_header_charged_once_per_session():
    priced = Encoding(site_bits=8, value_bits=16, session_header_bits=48)
    a = SkipRotatingVector.from_pairs([("A", 1)])
    b = a.copy()
    b.record_update("B")
    free = sync_srv(a.copy(), b, encoding=ENCODING)
    paid = sync_srv(a.copy(), b, encoding=priced)
    assert paid.stats.total_bits == free.stats.total_bits + 48
    assert paid.stats.forward.by_type["SessionHeader"] == 1


def test_summary_amortization_guards_zero_divisions():
    empty = TransferStats()
    summary = empty.summary()
    assert summary["amortized"] == {"bits_per_message": 0.0,
                                    "objects_per_frame": 0.0,
                                    "bits_per_framed_object": 0.0}
    assert summary["frames"] == 0
    assert summary["framed_objects"] == 0
    empty.note_frame(3)
    empty.note_frame(5)
    merged = TransferStats()
    merged.merge(empty)
    assert merged.frames == 2
    assert merged.framed_objects == 8
    assert merged.summary()["amortized"]["objects_per_frame"] == 4.0
