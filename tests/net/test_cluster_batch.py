"""Batched timed sessions and multi-object clusters.

The ISSUE 3 acceptance contracts:

* ``batch_size=1`` through the unified :func:`repro.net.runner.launch`
  entry point is bit-for-bit the plain per-object single-pair path —
  same stats, same per-object reports, same end states;
* ``batch_size=k`` amortizes the per-session header (k headers → 1) and,
  under stop-and-wait, the per-message acks (one per frame), so total
  wire bits per object drop;
* a framed session over more than ``batch_size`` objects is one wire: one
  header, frames of at most ``batch_size`` entries pipelined back to
  back, and under ARQ one ack drain;
* a multi-object, batched :class:`ClusterRunner` still converges and its
  sequential replay reproduces the concurrent run's bits exactly.
"""

import random
from collections import Counter

import pytest

from repro.core.skip import SkipRotatingVector
from repro.net import runner
from repro.net.channel import ChannelSpec
from repro.net.cluster import (ClusterConfig, ClusterRunner,
                               replay_sequential)
from repro.net.faults import FaultSpec
from repro.net.runner import SessionOptions, launch, run_timed
from repro.net.simulator import Simulator, to_ns
from repro.net.wire import Encoding
from repro.protocols.syncs import syncs_receiver, syncs_sender
from repro.workload.cluster import (gossip_schedule, site_names,
                                    update_schedule)

ENC = Encoding(site_bits=8, value_bits=16)
PRICED = Encoding(site_bits=8, value_bits=16, session_header_bits=64)
SLOW = ChannelSpec(latency=0.05, bandwidth=1e5)
SITES = ["A", "B", "C", "D"]


def make_srv_states(n_objects, seed):
    """Per-object (a, b) SRV pairs with divergent random histories."""
    rng = random.Random(seed)
    states = []
    for _ in range(n_objects):
        a = SkipRotatingVector.from_pairs([("A", 1)])
        b = a.copy()
        for _ in range(rng.randint(2, 12)):
            rng.choice((a, b)).record_update(rng.choice(SITES))
        states.append((a, b))
    return states


def make_pairs(states):
    return [(syncs_sender(b),
             syncs_receiver(a, reconcile=a.compare(b).is_concurrent))
            for a, b in states]


def run_batched(states, *, batch_size, encoding=ENC, stop_and_wait=False):
    sim = Simulator()
    completed = []
    launch(sim, SessionOptions(
        pairs=tuple(make_pairs(states)), batch_size=batch_size, channel=SLOW,
        encoding=encoding, stop_and_wait=stop_and_wait,
        on_complete=completed.append))
    sim.run()
    assert len(completed) == 1
    return completed[0]


class TestBatchSizeOneIdentity:
    def test_bit_for_bit_identical_to_sequential_sessions(self):
        baseline_states = make_srv_states(5, seed=21)
        batched_states = make_srv_states(5, seed=21)
        baseline = [run_timed(SessionOptions.for_pair(
                        s, r, channel=SLOW, encoding=PRICED))
                    for s, r in make_pairs(baseline_states)]
        batched = run_batched(batched_states, batch_size=1, encoding=PRICED)
        merged = batched.stats
        assert merged.total_bits \
            == sum(r.stats.total_bits for r in baseline)
        for direction in ("forward", "backward"):
            assert getattr(merged, direction).by_type == dict(sum(
                (Counter(getattr(r.stats, direction).by_type)
                 for r in baseline), Counter()))
        # Unframed: the per-object reports are the plain sessions', verbatim.
        assert batched.sender_result \
            == [r.sender_result for r in baseline]
        assert batched.receiver_result \
            == [r.receiver_result for r in baseline]
        assert merged.frames == 0 and merged.framed_objects == 0
        for (base_a, _), (bat_a, _) in zip(baseline_states, batched_states):
            assert bat_a.same_structure(base_a)

    def test_stop_and_wait_identity_holds_too(self):
        baseline = [run_timed(SessionOptions.for_pair(
                        s, r, channel=SLOW, encoding=PRICED,
                        stop_and_wait=True))
                    for s, r in make_pairs(make_srv_states(4, seed=22))]
        batched = run_batched(make_srv_states(4, seed=22), batch_size=1,
                              encoding=PRICED, stop_and_wait=True)
        assert batched.stats.total_bits \
            == sum(r.stats.total_bits for r in baseline)
        assert to_ns(batched.completion_time) \
            == sum(to_ns(r.completion_time) for r in baseline)


class TestBatchingAmortization:
    def test_framed_batch_reduces_bits_per_object(self):
        n = 32
        unbatched = run_batched(make_srv_states(n, seed=23), batch_size=1,
                                encoding=PRICED, stop_and_wait=True)
        batched = run_batched(make_srv_states(n, seed=23), batch_size=n,
                              encoding=PRICED, stop_and_wait=True)
        assert batched.stats.total_bits < unbatched.stats.total_bits
        # k session headers collapsed into one.
        assert unbatched.stats.forward.by_type["SessionHeader"] == n
        assert batched.stats.forward.by_type["SessionHeader"] == 1
        # Stop-and-wait now acks frames, not per-object messages.
        total_acks = (batched.stats.forward.by_type.get("Ack", 0)
                      + batched.stats.backward.by_type.get("Ack", 0))
        unbatched_acks = (unbatched.stats.forward.by_type.get("Ack", 0)
                          + unbatched.stats.backward.by_type.get("Ack", 0))
        assert total_acks < unbatched_acks
        assert batched.stats.frames >= 1
        assert batched.stats.framed_objects >= n
        assert batched.stats.summary()["amortized"]["objects_per_frame"] > 1

    def test_batched_end_states_match_unbatched(self):
        plain_states = make_srv_states(8, seed=24)
        framed_states = make_srv_states(8, seed=24)
        run_batched(plain_states, batch_size=1)
        run_batched(framed_states, batch_size=4)
        for (pa, _), (fa, _) in zip(plain_states, framed_states):
            assert fa.same_structure(pa)

    def test_framed_session_is_one_wire(self, monkeypatch):
        frames = []
        real_party = runner.batch_party

        def spy(generators, *, initiator, on_frame, **options):
            def note(frame):
                frames.append((initiator, frame))
                on_frame(frame)
            return real_party(generators, initiator=initiator,
                              on_frame=note, **options)

        monkeypatch.setattr(runner, "batch_party", spy)
        result = run_batched(make_srv_states(7, seed=25), batch_size=3,
                             encoding=PRICED)
        # Seven objects at batch 3: one wire, one header, and the sender's
        # turn leaves as frames of 3, 3 and 1 entries, indices session-wide.
        assert result.stats.forward.by_type["SessionHeader"] == 1
        sent = [frame for initiator, frame in frames if initiator]
        assert [frame.object_count for frame in sent] == [3, 3, 1]
        indices = [index for frame in sent for index, _ in frame.entries]
        assert indices == list(range(7))
        assert result.stats.framed_objects == 7
        assert len(result.sender_result) == 7
        assert len(result.receiver_result) == 7
        # The frames pipeline: the wire ends before three chunks run back
        # to back would.
        states = make_srv_states(7, seed=25)
        chunks = sum(run_batched(states[i:i + 3], batch_size=3,
                                 encoding=PRICED).duration
                     for i in range(0, 7, 3))
        assert result.duration < chunks

    def test_framed_session_drains_acks_once(self, monkeypatch):
        drains = []
        real_exit = runner._ArqParty.exit

        def exit(party, result):
            if party.unacked and not party.aborted:
                drains.append(party.name)
            real_exit(party, result)

        monkeypatch.setattr(runner._ArqParty, "exit", exit)
        sim = Simulator()
        handle = launch(sim, SessionOptions(
            pairs=tuple(make_pairs(make_srv_states(7, seed=25))),
            batch_size=3, encoding=PRICED,
            channel=ChannelSpec(latency=0.05, bandwidth=1e5,
                                faults=FaultSpec(drop=0.05, seed=3))))
        sim.run()
        assert handle.completed
        assert handle.stats.forward.by_type["SessionHeader"] == 1
        assert drains == ["sender"]

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError, match="pairs/rebuild"):
            launch(Simulator(), SessionOptions(pairs=()))

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            run_batched(make_srv_states(2, seed=26), batch_size=0)
        with pytest.raises(ValueError, match="batch_size"):
            ClusterConfig(batch_size=0)
        with pytest.raises(ValueError, match="n_objects"):
            ClusterConfig(n_objects=0)


def cluster_config(**overrides):
    defaults = dict(protocol="srv", channel=SLOW, encoding=ENC)
    defaults.update(overrides)
    return ClusterConfig(**defaults)


class TestMultiObjectCluster:
    def test_batched_cluster_converges_and_replays_exactly(self):
        cfg = cluster_config(n_objects=4, batch_size=4, encoding=PRICED)
        sites = site_names(6)
        updates = update_schedule(sites, n_updates=16, seed=32, n_objects=4,
                                  interval=0.05)
        # Many rounds after the last update so every object converges.
        sessions = gossip_schedule(sites, rounds=10, seed=31)
        result = ClusterRunner(sites, cfg).run(sessions, updates)
        assert result.consistent()
        assert result.totals.frames > 0
        assert any(len(entry) == 3 and entry[0] == "update"
                   for entry in result.log)
        sequential, vectors = replay_sequential(sites, cfg, result.log)
        assert result.per_session_bits() \
            == [r.stats.total_bits for r in sequential]
        for site in sites:
            assert result.vectors[site].same_values(vectors[site])

    def test_multi_object_unbatched_cluster_also_replays(self):
        cfg = cluster_config(n_objects=3, batch_size=1)
        sites = site_names(5)
        updates = update_schedule(sites, n_updates=12, seed=34, n_objects=3,
                                  interval=0.05)
        sessions = gossip_schedule(sites, rounds=10, seed=33)
        result = ClusterRunner(sites, cfg).run(sessions, updates)
        assert result.consistent()
        assert result.totals.frames == 0
        sequential, _ = replay_sequential(sites, cfg, result.log)
        assert result.per_session_bits() \
            == [r.stats.total_bits for r in sequential]

    def test_sessions_never_ask_for_an_element_view(self, monkeypatch):
        """A gossip pass runs on the order's arrays end to end.

        COMPARE, the SYNCS coroutines (rows out, ``place_after`` and
        ``set_segment`` in), reconciliation increments and the
        consistency check: none of them may fall back to per-element
        ``ArrayElement`` views, the cost the array path exists to avoid.
        """
        from repro.core.arrayorder import ArrayElement
        created = []
        init = ArrayElement.__init__

        def counting_init(self, order, index):
            created.append(index)
            init(self, order, index)

        cfg = cluster_config(n_objects=4, batch_size=4)
        sites = site_names(12)
        sessions = gossip_schedule(sites, rounds=6, seed=41)
        updates = update_schedule(sites, n_updates=64, seed=42, n_objects=4,
                                  interval=0.05)
        runner = ClusterRunner(sites, cfg)
        monkeypatch.setattr(ArrayElement, "__init__", counting_init)
        result = runner.run(sessions, updates)
        result.consistent()
        assert created == []
        # The counter does see a view once somebody asks for one ...
        runner.objects[sites[0]][0].first()
        assert len(created) == 1
        # ... and the pass did exercise every receive-side path.
        assert result.reconciliations > 0
        assert any(vector.segment_count() > 1
                   for vector in result.objects[sites[0]])

    def test_out_of_range_object_in_update_rejected(self):
        cfg = cluster_config(n_objects=2)
        sites = site_names(3)
        runner = ClusterRunner(sites, cfg)
        from repro.workload.cluster import UpdateRequest
        with pytest.raises(ValueError, match="names object"):
            runner.run([], [UpdateRequest(0.0, sites[0], obj=5)])

    def test_per_object_records_cover_every_object(self):
        cfg = cluster_config(n_objects=3, batch_size=3)
        sites = site_names(4)
        sessions = gossip_schedule(sites, rounds=3, seed=35)
        updates = update_schedule(sites, n_updates=9, seed=36, n_objects=3)
        result = ClusterRunner(sites, cfg).run(sessions, updates)
        for record in result.records:
            assert len(record.verdicts) == 3
            assert len(record.reconciled_objects) == 3
            assert record.verdict is record.verdicts[0]
            assert record.reconciled == record.reconciled_objects[0]


class TestUpdateScheduleObjects:
    def test_objects_drawn_in_range_and_seeded(self):
        sites = site_names(4)
        a = update_schedule(sites, n_updates=40, seed=41, n_objects=8)
        b = update_schedule(sites, n_updates=40, seed=41, n_objects=8)
        assert a == b
        assert all(0 <= u.obj < 8 for u in a)
        assert len({u.obj for u in a}) > 1

    def test_single_object_schedule_unchanged_by_new_knob(self):
        sites = site_names(4)
        legacy = update_schedule(sites, n_updates=20, seed=42)
        explicit = update_schedule(sites, n_updates=20, seed=42, n_objects=1)
        assert legacy == explicit
        assert all(u.obj == 0 for u in legacy)
