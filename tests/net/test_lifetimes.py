"""Per-session object graphs are acyclic.

A finished session — its processes, mailboxes, signals, wire, spent
coroutines and transactional snapshot — must be freed by reference
counting the moment its last callback returns.  One self-reference on
that path (a closure reaching itself through its own cell, a callback
capturing the handle whose options hold it) turns every session into
cyclic garbage, and the cycle collector then re-walks the whole live
fleet to find it.

Each test runs a workload with the collector off and counts what
``gc.collect()`` finds afterwards, with the run's result and its cluster
still alive (the cluster <-> scheduler pair is the one cycle left, and
it is per run).  The count must not grow with the sessions: 4x the
sessions, same count.  What a finished session does keep (its record,
result and stats) must stay small in GC-tracked objects.
"""

import gc

import pytest

from repro.core.arrayvec import ArraySkipRotatingVector
from repro.net.channel import ChannelSpec
from repro.net.cluster import launch_cluster
from repro.net.faults import FaultSpec, RetryPolicy
from repro.net.runner import SessionOptions, run_timed
from repro.net.simulator import to_ns
from repro.net.topology import LinkProfile, TopologySpec
from repro.net.wire import Encoding
from repro.obs import Tracer
from repro.protocols.syncs import syncs_receiver, syncs_sender
from repro.store.cluster import ClientOp, StoreCluster, StoreConfig
from repro.workload.epidemic import epidemic_schedule, sharded_update_schedule

ENC = Encoding(site_bits=8, value_bits=16)
CHANNEL = ChannelSpec(latency=0.01, bandwidth=1e6)


def cyclic_garbage(run, size):
    """``run(size)``'s result and the objects only the cycle collector
    could free once it returned."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        kept = run(size)
        return kept, gc.collect()
    finally:
        if enabled:
            gc.enable()


def garbage_at(run, sizes=(1, 4)):
    """Results and garbage counts at each size, after one warm-up run."""
    cyclic_garbage(run, sizes[0])
    return [cyclic_garbage(run, size) for size in sizes]


def lossy_fleet(size):
    spec = TopologySpec.grid(
        2, 3, intra=LinkProfile(latency=0.002, loss=0.1),
        inter=LinkProfile(latency=0.04, bandwidth=250_000.0, loss=0.1),
        replication=2, seed=1, chaos_seed=7)
    # No retransmission: every lost message tears its attempt, so the
    # run resumes sessions; the attempt budget keeps any from giving up.
    runner = launch_cluster(
        spec, n_objects=8, batch_size=4, encoding=ENC,
        retry=RetryPolicy(max_retries=0, max_session_attempts=64))
    sessions = epidemic_schedule(spec, runner.shards, rounds=3 * size)
    updates = sharded_update_schedule(spec, runner.shards,
                                      n_updates=6 * size)
    return runner, runner.run(sessions, updates)


def bench_shaped_fleet(size):
    # fleet_sharded_lossy in miniature: 3x16 sites, 1% WAN loss, and so
    # few objects per site that most pairs share exactly one.
    spec = TopologySpec.grid(
        3, 16, intra=LinkProfile(latency=0.002),
        inter=LinkProfile(latency=0.04, bandwidth=250_000.0, loss=0.01),
        replication=3, chaos_seed=11)
    runner = launch_cluster(spec, n_objects=64, batch_size=8,
                            encoding=Encoding.for_system(48, 64))
    sessions = epidemic_schedule(spec, runner.shards, rounds=size)
    updates = sharded_update_schedule(spec, runner.shards,
                                      n_updates=60 * size)
    return runner, runner.run(sessions, updates)


def chaotic_store(size):
    channel = ChannelSpec(latency=0.01, bandwidth=1e6,
                          faults=FaultSpec(drop=0.4, seed=14))
    store = StoreCluster(["A", "B", "C", "D"], StoreConfig(
        channel=channel, retry=RetryPolicy(
            max_retries=1, initial_rto=0.05, max_session_attempts=2)))
    sites = store.sites
    for i in range(12 * size):
        site, peer = sites[i % 4], sites[(i + 1) % 4]
        store.sim.call_at(to_ns(i * 0.5), lambda s=site, p=peer, i=i: (
            store.submit(ClientOp(kind="put", site=s, key=f"k{i % 3}",
                                  value=i)),
            store.request_sync(s, p)))
    return store, store.run()


def srv_pair():
    # The array vectors every cluster runs on; the linked ones are
    # cyclic by construction (doubly linked elements).
    a = ArraySkipRotatingVector.from_pairs([("A", 1)])
    b = a.copy()
    a.record_update("A")
    b.record_update("B")
    return syncs_sender(b), syncs_receiver(a, reconcile=True)


class TestCyclicGarbageIsConstantInSessions:
    def test_sharded_lossy_fleet_with_resumes(self):
        ((_, small), at_1), ((_, large), at_4) = garbage_at(lossy_fleet)
        assert large.sessions > 3 * small.sessions
        assert small.totals.resumes > 0 and large.totals.resumes > 0
        assert at_1 == at_4

    def test_store_with_lost_adverts_and_abandoned_sessions(self):
        ((_, small), at_1), ((_, large), at_4) = garbage_at(chaotic_store)
        for result in (small, large):
            aborted = [r for r in result.records if r.aborted]
            assert any(r.advert is None for r in aborted)  # lost advert
            assert any(r.advert is not None for r in aborted)  # torn pull
        assert len(large.records) == 4 * len(small.records)
        assert at_1 == at_4

    @pytest.mark.parametrize("objects, options", [
        (1, {}), (1, {"stop_and_wait": True}), (3, {"batch_size": 2}),
    ], ids=["pipelined", "stop_and_wait", "batched"])
    def test_run_timed(self, objects, options):
        def sessions(size):
            return [run_timed(SessionOptions(
                pairs=tuple(srv_pair() for _ in range(objects)),
                channel=CHANNEL, encoding=ENC, **options))
                for _ in range(5 * size)]

        (small, at_1), (large, at_4) = garbage_at(sessions)
        assert len(large) == 4 * len(small)
        assert at_1 == at_4

    def test_run_timed_with_late_copies(self):
        # Duplicate- and reorder-heavy with retries on: data copies and
        # acks keep landing after both parties finished.  They carry the
        # party they answer, so nothing needs the cut peer links.
        channel = ChannelSpec(latency=0.01, bandwidth=1e6, faults=FaultSpec(
            drop=0.1, duplicate=0.5, reorder=0.5, reorder_window=0.05,
            seed=3))
        late = []

        def sessions(size):
            results = []
            for index in range(5 * size):
                tracer = Tracer()
                result = run_timed(SessionOptions(
                    pairs=(srv_pair(),), channel=channel, encoding=ENC,
                    fault_seed=index, tracer=tracer))
                late.extend(event for event in tracer.events
                            if event.kind == "message"
                            and event.time > result.completion_time)
                results.append(result)
            return results

        (small, at_1), (large, at_4) = garbage_at(sessions)
        assert len(large) == 4 * len(small)
        assert late  # copies did land after the session finished
        assert at_1 == at_4



class TestWhatAFinishedSessionRetains:
    def test_message_histograms_are_untracked(self):
        # A str -> int dict is invisible to the cycle collector; a
        # Counter per direction per session was not.
        _, result = lossy_fleet(1)
        assert result.totals.resumes > 0
        stats = [result.totals] + [r.result.stats for r in result.records]
        for direction in [s.forward for s in stats] \
                + [s.backward for s in stats]:
            assert type(direction.by_type) is dict
            assert not gc.is_tracked(direction.by_type)

    def test_tracked_objects_retained_per_session(self):
        # Per session: its record, result, stats and two directions, the
        # verdicts tuple and about one report per side.  Two Counters
        # more made it 10.4 on this fleet.
        def tracked_after(size):
            gc.collect()
            before = len(gc.get_objects())
            _, result = bench_shaped_fleet(size)
            gc.collect()
            return len(gc.get_objects()) - before, result.sessions

        tracked_after(1)  # warm-up: lazy imports and caches
        (small, small_sessions), (large, large_sessions) = (
            tracked_after(1), tracked_after(4))
        assert large_sessions > 3 * small_sessions
        assert (large - small) / (large_sessions - small_sessions) <= 9
