"""The commit point: a session releases its sites when both coroutines of
its final attempt have returned, not when its parties finish draining.

At the commit the receiver holds its whole Δ — ancestor-closed — and
neither vector is iterated again, so the owner applies §2.2, runs the
closure oracle and frees the endpoints there.  The parties still drain
their acks; an abort during that drain completes the attempt, with no
restore and no resume.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.channel import ChannelSpec, serialization_ns
from repro.net.cluster import ClusterConfig, ClusterRunner, replay_sequential
from repro.net.faults import FaultSpec, RetryPolicy, chaos_faults
from repro.net.simulator import to_ns
from repro.net.wire import Encoding
from repro.obs import Tracer
from repro.obs import trace as obs
from repro.workload.cluster import (SessionRequest, UpdateRequest,
                                    gossip_schedule, site_names,
                                    update_schedule)
from tests.helpers import same_objects

ENC = Encoding(site_bits=8, value_bits=16)
LATENCY, BANDWIDTH = 0.01, 1e5


def arq_channel(**faults):
    """A link with the ARQ transport engaged; by default no fault fires
    (the only partition is far in the future)."""
    faults.setdefault("partitions", ((100.0, 101.0),))
    return ChannelSpec(latency=LATENCY, bandwidth=BANDWIDTH,
                       faults=FaultSpec(**faults))


def two_site_run(channel, *, sessions, retry=None, tracer=None):
    config = ClusterConfig(protocol="srv", channel=channel, encoding=ENC,
                           retry=retry or RetryPolicy())
    updates = [UpdateRequest(0.0, "A"), UpdateRequest(0.0, "A"),
               UpdateRequest(0.0, "B")]
    return config, ClusterRunner(["A", "B"], config, tracer=tracer).run(
        sessions, updates)


def vv(vector):
    return vector.to_version_vector().as_dict()


class TestReleaseAtCommit:
    def test_queued_session_starts_one_ack_trip_before_completion(self):
        # B pulls from A; A's pull from B, requested a moment later,
        # waits for both sites.  No fault fires, so the first session
        # commits at its last delivery and completes when that message's
        # ack is back at A.
        channel = arq_channel()
        _, result = two_site_run(channel, sessions=[
            SessionRequest(0.01, "A", "B"), SessionRequest(0.011, "B", "A")])
        first, second = result.records
        assert result.totals.retries == 0
        assert second.started_at > second.requested_at
        ack_trip = serialization_ns(channel.ack_bits, channel.bandwidth) \
            + channel.latency_ns
        assert to_ns(first.result.completion_time) \
            - to_ns(second.started_at) == ack_trip

    def test_commit_is_traced_before_the_end(self):
        tracer = Tracer()
        two_site_run(arq_channel(), sessions=[SessionRequest(0.01, "A", "B")],
                     tracer=tracer)
        (commit,) = tracer.select(obs.SESSION_COMMIT)
        (end,) = tracer.select(obs.SESSION_END)
        assert commit.seq < end.seq and commit.time < end.time

    def test_perfect_link_commits_at_completion(self):
        perfect = ChannelSpec(latency=LATENCY, bandwidth=BANDWIDTH)
        _, result = two_site_run(perfect, sessions=[
            SessionRequest(0.01, "A", "B"), SessionRequest(0.011, "B", "A")])
        first, second = result.records
        assert second.started_at == first.result.completion_time


class TestAbortAfterCommit:
    @staticmethod
    def commit_time():
        tracer = Tracer()
        two_site_run(arq_channel(), sessions=[SessionRequest(0.01, "A", "B")],
                     tracer=tracer)
        (commit,) = tracer.select(obs.SESSION_COMMIT)
        return commit.time

    def test_lost_final_acks_complete_the_session(self):
        # The link goes down for good at the instant the receiver
        # returns: every ack of the sender's last message, and every
        # retransmission of it, is lost, so the sender's retry budget
        # runs out after the commit.
        commit, start = self.commit_time(), 0.01
        channel = arq_channel(partitions=((commit, 1e9),))
        retry = RetryPolicy(max_retries=2, initial_rto=0.05,
                            max_session_attempts=3)
        tracer = Tracer()
        config, result = two_site_run(
            channel, sessions=[SessionRequest(0.01, "A", "B")], retry=retry,
            tracer=tracer)
        (record,) = result.records
        stats = record.result.stats
        assert tracer.count(obs.SESSION_ABORT) == 1
        assert stats.timeouts == retry.max_retries + 1
        assert stats.resumes == 0
        # B kept the applied Δ (and its §2.2 self-increment).
        assert vv(result.objects["B"][0]) == {"A": 2, "B": 2}
        # A replayed session starts its clock at 0: the partition moves
        # with it.
        replay_config = replace(config, channel=arq_channel(
            partitions=((commit - start, 1e9),)))
        sequential, objects = replay_sequential(["A", "B"], replay_config,
                                                result.log)
        assert [s.stats for s in sequential] == [stats]
        assert same_objects(result.objects, objects)


class CheckedRunner(ClusterRunner):
    """Checks, at every commit, that the receiver holds exactly the
    element-wise max of its pre-session state and the sender's."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pre = {}
        self.commits = 0

    def _build_pairs(self, record):
        # A resume restores the receiver first, so every build sees the
        # pre-session state; keep the first.
        self.pre.setdefault(record.index, [
            (vv(self.objects[record.dst][obj]),
             vv(self.objects[record.src][obj])) for obj in record.objects])
        return super()._build_pairs(record)

    def _commit(self, record):
        for obj, (dst_pre, src_state) in zip(record.objects,
                                             self.pre.pop(record.index)):
            expected = dict(dst_pre)
            for site, value in src_state.items():
                expected[site] = max(value, expected.get(site, 0))
            assert vv(self.objects[record.dst][obj]) == expected
        self.commits += 1
        super()._commit(record)


@settings(max_examples=15, deadline=None)
@given(protocol=st.sampled_from(["brv", "crv", "srv"]),
       batch_size=st.sampled_from([1, 3]),
       loss=st.floats(0.05, 0.3),
       chaos_seed=st.integers(0, 2**16),
       workload_seed=st.integers(0, 2**16))
def test_lossy_fleet_commits_exactly_and_replays(protocol, batch_size, loss,
                                                 chaos_seed, workload_seed):
    n_objects = 1 if batch_size == 1 else 3
    config = ClusterConfig(
        protocol=protocol, n_objects=n_objects, batch_size=batch_size,
        channel=ChannelSpec(latency=LATENCY, bandwidth=1e6,
                            faults=chaos_faults(loss, latency=LATENCY,
                                                seed=chaos_seed)),
        encoding=ENC,
        retry=RetryPolicy(max_retries=2, initial_rto=0.05,
                          max_session_attempts=30))
    sites = site_names(4)
    writers = [sites[0]] if protocol == "brv" else None
    updates = update_schedule(sites, n_updates=8, interval=0.05,
                              seed=workload_seed, writers=writers,
                              n_objects=n_objects)
    sessions = gossip_schedule(sites, rounds=3, seed=workload_seed + 1)
    runner = CheckedRunner(sites, config)
    result = runner.run(sessions, updates)
    assert runner.commits == len(result.records)

    sequential, objects = replay_sequential(sites, config, result.log)
    assert [r.result.stats for r in result.records] \
        == [s.stats for s in sequential]
    assert same_objects(result.objects, objects)
