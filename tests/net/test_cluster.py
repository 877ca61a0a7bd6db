"""Tests for the cluster runner: queues, deferred updates, accounting."""

import pytest

from repro.errors import (ConcurrentVectorsError, ReproError, SimulationError,
                          ValidationError)
from repro.net.channel import ChannelSpec
from repro.net.cluster import (ClusterConfig, ClusterRunner,
                               replay_sequential)
from repro.net.sharding import ShardMap
from repro.net.wire import Encoding
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.workload.cluster import (SessionRequest, UpdateRequest,
                                    gossip_schedule, site_names,
                                    update_schedule)
from tests.helpers import same_objects, session_timing

ENC = Encoding(site_bits=8, value_bits=16)
#: A slow link so sessions have measurable duration in simulated time.
SLOW = ChannelSpec(latency=0.05, bandwidth=1e5)


def config(**overrides):
    defaults = dict(protocol="srv", channel=SLOW, encoding=ENC)
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def run_cluster(sites, sessions, updates=(), cfg=None, **runner_kwargs):
    runner = ClusterRunner(sites, cfg or config(), **runner_kwargs)
    return runner.run(sessions, updates)


class TestValidation:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            config(protocol="vv")

    def test_duplicate_site_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate site"):
            ClusterRunner(["A", "B", "A"], config())

    def test_unknown_site_in_schedule_rejected(self):
        with pytest.raises(ValueError, match="unknown site"):
            run_cluster(["A", "B"], [SessionRequest(0.0, "A", "Z")])

    def test_self_session_rejected(self):
        with pytest.raises(ValueError, match="itself"):
            run_cluster(["A", "B"], [SessionRequest(0.0, "A", "A")])

    def test_runner_is_one_shot(self):
        runner = ClusterRunner(["A", "B"], config())
        runner.run([SessionRequest(0.0, "A", "B")])
        with pytest.raises(SimulationError, match="one-shot"):
            runner.run([SessionRequest(0.0, "A", "B")])

    #: Objects 0 and 1 replicated on A+B and B+C.
    SHARDS = ShardMap([("A", "B"), ("B", "C")])

    @pytest.mark.parametrize("match, build", [
        ("unknown protocol", lambda: config(protocol="vv")),
        ("n_objects", lambda: config(n_objects=0)),
        ("batch_size", lambda: config(batch_size=0)),
        ("proc_time", lambda: config(proc_time=-0.001)),
        ("max_steps", lambda: config(max_steps=0)),
        ("duplicate site", lambda: ClusterRunner(["A", "A"], config())),
        ("shard map covers", lambda: ClusterRunner(
            ["A", "B", "C"], config(), shards=TestValidation.SHARDS)),
        ("outside the cluster", lambda: ClusterRunner(
            ["A", "B"], config(n_objects=2), shards=TestValidation.SHARDS)),
        ("unknown site", lambda: run_cluster(
            ["A", "B"], [SessionRequest(0.0, "A", "Z")])),
        ("itself", lambda: run_cluster(
            ["A", "B"], [SessionRequest(0.0, "A", "A")])),
        ("names object", lambda: run_cluster(
            ["A", "B"], [], [UpdateRequest(0.0, "A", obj=1)])),
        ("does not replicate", lambda: run_cluster(
            ["A", "B", "C"], [], [UpdateRequest(0.0, "A", obj=1)],
            cfg=config(n_objects=2), shards=TestValidation.SHARDS)),
        ("does not share", lambda: run_cluster(
            ["A", "B", "C"], [SessionRequest(0.0, "A", "B", objs=(1,))],
            cfg=config(n_objects=2), shards=TestValidation.SHARDS)),
    ])
    def test_every_rejection_raises_the_package_error(self, match, build):
        with pytest.raises(ReproError, match=match):
            build()

    @pytest.mark.parametrize("field", [
        "proc_time", "batch_size", "max_steps", "n_objects"])
    def test_nan_rejected(self, field):
        # NaN compares false both ways, so a `value < minimum` check
        # lets it through.
        with pytest.raises(ValidationError, match=field):
            config(**{field: float("nan")})

    def test_unshared_objects_are_rejected_before_the_clock_starts(self):
        # Regression: the request was checked only when it fired, after
        # the t=0 update had already written site A's object 0.
        runner = ClusterRunner(["A", "B", "C"], config(n_objects=2),
                               shards=self.SHARDS)
        with pytest.raises(ReproError, match="does not share"):
            runner.run([SessionRequest(5.0, "A", "B", objs=(1,))],
                       [UpdateRequest(0.0, "A", obj=0)])
        assert len(runner.objects["A"][0]) == 0


class TestQueueing:
    def test_busy_endpoint_queues_second_session(self):
        # Both sessions want A's object at t=0: one holder serializes them.
        result = run_cluster(
            ["A", "B", "C"],
            [SessionRequest(0.0, "A", "B"), SessionRequest(0.01, "A", "C")])
        first, second = result.records
        assert first.queue_wait == 0.0
        assert second.queue_wait > 0.0
        assert second.started_at >= first.result.completion_time
        assert result.max_queue_wait == second.queue_wait

    def test_disjoint_sessions_run_concurrently(self):
        # A↔B and C↔D share no endpoint: both start when requested.
        result = run_cluster(
            ["A", "B", "C", "D"],
            [SessionRequest(0.0, "A", "B"), SessionRequest(0.0, "C", "D")])
        assert all(r.queue_wait == 0.0 for r in result.records)
        # Interleaved, not serialized: the cluster finishes in one
        # session's duration, not two.
        solo = run_cluster(["A", "B"], [SessionRequest(0.0, "A", "B")])
        assert result.completion_time == solo.completion_time

    def test_queued_sessions_start_oldest_first(self):
        requests = [SessionRequest(0.0, "A", "B"),
                    SessionRequest(0.01, "A", "C"),
                    SessionRequest(0.02, "A", "D")]
        result = run_cluster(["A", "B", "C", "D"], requests)
        started = [(r.src, r.dst) for r in result.records]
        assert started == [("A", "B"), ("A", "C"), ("A", "D")]
        times = [r.started_at for r in result.records]
        assert times == sorted(times)

    def test_a_request_listed_twice_keeps_both_request_times(self):
        # Regression: request times were keyed by id(request), so a
        # schedule reusing one SessionRequest object overwrote the first
        # waiter's entry and reported queue_wait == 0.0 for the second.
        first = SessionRequest(0.0, "A", "B")
        again = SessionRequest(0.001, "A", "B")
        aliased = run_cluster(["A", "B"], [first, again, again])
        distinct = run_cluster(
            ["A", "B"], [first, again, SessionRequest(0.001, "A", "B")])
        waits = [r.queue_wait for r in aliased.records]
        assert waits == [r.queue_wait for r in distinct.records]
        assert waits[0] == 0.0
        assert 0.0 < waits[1] < waits[2]
        assert [r.requested_at for r in aliased.records] == [0.0, 0.001,
                                                             0.001]


class TestDeferredUpdates:
    def test_update_during_session_is_deferred(self):
        # The update lands at 0.02, mid-session (the session outlives it).
        result = run_cluster(
            ["A", "B"],
            [SessionRequest(0.0, "A", "B")],
            updates=[UpdateRequest(0.02, "B")])
        assert result.updates_deferred == 1
        assert result.updates_applied == 1
        # The realized order has the session first: the update waited.
        assert result.log == [("session", "A", "B", (0,)),
                              ("update", "B", 0)]
        assert result.objects["B"][0]["B"] >= 1

    def test_update_on_idle_site_applies_immediately(self):
        result = run_cluster(
            ["A", "B", "C"],
            [SessionRequest(1.0, "A", "B")],
            updates=[UpdateRequest(0.0, "C")])
        assert result.updates_deferred == 0
        assert result.log[0] == ("update", "C", 0)

    def test_deferred_update_applies_before_queued_session_starts(self):
        # Session 2 queues behind session 1 on B; the update deferred
        # during session 1 must land before session 2 reads B's vector.
        result = run_cluster(
            ["A", "B", "C"],
            [SessionRequest(0.0, "A", "B"), SessionRequest(0.01, "C", "B")],
            updates=[UpdateRequest(0.02, "B")])
        assert result.updates_deferred == 1
        session_entries = [e for e in result.log if e[0] == "session"]
        assert result.log.index(("update", "B", 0)) \
            < result.log.index(session_entries[1])


class TestAccounting:
    def test_brv_raises_on_concurrent_vectors(self):
        sites = ["A", "B"]
        with pytest.raises(ConcurrentVectorsError):
            run_cluster(
                sites,
                [SessionRequest(1.0, "A", "B")],
                updates=[UpdateRequest(0.0, "A"), UpdateRequest(0.1, "B")],
                cfg=config(protocol="brv"))

    def test_deterministic_across_runs(self):
        sites = site_names(6)
        sessions = gossip_schedule(sites, rounds=3, seed=3)
        updates = update_schedule(sites, n_updates=10, seed=4)
        first = run_cluster(sites, sessions, updates)
        second = run_cluster(sites, sessions, updates)
        assert first.per_session_bits() == second.per_session_bits()
        assert first.log == second.log
        assert first.completion_time == second.completion_time

    @pytest.mark.parametrize("protocol", ["crv", "srv"])
    def test_concurrent_bits_equal_sequential_replay(self, protocol):
        sites = site_names(8)
        sessions = gossip_schedule(sites, rounds=4, seed=11)
        updates = update_schedule(sites, n_updates=20, seed=12)
        cfg = config(protocol=protocol)
        result = run_cluster(sites, sessions, updates, cfg=cfg)
        assert result.reconciliations > 0  # the interesting regime
        sequential, objects = replay_sequential(sites, cfg, result.log)
        assert result.per_session_bits() \
            == [r.stats.total_bits for r in sequential]
        # Integer time: each session takes the same nanoseconds wherever
        # on the clock it runs.
        assert [session_timing(r.result) for r in result.records] \
            == [session_timing(r) for r in sequential]
        assert same_objects(result.objects, objects)

    def test_brv_single_writer_matches_replay(self):
        sites = site_names(6)
        sessions = gossip_schedule(sites, rounds=4, seed=5)
        updates = update_schedule(sites, n_updates=8, seed=6,
                                  writers=[sites[0]])
        cfg = config(protocol="brv")
        result = run_cluster(sites, sessions, updates, cfg=cfg)
        sequential, _ = replay_sequential(sites, cfg, result.log)
        assert result.per_session_bits() \
            == [r.stats.total_bits for r in sequential]

    def test_totals_are_the_sum_of_sessions(self):
        sites = site_names(5)
        result = run_cluster(sites,
                             gossip_schedule(sites, rounds=2, seed=7),
                             update_schedule(sites, n_updates=6, seed=8))
        assert result.total_bits == sum(result.per_session_bits())
        assert result.sessions == len(result.records)

    def test_enough_gossip_converges(self):
        sites = site_names(4)
        updates = update_schedule(sites, n_updates=6, interval=0.05, seed=9)
        # Many rounds after the last update: every site hears everything.
        sessions = gossip_schedule(sites, rounds=8, seed=10)
        result = run_cluster(sites, sessions, updates)
        assert result.consistent()


class TestObservability:
    def test_metrics_and_tracer_integration(self):
        metrics = MetricsRegistry()
        tracer = Tracer()
        sites = site_names(4)
        sessions = gossip_schedule(sites, rounds=2, seed=13)
        updates = update_schedule(sites, n_updates=4, seed=14)
        result = run_cluster(sites, sessions, updates,
                             tracer=tracer, metrics=metrics)
        assert metrics.counter("cluster.srv.sessions").value \
            == result.sessions
        waits = metrics.histogram("cluster.queue_wait_seconds")
        assert waits.count == result.sessions
        assert metrics.counter("cluster.updates").value \
            == result.updates_applied
        # The span wraps the whole run and events carry the sim clock.
        names = [e.fields["name"] for e in tracer.select("span_start")]
        assert "cluster:srv" in names
        event_times = [e.time for e in tracer.events if e.time is not None]
        assert max(event_times) == result.completion_time
        # The runner restored the tracer's clock binding on exit.
        assert tracer.clock is None

    def test_tracer_clock_restored_after_error(self):
        tracer = Tracer()
        runner = ClusterRunner(["A", "B"], config(protocol="brv"),
                               tracer=tracer)
        with pytest.raises(ConcurrentVectorsError):
            runner.run([SessionRequest(1.0, "A", "B")],
                       [UpdateRequest(0.0, "A"), UpdateRequest(0.1, "B")])
        assert tracer.clock is None
