"""A fleet session holds the objects it syncs, not its endpoints whole.

Two sessions at one site on disjoint objects overlap; two on a shared
object serialize; an update waits only behind a session holding its own
object.  Overlap keeps the scheduling-independence guarantee: the
sequential replay of a sharded chaos fleet reproduces every session's
bits and timing, and the monitor's ancestor-closure oracle holds.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.channel import ChannelSpec
from repro.net.cluster import (ClusterConfig, ClusterRunner, launch_cluster,
                               replay_sequential)
from repro.net.sharding import ShardMap
from repro.net.topology import LinkProfile, TopologySpec
from repro.net.wire import Encoding
from repro.obs.causal import analyze_tracer
from repro.obs.monitor import ClusterMonitor, MonitorConfig
from repro.obs.trace import Tracer
from repro.workload.cluster import SessionRequest, UpdateRequest
from repro.workload.epidemic import (closing_sweep, epidemic_schedule,
                                     sharded_update_schedule)
from tests.helpers import session_timing

ENC = Encoding(site_bits=8, value_bits=16)
SLOW = ChannelSpec(latency=0.05, bandwidth=1e5)
#: Object 0 lives on A and B, object 1 on A and C, object 2 on all three.
SHARDS = ShardMap([("A", "B"), ("A", "C"), ("A", "B", "C")])


def run_sharded(sessions, updates=(), tracer=None):
    runner = ClusterRunner(
        ["A", "B", "C"],
        ClusterConfig(protocol="srv", channel=SLOW, encoding=ENC,
                      n_objects=3),
        shards=SHARDS, tracer=tracer)
    return runner.run(sessions, updates)


def commit_times(tracer):
    return {event.fields["session"]: event.time for event in tracer.events
            if event.kind == "session_commit"}


def overlapping_pairs(result, commits):
    """Pairs of sessions sharing a site where the later one started
    before the earlier one committed."""
    records = result.records
    return [(a.index, b.index) for a in records for b in records
            if a.index < b.index
            and {a.src, a.dst} & {b.src, b.dst}
            and b.started_at < commits[a.index]]


class TestAdmission:
    def test_sessions_on_disjoint_objects_overlap_at_a_shared_site(self):
        tracer = Tracer()
        result = run_sharded([SessionRequest(0.0, "B", "A", objs=(0,)),
                              SessionRequest(0.01, "C", "A", objs=(1,))],
                             tracer=tracer)
        first, second = result.records
        assert first.queue_wait == second.queue_wait == 0.0
        assert second.started_at < commit_times(tracer)[first.index]
        assert overlapping_pairs(result, commit_times(tracer)) == [(0, 1)]

    def test_sessions_on_a_shared_object_serialize(self):
        # C→A overlaps B→A (objects 0 and 2 at A); B→C then waits for
        # object 2 at C, though object 0 is all B→A holds at B.
        tracer = Tracer()
        result = run_sharded([SessionRequest(0.0, "B", "A", objs=(0,)),
                              SessionRequest(0.01, "C", "A", objs=(2,)),
                              SessionRequest(0.02, "B", "C", objs=(2,))],
                             tracer=tracer)
        _, second, third = result.records
        commits = commit_times(tracer)
        assert second.queue_wait == 0.0
        assert third.queue_wait > 0.0
        assert third.started_at == commits[second.index]

    def test_an_update_to_an_unheld_object_applies_at_once(self):
        tracer = Tracer()
        result = run_sharded([SessionRequest(0.0, "B", "A", objs=(0,))],
                             [UpdateRequest(0.01, "A", obj=1)],
                             tracer=tracer)
        assert result.updates_deferred == 0
        (update,) = [e for e in tracer.events if e.kind == "update"]
        assert update.time == 0.01
        assert result.log == [("session", "B", "A", (0,)),
                              ("update", "A", 1)]

    def test_an_update_to_a_held_object_waits_for_the_commit(self):
        tracer = Tracer()
        result = run_sharded([SessionRequest(0.0, "B", "A", objs=(0,))],
                             [UpdateRequest(0.01, "A", obj=0),
                              UpdateRequest(0.01, "A", obj=2)],
                             tracer=tracer)
        assert result.updates_deferred == 1
        unheld, held = [e.time for e in tracer.events if e.kind == "update"]
        assert unheld == 0.01
        assert held == commit_times(tracer)[0] > 0.01
        assert result.log == [("session", "B", "A", (0,)),
                              ("update", "A", 2), ("update", "A", 0)]


def sharded_chaos_fleet(loss, chaos_seed, seed, *, rounds=3, period=1.0,
                        tracer=None, monitor=None):
    """A 2×4 fleet at replication 2 over lossy interconnects, gossiping
    16 objects and closed by the leader sweep (whose pulls overlap)."""
    spec = TopologySpec.grid(
        2, 4, intra=LinkProfile(0.002, 1e6),
        inter=LinkProfile(0.04, 250e3, loss=loss),
        replication=2, seed=seed, chaos_seed=chaos_seed)
    runner = launch_cluster(spec, protocol="srv", n_objects=16,
                            batch_size=4,
                            encoding=Encoding.for_system(spec.n_sites, 64),
                            tracer=tracer, monitor=monitor)
    sessions = epidemic_schedule(spec, runner.shards, rounds=rounds,
                                 period=period, seed=seed)
    updates = sharded_update_schedule(spec, runner.shards, n_updates=24,
                                      seed=seed + 1)
    last = max([r.at for r in sessions] + [u.at for u in updates])
    sessions += closing_sweep(runner.shards, start=last + 1.0, settle=5.0)
    return runner, sessions, updates


@settings(max_examples=10, deadline=None)
@given(loss=st.floats(0.0, 0.2), chaos_seed=st.integers(0, 2**16),
       seed=st.integers(0, 2**16))
def test_overlapping_sharded_chaos_fleet_matches_its_sequential_replay(
        loss, chaos_seed, seed):
    tracer = Tracer()
    runner, sessions, updates = sharded_chaos_fleet(loss, chaos_seed, seed,
                                                    tracer=tracer)
    result = runner.run(sessions, updates)
    assert result.consistent()
    assert overlapping_pairs(result, commit_times(tracer))

    sequential, _ = replay_sequential(runner.sites, runner.config,
                                      result.log, shards=runner.shards)
    assert result.per_session_bits() \
        == [r.stats.total_bits for r in sequential]
    assert [session_timing(r.result) for r in result.records] \
        == [session_timing(r) for r in sequential]


def test_closure_oracle_runs_on_an_overlapping_fleet():
    monitor = ClusterMonitor(MonitorConfig(strict=True))
    checked = []
    check = monitor._check_closure

    def counting(record, snapshot, now):
        checked.append(record.index)
        check(record, snapshot, now)

    monitor._check_closure = counting
    runner, sessions, updates = sharded_chaos_fleet(0.05, 11, 3,
                                                    monitor=monitor)
    result = runner.run(sessions, updates)
    assert overlapping_pairs(result, commit_times(runner.tracer))
    assert sorted(checked) == [r.index for r in result.records]
    assert monitor.violation_count == 0


def test_analyzer_queue_wait_matches_a_request_behind_its_pair():
    """C→A on object 1 could start at once, but an older C→A request
    waits for object 2; starting it first would make the analyzer, which
    matches requests to starts FIFO per pair, pin the older wait on it."""
    tracer = Tracer()
    result = run_sharded([SessionRequest(0.0, "B", "A", objs=(2,)),
                          SessionRequest(0.01, "C", "A", objs=(2,)),
                          SessionRequest(0.02, "C", "A", objs=(1,))],
                         tracer=tracer)
    assert [r.objects for r in result.records] == [(2,), (2,), (1,)]
    commits = commit_times(tracer)
    assert result.records[1].started_at == result.records[2].started_at \
        == commits[0]
    waits = {summary["session"]: summary["queue_wait"]
             for summary in analyze_tracer(tracer).sessions}
    assert waits == {r.index: r.queue_wait for r in result.records}


def test_analyzer_queue_wait_matches_every_record_of_a_busy_fleet():
    tracer = Tracer()
    runner, sessions, updates = sharded_chaos_fleet(
        0.05, 11, 3, rounds=6, period=0.02, tracer=tracer)
    result = runner.run(sessions, updates)
    assert overlapping_pairs(result, commit_times(tracer))
    assert sum(r.queue_wait > 0 for r in result.records) > 5
    waits = {summary["session"]: summary["queue_wait"]
             for summary in analyze_tracer(tracer).sessions}
    assert waits == {r.index: r.queue_wait for r in result.records}
