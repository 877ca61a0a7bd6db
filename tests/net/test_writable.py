"""What a session can write at its receiver, and where it writes it.

On a faulted link a fleet attempt merges only the receiver's objects
whose verdict (``receiver.compare(sender)``) is ``BEFORE`` or
``CONCURRENT`` into fresh copies, which the commit installs; it reads
the rest in place.  That is sound only if no registered receiver ever
writes a vector that already covers the sender's, on any driver, torn
attempts included.  The property tests below check that claim byte for
byte, and that until its commit a faulted session leaves every live
receiver object as it found it.  The cluster tests check that a resumed
session over a mix of covered and behind objects ends exactly where a
fault-free run of the same schedule ends, that a perfect link copies
nothing, and that a faulted one copies exactly what it can write, once
per attempt.
"""

import pickle
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.order import Ordering
from repro.errors import SessionError
from repro.net.channel import ChannelSpec
from repro.net.cluster import ClusterConfig, ClusterRunner
from repro.net.faults import FaultSpec, RetryPolicy, chaos_faults
from repro.net.runner import SessionOptions, run_timed
from repro.net.wire import Encoding
from repro.protocols import registry
from repro.protocols.session import run_session
from repro.workload.cluster import (SessionRequest, UpdateRequest,
                                    gossip_schedule, site_names,
                                    update_schedule)
from tests.helpers import RunnerHooks, build_history

ENC = Encoding(site_bits=8, value_bits=16)

N_SITES = 4
update_command = st.tuples(st.just("update"), st.integers(0, N_SITES - 1))
sync_command = st.tuples(st.just("sync"), st.integers(0, N_SITES - 1),
                         st.integers(0, N_SITES - 1))
commands = st.lists(st.one_of(update_command, sync_command), max_size=25)
site_pairs = st.tuples(st.integers(0, N_SITES - 1),
                       st.integers(1, N_SITES - 1))


def raw_state(vector):
    """Every field of the vector's array order, pickled, except the
    element views a read may build lazily."""
    order = vector.order
    return pickle.dumps([getattr(order, slot)
                         for slot in type(order).__slots__
                         if slot != "_views"])


def covering_pair(protocol, commands, pair):
    """(receiver, sender, verdict) from a legal history, the receiver
    having just pulled from the sender so that it usually covers it."""
    receiver_index, offset = pair
    sender_index = (receiver_index + offset) % N_SITES
    vectors = build_history(registry.get(protocol).vector_cls,
                            [*commands, ("sync", receiver_index,
                                         sender_index)], N_SITES)
    receiver, sender = vectors[receiver_index], vectors[sender_index]
    verdict = receiver.compare(sender)
    assume(verdict in (Ordering.EQUAL, Ordering.AFTER))
    return receiver, sender, verdict


@pytest.mark.parametrize("protocol", registry.names())
class TestACoveringReceiverIsNeverWritten:
    @settings(max_examples=40, deadline=None)
    @given(commands=commands, pair=site_pairs)
    def test_instant(self, protocol, commands, pair):
        receiver, sender, verdict = covering_pair(protocol, commands, pair)
        before = raw_state(receiver)
        sending, receiving, reconciled = registry.get(protocol).build(
            sender, receiver, verdict)
        run_session(sending, receiving, encoding=ENC)
        assert not reconciled
        assert raw_state(receiver) == before

    @settings(max_examples=25, deadline=None)
    @given(commands=commands, pair=site_pairs,
           fault_seed=st.integers(0, 2**16))
    def test_timed_arq_with_torn_attempts(self, protocol, commands, pair,
                                          fault_seed):
        receiver, sender, verdict = covering_pair(protocol, commands, pair)
        before = raw_state(receiver)
        spec = registry.get(protocol)
        faults = FaultSpec(drop=0.3, duplicate=0.1, reorder=0.2,
                           reorder_window=0.05, seed=fault_seed)
        # No copies between attempts: each one starts from whatever
        # the torn one left, which must be the untouched receiver.
        options = SessionOptions(
            rebuild=lambda: (spec.build(sender, receiver, verdict)[:2],),
            channel=ChannelSpec(latency=0.01, bandwidth=1e6, faults=faults),
            encoding=ENC, retry=RetryPolicy(max_retries=1, initial_rto=0.1,
                                            max_session_attempts=4))
        try:
            run_timed(options)
        except SessionError:
            pass  # abandoned: its attempts must not have written either
        assert raw_state(receiver) == before


class TestAResumedSessionRestoresWhatItCanWrite:
    """S1 pulls four sites' object-1 elements, then S0 pulls from S1:
    object 0 is EQUAL, object 1 BEFORE by four elements, and with no
    retransmission every lost message tears an attempt mid-stream."""

    SITES = ["S0", "S1", "S2", "S3", "S4", "S5"]
    UPDATES = [UpdateRequest(0.0, "S1", obj=0)] + [
        UpdateRequest(0.0, site, obj=1) for site in SITES[1:]]
    SESSIONS = [SessionRequest(1.0, "S1", "S0")] + [
        SessionRequest(10.0 * i, site, "S1")
        for i, site in enumerate(SITES[2:], start=1)] + [
        SessionRequest(100.0, "S1", "S0")]

    def run(self, faults):
        config = ClusterConfig(
            protocol="srv", n_objects=2, encoding=ENC,
            channel=ChannelSpec(latency=0.01, bandwidth=1e6, faults=faults),
            retry=RetryPolicy(max_retries=0, max_session_attempts=64))
        return ClusterRunner(self.SITES, config).run(self.SESSIONS,
                                                     self.UPDATES)

    def test_ends_exactly_where_a_fault_free_run_ends(self):
        lossy = self.run(chaos_faults(0.1, latency=0.01, seed=4))
        clean = self.run(FaultSpec())
        last = lossy.records[-1]
        assert last.verdicts == (Ordering.EQUAL, Ordering.BEFORE)
        assert last.result.stats.resumes > 0
        for site in self.SITES:
            assert lossy.objects[site].keys() == clean.objects[site].keys()
            for obj, got in lossy.objects[site].items():
                assert got.same_structure(clean.objects[site][obj])


WRITABLE = (Ordering.BEFORE, Ordering.CONCURRENT)


def lossy_fleet(loss, chaos_seed, workload_seed, *, n_objects=2,
                monitor=None):
    """A 4-site SRV gossip fleet on a lossy link whose sessions tear
    and resume, not yet run: ``(runner, sessions, updates)``."""
    config = ClusterConfig(
        protocol="srv", n_objects=n_objects, batch_size=2, encoding=ENC,
        channel=ChannelSpec(latency=0.01, bandwidth=1e6,
                            faults=chaos_faults(loss, latency=0.01,
                                                seed=chaos_seed)),
        retry=RetryPolicy(max_retries=0, initial_rto=0.05,
                          max_session_attempts=200))
    sites = site_names(4)
    updates = update_schedule(sites, n_updates=12, interval=0.05,
                              seed=workload_seed, n_objects=n_objects)
    sessions = gossip_schedule(sites, rounds=3, seed=workload_seed + 1)
    return ClusterRunner(sites, config, monitor=monitor), sessions, updates


def counting_copies(monkeypatch, runner):
    """Count every vector copy by the ``(site, obj)`` entry of
    ``runner.objects`` it copies, at the moment it copies it."""
    copied = Counter()
    cls = registry.get(runner.config.protocol).vector_cls
    real_copy = cls.copy

    def copy(vector):
        copied.update((site, obj)
                      for site, table in runner.objects.items()
                      for obj, live in table.items() if live is vector)
        return real_copy(vector)

    monkeypatch.setattr(cls, "copy", copy)
    return copied


class TestCopiesOnlyWhereAnAttemptCanTear:
    def test_a_perfect_link_copies_no_vector(self, monkeypatch):
        config = ClusterConfig(protocol="srv", n_objects=3, batch_size=2,
                               encoding=ENC)
        sites = site_names(4)
        runner = ClusterRunner(sites, config)
        copied = counting_copies(monkeypatch, runner)
        result = runner.run(
            gossip_schedule(sites, rounds=3, seed=1),
            update_schedule(sites, n_updates=12, interval=0.05, seed=0,
                            n_objects=3))
        assert any(verdict in WRITABLE for record in result.records
                   for verdict in record.verdicts)
        assert not copied

    def test_a_faulted_session_copies_what_it_can_write_per_attempt(
            self, monkeypatch):
        runner, sessions, updates = lossy_fleet(0.2, chaos_seed=0,
                                                workload_seed=5)
        copied = counting_copies(monkeypatch, runner)
        result = runner.run(sessions, updates)
        expected = Counter()
        for record in result.records:
            attempts = record.result.stats.resumes + 1
            for obj, verdict in zip(record.objects, record.verdicts):
                if verdict in WRITABLE:
                    expected[record.dst, obj] += attempts
        assert sum(r.result.stats.resumes for r in result.records) > 0
        assert copied == expected


class LiveStateCheck(RunnerHooks):
    """Checks, before every simulator step, that each session between
    its start and its commit leaves its receiver objects in
    ``runner.objects`` as they were when it started: the same vectors,
    in the same state."""

    def __init__(self):
        self.live = {}
        self.steps = 0

    def attach(self, runner):
        super().attach(runner)
        runner.sim.tracer = self

    def on_session_start(self, record):
        table = self.runner.objects[record.dst]
        self.live[record.index] = [
            (table, obj, table[obj], table[obj].order.as_tuples())
            for obj in record.objects]

    def on_session_commit(self, record):
        del self.live[record.index]

    def event(self, kind, **fields):
        # The simulator reports each dispatch here, before running it.
        self.steps += 1
        for held in self.live.values():
            for table, obj, vector, rows in held:
                assert table[obj] is vector
                assert vector.order.as_tuples() == rows


@settings(max_examples=15, deadline=None)
@given(loss=st.floats(0.05, 0.3), chaos_seed=st.integers(0, 2**16),
       workload_seed=st.integers(0, 2**16))
def test_live_receivers_hold_committed_state_until_the_commit(
        loss, chaos_seed, workload_seed):
    check = LiveStateCheck()
    runner, sessions, updates = lossy_fleet(loss, chaos_seed, workload_seed,
                                            monitor=check)
    result = runner.run(sessions, updates)
    assert not check.live
    assert check.steps > 0
    assert result.records
