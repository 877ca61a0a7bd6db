"""What a session can write at its receiver, and what a resume restores.

A transactional attempt snapshots only the receiver's objects whose
verdict (``receiver.compare(sender)``) is ``BEFORE`` or ``CONCURRENT``.
That is sound only if no registered receiver ever writes a vector that
already covers the sender's, on any driver, torn attempts included.  The
property test below checks that claim byte for byte; the cluster test
checks that a resumed session over a mix of covered and behind objects
ends exactly where a fault-free run of the same schedule ends.
"""

import pickle

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
from repro.workload.cluster import SessionRequest, UpdateRequest
from tests.helpers import build_history

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
        # No restore between attempts: each one starts from whatever
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
            for got, want in zip(lossy.objects[site], clean.objects[site]):
                assert got.same_structure(want)
