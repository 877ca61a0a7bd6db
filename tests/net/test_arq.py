"""The reliable ARQ transport: retries, resume, accounting, the window.

The contract under test: any seeded fault schedule either converges to
exactly the fault-free end state (retransmission is invisible to the
protocol layer) or aborts loudly after the configured budgets — and the
wire accounting always splits into goodput plus retransmitted bits.
The window is open: a sender streams ahead of its acknowledgments.
"""

import random

import pytest

from repro.core.skip import SkipRotatingVector
from repro.errors import SessionError, SimulationError
from repro.net.channel import ChannelSpec, serialization_ns
from repro.net.faults import FaultSpec, RetryPolicy
from repro.net.runner import SessionOptions, launch, run_timed
from repro.net.simulator import Simulator, to_ns
from repro.net.wire import Encoding
from repro.obs import Tracer
from repro.protocols.effects import RECV, Send
from repro.protocols.messages import Halt
from repro.protocols.session import run_session
from repro.protocols.syncs import syncs_receiver, syncs_sender
from tests.helpers import ShadowAttempts, scripted

ENC = Encoding(site_bits=8, value_bits=16)


def divergent_pair(extra=()):
    a = SkipRotatingVector.from_pairs([("A", 1)])
    b = a.copy()
    a.record_update("A")
    for site in ("B", "C", "B") + tuple(extra):
        b.record_update(site)
    return a, b


def srv_options(a, b, *, faults, retry=None, tracer=None, fault_seed=None):
    channel = ChannelSpec(latency=0.01, bandwidth=1e6, faults=faults)
    retry = retry or RetryPolicy()
    reconcile = a.compare(b).is_concurrent
    return SessionOptions.for_pair(
        syncs_sender(b, tracer=tracer),
        syncs_receiver(a, reconcile=reconcile, tracer=tracer),
        channel=channel, encoding=ENC, retry=retry, tracer=tracer,
        fault_seed=fault_seed)


def resumable_options(a, b, *, faults, retry):
    """Resumable session pulling ``b`` into ``a``: ``(attempts, options)``.

    Implements the rebuild contract: attempts are transactional, so
    each one merges into a fresh copy of ``a``, and ``attempts.latest``
    holds the receiver the last one wrote.
    """
    channel = ChannelSpec(latency=0.01, bandwidth=1e6, faults=faults)

    def make_pairs(copies):
        (receiver,) = copies
        return ((syncs_sender(b),
                 syncs_receiver(receiver,
                                reconcile=receiver.compare(b).is_concurrent)),)

    attempts = ShadowAttempts([a], make_pairs)
    return attempts, SessionOptions(rebuild=attempts, channel=channel,
                                    encoding=ENC, retry=retry)


def resume_oracle():
    """The fault-free end state of the resume tests' session."""
    oracle_a, oracle_b = divergent_pair(extra=("D", "E", "F", "G"))
    run_session(
        syncs_sender(oracle_b),
        syncs_receiver(oracle_a,
                       reconcile=oracle_a.compare(oracle_b).is_concurrent),
        encoding=ENC)
    return oracle_a


def fault_free_oracle():
    """The end state of the same sync on a perfect channel."""
    a, b = divergent_pair()
    run_session(syncs_sender(b),
                syncs_receiver(a, reconcile=a.compare(b).is_concurrent),
                encoding=ENC)
    return a


class TestLossRecovery:
    def test_converges_under_drop_with_retries_counted(self):
        a, b = divergent_pair()
        result = run_timed(srv_options(
            a, b, faults=FaultSpec(drop=0.3, seed=2)))
        assert a.same_values(fault_free_oracle())
        assert result.stats.retries > 0
        assert result.stats.timeouts > 0

    def test_goodput_identity_holds_exactly(self):
        for seed in range(6):
            a, b = divergent_pair()
            result = run_timed(srv_options(
                a, b, faults=FaultSpec(drop=0.25, duplicate=0.2, reorder=0.3,
                                       reorder_window=0.1, seed=seed)))
            stats = result.stats
            assert stats.total_retransmitted_bits \
                == stats.total_bits - stats.total_goodput_bits
            assert a.same_values(fault_free_oracle()), seed

    def test_duplicates_are_invisible_to_the_protocol(self):
        a, b = divergent_pair()
        result = run_timed(srv_options(
            a, b, faults=FaultSpec(duplicate=0.9, reorder_window=0.05,
                                   seed=4)))
        assert a.same_values(fault_free_oracle())
        # Duplicate data copies trigger repeat acks, accounted as
        # retransmitted-class traffic — never as goodput.
        assert result.stats.total_retransmitted_bits > 0
        assert result.stats.retries == 0

    def test_reordering_never_reorders_the_protocol_stream(self):
        a, b = divergent_pair(extra=("D", "E", "D", "F"))
        run_timed(srv_options(
            a, b, faults=FaultSpec(reorder=0.8, reorder_window=0.5, seed=6)))
        oracle_a, oracle_b = divergent_pair(extra=("D", "E", "D", "F"))
        run_session(
            syncs_sender(oracle_b),
            syncs_receiver(oracle_a,
                           reconcile=oracle_a.compare(oracle_b).is_concurrent),
            encoding=ENC)
        assert a.same_values(oracle_a)

    def test_zero_fault_reliable_transport_still_converges(self):
        a, b = divergent_pair()
        result = run_timed(srv_options(a, b, faults=FaultSpec()))
        assert a.same_values(fault_free_oracle())
        assert result.stats.retries == 0
        assert result.stats.total_retransmitted_bits == 0


class TestBudgetsAndResume:
    def test_exhausted_retry_budget_aborts_loudly(self):
        a, b = divergent_pair()
        with pytest.raises(SessionError):
            run_timed(srv_options(
                a, b, faults=FaultSpec(drop=1.0),
                retry=RetryPolicy(max_retries=2, initial_rto=0.1)))

    def test_resume_rebuilds_and_converges(self):
        # At drop 0.4 some seeds exhaust these budgets; every seed that
        # completes must have converged, and many must have resumed.
        resumed = 0
        for seed in range(40):
            a, b = divergent_pair(extra=("D", "E", "F", "G"))
            attempts, options = resumable_options(
                a, b, faults=FaultSpec(drop=0.4, seed=seed),
                retry=RetryPolicy(max_retries=1, initial_rto=0.1,
                                  max_session_attempts=25))
            try:
                result = run_timed(options)
            except SessionError:
                continue
            (installed,) = attempts.latest
            assert installed.same_values(resume_oracle()), seed
            resumed += result.stats.resumes > 0 and result.stats.retries > 0
        assert resumed >= 5

    def test_resume_budget_exhaustion_raises(self):
        a, b = divergent_pair()
        with pytest.raises(SessionError):
            run_timed(resumable_options(
                a, b, faults=FaultSpec(drop=1.0),
                retry=RetryPolicy(max_retries=1, initial_rto=0.05,
                                  max_session_attempts=3))[1])

    def test_partition_window_heals(self):
        """Traffic inside the window is lost; the session outlives it."""
        a, b = divergent_pair()
        result = run_timed(srv_options(
            a, b, faults=FaultSpec(partitions=((0.0, 0.5),)),
            retry=RetryPolicy(initial_rto=0.2, max_retries=12)))
        assert a.same_values(fault_free_oracle())
        assert result.stats.timeouts > 0
        assert result.completion_time > 0.5


class TestDeterminismAndTracing:
    def test_same_seed_same_bits(self):
        runs = []
        for _ in range(2):
            a, b = divergent_pair()
            result = run_timed(srv_options(
                a, b, faults=FaultSpec(drop=0.3, duplicate=0.2, reorder=0.3,
                                       reorder_window=0.2, seed=9)))
            runs.append((result.stats.total_bits, result.stats.retries,
                         result.stats.timeouts, result.completion_time))
        assert runs[0] == runs[1]

    def test_fault_seed_overrides_the_spec_seed(self):
        totals = []
        for fault_seed in (100, 101):
            a, b = divergent_pair()
            result = run_timed(srv_options(
                a, b, faults=FaultSpec(drop=0.4, seed=9),
                fault_seed=fault_seed))
            totals.append((result.stats.total_bits, result.stats.retries))
        assert totals[0] != totals[1]

    def test_fault_retry_timeout_events_traced(self):
        tracer = Tracer()
        a, b = divergent_pair()
        run_timed(srv_options(
            a, b, faults=FaultSpec(drop=0.35, seed=2), tracer=tracer),
            span_name="arq")
        kinds = {event.kind for event in tracer.events}
        assert "fault" in kinds
        assert "retry" in kinds
        assert "timeout" in kinds


def halts(count):
    """``count`` sends, told apart by their price."""
    return [Send(Halt(cost)) for cost in range(1, count + 1)]


def slow_link(faults):
    """20 kbit/s, 10 ms: a one-bit HALT serializes in 50 us."""
    return ChannelSpec(latency=0.01, bandwidth=2e4, faults=faults)


def dead_link_session(sender, receiver, **extra):
    """One attempt whose link is down from the start, on a private
    simulator; returns ``(sim, handle, abandoned_at)``."""
    abandoned_at = []
    sim = Simulator()
    handle = launch(sim, SessionOptions.for_pair(
        sender, receiver, channel=slow_link(FaultSpec(
            partitions=((0.0, 1e9),))),
        encoding=ENC, retry=RetryPolicy(max_retries=0),
        on_abandon=lambda error, stats: abandoned_at.append(sim.now),
        **extra))
    sim.run()
    return sim, handle, abandoned_at


def assert_nothing_parked(sim):
    """The run would have raised had a party stayed parked; one more
    park must count exactly one (no party unparked twice)."""
    sim.park()
    with pytest.raises(SimulationError, match="with 1 host"):
        sim.run()


class TestOpenWindow:
    """The selective-repeat party with its window open (the default)."""

    def test_early_arrivals_are_delivered_in_order_once(self):
        reordered = 0
        for seed in range(8):
            tracer = Tracer()
            result = run_timed(SessionOptions.for_pair(
                scripted(*halts(12)), scripted(*[RECV] * 12),
                channel=slow_link(FaultSpec(
                    duplicate=0.5, reorder=0.5, reorder_window=0.05,
                    seed=seed)),
                encoding=ENC, tracer=tracer))
            got = [message.cost_bits for message in result.receiver_result]
            assert got == list(range(1, 13)), seed
            delivers = [event for event in tracer.events
                        if event.kind == "deliver"]
            assert len(delivers) == 12, seed
            reordered += any(event.kind == "fault"
                             and event.fields["fault"] == "reorder"
                             and event.fields["traffic"] == "data"
                             for event in tracer.events)
        assert reordered >= 4

    def test_a_returned_party_retransmits_until_acked(self):
        # The first copy starts inside the partition; the sender's
        # coroutine has returned long before its retransmission lands.
        channel = slow_link(FaultSpec(partitions=((0.0, 0.01),)))
        result = run_timed(SessionOptions.for_pair(
            scripted(Send(Halt(1))), scripted(RECV), channel=channel,
            encoding=ENC, retry=RetryPolicy(jitter=0.0)))
        stats = result.stats
        assert stats.retries == 1 and stats.timeouts == 1
        rto = to_ns(RetryPolicy().rto_for(channel))
        one_way = serialization_ns(1, channel.bandwidth) \
            + channel.latency_ns
        ack_way = serialization_ns(channel.ack_bits, channel.bandwidth) \
            + channel.latency_ns
        retransmit = serialization_ns(1, channel.bandwidth) + rto
        assert to_ns(result.receiver_finish) == retransmit + one_way
        # The sender finishes on the ack, not when its coroutine returned.
        assert to_ns(result.sender_finish) \
            == retransmit + one_way + ack_way

    def test_abort_while_parked_on_the_inbox(self):
        # The sender's message times out while it waits for a reply.
        sim, handle, abandoned_at = dead_link_session(
            scripted(Send(Halt(1)), RECV), scripted(RECV))
        assert handle.result is None and len(abandoned_at) == 1
        assert_nothing_parked(sim)

    def test_abort_while_draining(self):
        # Both coroutines return at once, which commits the attempt; the
        # first timeout aborts it while the other party waits for its
        # ack.  An abort after the commit completes the attempt.
        commits = []
        sim, handle, abandoned_at = dead_link_session(
            scripted(Send(Halt(1))), scripted(Send(Halt(1))),
            on_commit=lambda: commits.append("commit"))
        assert commits == ["commit"]
        assert not abandoned_at and handle.result is not None
        assert handle.result.stats.resumes == 0
        assert handle.result.completion_time < 0.1
        assert_nothing_parked(sim)

    def test_abort_while_serializing(self):
        # The receiver's two-second message is still on the link when the
        # sender's times out; it leaves when that copy has left.
        sim, handle, abandoned_at = dead_link_session(
            scripted(Send(Halt(1))), scripted(Send(Halt(40_000))))
        assert handle.result is None
        assert abandoned_at == [to_ns(2.0)]
        assert_nothing_parked(sim)

    def test_an_abandoned_attempt_leaves_no_timer(self):
        # Three messages are in flight when the first one's timeout
        # abandons the session; the other two timers die with it, so
        # the clock stops at the abandon.
        sim, handle, abandoned_at = dead_link_session(
            scripted(*halts(3), RECV), scripted(RECV))
        assert handle.result is None and len(abandoned_at) == 1
        assert sim.now == abandoned_at[0]
        assert_nothing_parked(sim)


N_SITES = [f"S{index:03d}" for index in range(128)]


def n128_pair(concurrent, seed):
    """An n = 128 SRV pair ``(a, b)``: ``a`` receives; ``b`` dominates it,
    or both hold updates the other lacks."""
    rng = random.Random(seed)
    a = SkipRotatingVector()
    for site in N_SITES:
        a.record_update(site)
    b = a.copy()
    for _ in range(rng.randint(8, 40)):
        b.record_update(rng.choice(N_SITES[:64]))
    if concurrent:
        for _ in range(rng.randint(1, 4)):
            a.record_update(rng.choice(N_SITES[64:]))
    return a, b


class TestQuietArq:
    """ARQ engaged, no fault firing: the open window streams as the
    perfect link does and pays one ack round trip at the end."""

    @pytest.mark.parametrize("latency,bandwidth", [
        (0.005, 1e6), (0.002, 1e6), (0.04, 250e3), (0.01, 2e4)])
    @pytest.mark.parametrize("concurrent", [True, False])
    def test_one_ack_round_trip_over_the_perfect_link(self, latency,
                                                      bandwidth, concurrent):
        encoding = Encoding.for_system(128, 64)
        for seed in range(3):
            durations = []
            for faults in (FaultSpec(), FaultSpec(partitions=((1e6, 1e7),))):
                a, b = n128_pair(concurrent, seed)
                assert a.compare(b).is_concurrent == concurrent
                channel = ChannelSpec(latency=latency, bandwidth=bandwidth,
                                      faults=faults)
                result = run_timed(SessionOptions.for_pair(
                    syncs_sender(b),
                    syncs_receiver(a, reconcile=concurrent),
                    channel=channel, encoding=encoding))
                durations.append(result.duration)
            perfect, quiet = durations
            ack_round_trip = 2 * channel.latency_ns \
                + serialization_ns(channel.ack_bits, channel.bandwidth)
            assert to_ns(quiet) == to_ns(perfect) + ack_round_trip, seed
