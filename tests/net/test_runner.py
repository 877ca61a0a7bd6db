"""Tests for the timed protocol runner: the §3.1 pipelining claims."""

import pytest

from repro.core.rotating import BasicRotatingVector
from repro.core.skip import SkipRotatingVector
from repro.errors import SimulationError
from repro.net.channel import ChannelSpec, serialization_ns
from repro.net.faults import FaultSpec
from repro.net.runner import SessionOptions, run_timed
from repro.net.simulator import to_ns, to_seconds
from repro.net.wire import Encoding
from repro.protocols.effects import RECV
from repro.protocols.syncb import syncb_receiver, syncb_sender
from repro.protocols.syncs import syncs_receiver, syncs_sender

ENC = Encoding(site_bits=8, value_bits=16)


def timed(sender, receiver, **kwargs):
    """One pair on a private clock via the unified launch API."""
    return run_timed(SessionOptions.for_pair(sender, receiver, **kwargs))


def fresh_pair(k):
    """Receiver empty, sender k elements: the full-transfer case."""
    b = BasicRotatingVector.from_pairs([(f"S{i}", 1) for i in range(k)])
    return BasicRotatingVector(), b


class TestPipeliningSavings:
    def test_pipelining_saves_k_minus_1_rtt(self):
        """§3.1: pipelining reduces running time by (k−1)·rtt."""
        k = 20
        channel = ChannelSpec(latency=0.05, bandwidth=1e6)
        a1, b = fresh_pair(k)
        pipelined = timed(syncb_sender(b), syncb_receiver(a1),
                                      channel=channel, encoding=ENC)
        a2, _ = fresh_pair(k)
        blocking = timed(syncb_sender(b), syncb_receiver(a2),
                                     channel=channel, encoding=ENC,
                                     stop_and_wait=True)
        saving = blocking.completion_time - pipelined.completion_time
        # k data messages + 1 HALT each pay one stop-and-wait overhead.
        expected = (k + 1) * to_seconds(channel.stop_and_wait_ns())
        assert saving == pytest.approx(expected, rel=0.15)

    def test_results_identical_with_and_without_pipelining(self):
        k = 10
        a1, b = fresh_pair(k)
        a2, _ = fresh_pair(k)
        channel = ChannelSpec(latency=0.01, bandwidth=1e5)
        timed(syncb_sender(b), syncb_receiver(a1),
                          channel=channel, encoding=ENC)
        timed(syncb_sender(b), syncb_receiver(a2),
                          channel=channel, encoding=ENC, stop_and_wait=True)
        assert a1.same_structure(a2)

    def test_ack_traffic_accounted_in_stop_and_wait(self):
        a, b = fresh_pair(5)
        channel = ChannelSpec(latency=0.01, bandwidth=1e5, ack_bits=8)
        result = timed(syncb_sender(b), syncb_receiver(a),
                                   channel=channel, encoding=ENC,
                                   stop_and_wait=True)
        acked = result.stats.backward.by_type.get("Ack", 0)
        assert acked == 6  # 5 elements + sender HALT

    def test_ack_traced_after_the_delivery_it_acknowledges(self):
        """Acks must never precede the deliver event they acknowledge.

        Regression: the ack used to be recorded when the *data* message
        finished serializing — one latency before that message was even
        delivered — so traced timelines showed effects before causes.
        """
        from repro.obs import Tracer

        a, b = fresh_pair(4)
        channel = ChannelSpec(latency=0.01, bandwidth=1e5, ack_bits=8)
        tracer = Tracer()
        timed(syncb_sender(b), syncb_receiver(a),
                          channel=channel, encoding=ENC, stop_and_wait=True,
                          tracer=tracer)
        deliver_times = [e.time for e in tracer.events
                         if e.kind == "deliver" and e.party == "receiver"]
        ack_events = [e for e in tracer.events
                      if e.kind == "message" and e.message == "Ack"]
        assert len(ack_events) == 5  # 4 elements + sender HALT
        for ack, delivered_at in zip(ack_events, deliver_times):
            # Arrival = delivery + ack serialization + return latency.
            expected = (to_ns(delivered_at)
                        + serialization_ns(channel.ack_bits,
                                           channel.bandwidth)
                        + channel.latency_ns)
            assert to_ns(ack.time) == expected
        # Sequence order agrees with the clock: each ack is traced after
        # the data delivery it acknowledges.
        deliver_seqs = [e.seq for e in tracer.events
                        if e.kind == "deliver" and e.party == "receiver"]
        for ack, deliver_seq in zip(ack_events, deliver_seqs):
            assert ack.seq > deliver_seq


class TestBetaExcess:
    def test_overshoot_bounded_by_beta(self):
        """§3.1: pipelining wastes at most β = bandwidth·rtt after the reply."""
        channel = ChannelSpec(latency=0.02, bandwidth=50_000)  # β = 2000 bits
        shared = [(f"S{i}", 1) for i in range(100)]
        a = BasicRotatingVector.from_pairs(shared)
        b = a.copy()
        for site in ("X", "Y", "Z"):
            b.record_update(site)
        result = timed(syncb_sender(b), syncb_receiver(a),
                                   channel=channel, encoding=ENC)
        ideal_bits = (3 + 1) * ENC.brv_element_bits  # Δ + halting element
        excess = result.stats.forward.bits - ideal_bits
        assert 0 <= excess <= channel.beta_bits + ENC.brv_element_bits

    def test_no_overshoot_with_stop_and_wait(self):
        channel = ChannelSpec(latency=0.02, bandwidth=50_000)
        shared = [(f"S{i}", 1) for i in range(50)]
        a = BasicRotatingVector.from_pairs(shared)
        b = a.copy()
        b.record_update("X")
        result = timed(syncb_sender(b), syncb_receiver(a),
                                   channel=channel, encoding=ENC,
                                   stop_and_wait=True)
        elements_sent = result.stats.forward.by_type["ElementMsg"]
        assert elements_sent == 2  # Δ + the halting element, nothing extra


class TestTimedSyncs:
    def test_srv_protocol_runs_on_simulated_time(self):
        base = SkipRotatingVector()
        base.record_update("A")
        left, right = base.copy(), base.copy()
        left.record_update("L")
        right.record_update("R")
        result = timed(
            syncs_sender(right), syncs_receiver(left, reconcile=True),
            channel=ChannelSpec(latency=0.01, bandwidth=1e6), encoding=ENC)
        assert left.to_version_vector().as_dict() == {
            "A": 1, "L": 1, "R": 1}
        assert result.completion_time > 0

    def test_completion_time_scales_with_latency(self):
        times = []
        for latency in (0.01, 0.1):
            a, b = fresh_pair(5)
            result = timed(
                syncb_sender(b), syncb_receiver(a),
                channel=ChannelSpec(latency=latency, bandwidth=1e6),
                encoding=ENC)
            times.append(result.completion_time)
        assert times[1] > times[0]

    def test_sender_and_receiver_finish_times_reported(self):
        a, b = fresh_pair(5)
        result = timed(syncb_sender(b), syncb_receiver(a),
                                   channel=ChannelSpec(), encoding=ENC)
        assert result.completion_time == max(result.sender_finish,
                                             result.receiver_finish)


class TestDeadlock:
    @pytest.mark.parametrize("faults", [FaultSpec(),
                                        FaultSpec(drop=0.1, seed=1)],
                             ids=["perfect", "arq"])
    def test_both_parties_receiving_first_is_a_deadlock(self, faults):
        # Each party parks on an empty inbox and nothing is in flight:
        # the queue drains with both parked, on either transport.
        def waits_first():
            message = yield RECV
            return message

        with pytest.raises(SimulationError, match="deadlock") as caught:
            timed(waits_first(), waits_first(), encoding=ENC,
                  channel=ChannelSpec(latency=0.01, faults=faults))
        assert "2 host(s) parked" in str(caught.value)
