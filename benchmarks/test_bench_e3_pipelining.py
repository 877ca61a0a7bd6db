"""E3 — network pipelining: (k−1)·rtt time savings and the β excess (§3.1).

Runs the same SYNCB sessions on the discrete-event simulator with and
without pipelining, sweeping the round-trip time and the element count k,
and separately measures the in-flight excess against β = bandwidth·rtt.
"""

import pytest

from repro.analysis.report import format_table
from repro.core.rotating import BasicRotatingVector
from repro.net.channel import ChannelSpec
from repro.net.runner import SessionOptions, run_timed
from repro.net.simulator import to_seconds
from repro.net.wire import Encoding
from repro.protocols.syncb import syncb_receiver, syncb_sender

ENC = Encoding(site_bits=8, value_bits=16)


def fresh_pair(k):
    sender = BasicRotatingVector.from_pairs(
        [(f"S{i:03d}", 1) for i in range(k)])
    return BasicRotatingVector(), sender


def timed(k, latency, stop_and_wait):
    a, b = fresh_pair(k)
    channel = ChannelSpec(latency=latency, bandwidth=1e6)
    return run_timed(SessionOptions.for_pair(
        syncb_sender(b), syncb_receiver(a), channel=channel, encoding=ENC,
        stop_and_wait=stop_and_wait))


def test_e3_time_saving_tracks_k_times_rtt(benchmark, report_writer):
    rows = []
    for k in (5, 20, 80):
        for latency_ms in (5, 50):
            latency = latency_ms / 1000
            pipelined = timed(k, latency, False)
            blocking = timed(k, latency, True)
            saving = blocking.completion_time - pipelined.completion_time
            channel = ChannelSpec(latency=latency, bandwidth=1e6)
            predicted = (k + 1) * to_seconds(channel.stop_and_wait_ns())
            assert saving == pytest.approx(predicted, rel=0.2), (k, latency)
            rows.append([
                k, f"{latency_ms} ms",
                f"{pipelined.completion_time * 1000:9.1f} ms",
                f"{blocking.completion_time * 1000:9.1f} ms",
                f"{saving * 1000:9.1f} ms",
                f"{predicted * 1000:9.1f} ms",
            ])
    body = format_table(
        ["k elements", "one-way latency", "pipelined", "stop-and-wait",
         "measured saving", "predicted ≈(k+1)·rtt"], rows)
    report_writer("e3_pipelining_time",
                  "E3 — completion time with vs without pipelining "
                  "(1 Mbit/s link)", body)
    benchmark(timed, 20, 0.005, False)


def test_e3_excess_bounded_by_beta(benchmark, report_writer):
    """Early-halt sessions: pipelined overshoot stays under β."""
    rows = []
    for bandwidth in (5e4, 2e5, 1e6):
        for latency_ms in (5, 20, 50):
            latency = latency_ms / 1000
            channel = ChannelSpec(latency=latency, bandwidth=bandwidth)
            stale = BasicRotatingVector.from_pairs(
                [(f"S{i:03d}", 1) for i in range(200)])
            current = stale.copy()
            current.record_update("X")
            result = run_timed(SessionOptions.for_pair(
                syncb_sender(current), syncb_receiver(stale),
                channel=channel, encoding=ENC))
            ideal = 2 * ENC.brv_element_bits
            excess = result.stats.forward.bits - ideal
            bound = channel.beta_bits + ENC.brv_element_bits
            assert 0 <= excess <= bound, (bandwidth, latency)
            rows.append([
                f"{bandwidth / 1000:.0f} kbit/s", f"{latency_ms} ms",
                result.stats.forward.bits, ideal, excess,
                f"{channel.beta_bits:.0f}",
            ])
    body = format_table(
        ["bandwidth", "one-way latency", "sent bits", "ideal bits",
         "excess", "β = bw·rtt"], rows)
    report_writer("e3_beta_excess",
                  "E3b — pipelining excess vs the β bound "
                  "(receiver halts after 1 element)", body)
    benchmark(timed, 20, 0.02, False)


def test_e3_ack_suppression(benchmark, report_writer):
    """§3.1: pipelining suppresses the (k−1) per-item replies."""
    k = 30
    blocking = timed(k, 0.01, True)
    pipelined = timed(k, 0.01, False)
    acked = blocking.stats.backward.by_type.get("Ack", 0) + \
        blocking.stats.forward.by_type.get("Ack", 0)
    pipelined_acks = pipelined.stats.backward.by_type.get("Ack", 0)
    assert acked >= k
    assert pipelined_acks == 0
    body = format_table(
        ["mode", "data msgs", "reply msgs"],
        [["stop-and-wait", blocking.stats.forward.by_type["ElementMsg"],
          acked],
         ["pipelined", pipelined.stats.forward.by_type["ElementMsg"],
          pipelined_acks]])
    report_writer("e3_ack_suppression",
                  "E3c — per-item replies suppressed by pipelining", body)
    benchmark(timed, k, 0.01, True)
