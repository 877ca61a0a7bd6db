"""Tests for the session drivers themselves."""

import random

import pytest

from repro.errors import SessionError
from repro.net.runner import SessionOptions, run_timed
from repro.net.wire import Encoding
from repro.protocols.effects import Drain, Poll, Recv, Send
from repro.protocols.messages import ElementMsg, Halt
from repro.protocols.session import run_session, run_session_randomized

ENC = Encoding(site_bits=8, value_bits=8)


def run_instant(sender, receiver, **kwargs):
    return run_session(sender, receiver, encoding=ENC, **kwargs)


def run_randomized(sender, receiver, **kwargs):
    return run_session_randomized(sender, receiver, rng=random.Random(0),
                                  encoding=ENC, **kwargs)


def run_on_kernel(sender, receiver, **kwargs):
    return run_timed(SessionOptions.for_pair(sender, receiver, encoding=ENC,
                                             **kwargs))


#: The three delivery policies over the one effect interpreter.
EVERY_DRIVER = pytest.mark.parametrize(
    "run", [run_instant, run_randomized, run_on_kernel],
    ids=["instant", "randomized", "timed"])


def one_shot_sender():
    yield Send(ElementMsg("A", 1))
    yield Send(Halt(2))
    return "sender-done"


def counting_receiver():
    count = 0
    while True:
        message = yield Recv()
        if isinstance(message, Halt):
            return count
        count += 1


class TestInstantDriver:
    def test_results_propagate(self):
        result = run_session(one_shot_sender(), counting_receiver(),
                             encoding=ENC)
        assert result.sender_result == "sender-done"
        assert result.receiver_result == 1

    def test_bits_accounted_per_direction(self):
        result = run_session(one_shot_sender(), counting_receiver(),
                             encoding=ENC)
        assert result.stats.forward.bits == ENC.brv_element_bits + 2
        assert result.stats.backward.bits == 0
        assert result.stats.forward.messages == 2

    def test_message_type_histogram(self):
        result = run_session(one_shot_sender(), counting_receiver(),
                             encoding=ENC)
        assert result.stats.forward.by_type == {"ElementMsg": 1, "Halt": 1}

    def test_deadlock_detected(self):
        def stuck():
            yield Recv()

        with pytest.raises(SessionError, match="deadlock"):
            run_session(stuck(), stuck(), encoding=ENC)

    def test_poll_parks_but_drain_does_not(self):
        # A sender that polls twice between sends: with eager flushing the
        # receiver's reply is visible at the second poll.
        seen = []

        def sender():
            yield Send(ElementMsg("A", 1))
            first = yield Poll()
            seen.append(first)
            second = yield Poll()
            seen.append(second)
            yield Send(Halt(2))
            return None

        def receiver():
            yield Recv()
            yield Send(Halt(2))
            while True:
                message = yield Recv()
                if isinstance(message, Halt):
                    return None

        run_session(sender(), receiver(), encoding=ENC)
        assert seen[0] is None or isinstance(seen[0], Halt)
        assert any(isinstance(x, Halt) for x in seen)

    def test_drain_reports_only_delivered(self):
        def drainer():
            got = yield Drain()
            return got

        def silent():
            return None
            yield  # pragma: no cover

        result = run_session(silent(), drainer(), encoding=ENC)
        assert result.receiver_result is None

    def test_immediate_completion(self):
        def noop():
            return "x"
            yield  # pragma: no cover

        result = run_session(noop(), noop(), encoding=ENC)
        assert result.sender_result == "x"
        assert result.receiver_result == "x"


class TestEveryDriver:
    """What the one interpreter does the same under every policy."""

    @EVERY_DRIVER
    def test_max_steps_guard(self, run):
        def chatty():
            while True:
                yield Send(Halt(1))

        def sink():
            while True:
                yield Recv()

        with pytest.raises(SessionError, match="exceeded 100 steps"):
            run(chatty(), sink(), max_steps=100)

    @EVERY_DRIVER
    def test_non_effect_is_an_unknown_effect(self, run):
        # Not a deadlock: the sender yielded something no driver can
        # interpret.
        def confused():
            yield 42

        with pytest.raises(SessionError, match="unknown effect 42 in sender"):
            run(confused(), counting_receiver())


class TestTranscripts:
    def test_trace_disabled_by_default(self):
        result = run_session(one_shot_sender(), counting_receiver(),
                             encoding=ENC)
        assert result.transcript is None

    def test_trace_records_every_message_in_order(self):
        result = run_session(one_shot_sender(), counting_receiver(),
                             encoding=ENC, trace=True)
        assert [(arrow, type(msg).__name__)
                for arrow, msg in result.transcript] == [
            ("->", "ElementMsg"), ("->", "Halt")]

    def test_trace_captures_both_directions(self):
        from repro.core.skip import SkipRotatingVector
        from repro.protocols.syncs import syncs_receiver, syncs_sender
        b = SkipRotatingVector.from_segments(
            [[("N", 1)], [("K1", 1), ("K2", 1)], [("A", 1)]])
        b.set_conflict_bit("K1")
        b.set_conflict_bit("K2")
        a = SkipRotatingVector.from_segments([[("K1", 1), ("K2", 1)],
                                              [("A", 1)]])
        result = run_session(syncs_sender(b),
                             syncs_receiver(a, reconcile=True),
                             encoding=ENC, trace=True)
        arrows = {arrow for arrow, _ in result.transcript}
        assert arrows == {"->", "<-"}
        backward = [type(m).__name__ for arrow, m in result.transcript
                    if arrow == "<-"]
        assert "Skip" in backward

    def test_trace_bit_sum_matches_stats(self):
        result = run_session(one_shot_sender(), counting_receiver(),
                             encoding=ENC, trace=True)
        traced_bits = sum(message.bits(ENC)
                          for _, message in result.transcript)
        assert traced_bits == result.stats.total_bits


class TestRandomizedDriver:
    def test_same_results_as_instant(self):
        for seed in range(20):
            result = run_session_randomized(
                one_shot_sender(), counting_receiver(),
                rng=random.Random(seed), encoding=ENC)
            assert result.sender_result == "sender-done"
            assert result.receiver_result == 1

    def test_fifo_preserved_per_direction(self):
        def sender():
            for value in range(10):
                yield Send(ElementMsg("A", value + 1))
            yield Send(Halt(2))
            return None

        def receiver():
            values = []
            while True:
                message = yield Recv()
                if isinstance(message, Halt):
                    return values
                values.append(message.value)

        for seed in range(10):
            result = run_session_randomized(sender(), receiver(),
                                            rng=random.Random(seed),
                                            encoding=ENC)
            assert result.receiver_result == list(range(1, 11))

    def test_deadlock_detected(self):
        def stuck():
            yield Recv()

        with pytest.raises(SessionError, match="deadlock"):
            run_session_randomized(stuck(), stuck(),
                                   rng=random.Random(0), encoding=ENC)
