"""The unified session-launch API: options and validation."""

import pytest

from repro.core.rotating import BasicRotatingVector
from repro.core.skip import SkipRotatingVector
from repro.errors import SessionError, ValidationError
from repro.net.channel import ChannelSpec
from repro.net.faults import FaultSpec, RetryPolicy
from repro.net.runner import SessionOptions, launch, run_timed
from repro.net.simulator import Simulator
from repro.net.wire import Encoding
from repro.protocols.syncb import syncb_receiver, syncb_sender
from repro.protocols.syncs import syncs_receiver, syncs_sender

ENC = Encoding(site_bits=8, value_bits=16)
CHANNEL = ChannelSpec(latency=0.01, bandwidth=1e6)


def brv_pair(k=5):
    b = BasicRotatingVector.from_pairs([(f"S{i}", 1) for i in range(k)])
    a = BasicRotatingVector()
    return a, b


def srv_pair():
    a = SkipRotatingVector.from_pairs([("A", 1)])
    b = a.copy()
    a.record_update("A")
    b.record_update("B")
    return a, b


class TestSessionOptionsValidation:
    def test_requires_exactly_one_of_pairs_or_rebuild(self):
        with pytest.raises(ValidationError, match="pairs/rebuild"):
            SessionOptions()
        with pytest.raises(ValidationError, match="pairs/rebuild"):
            a, b = brv_pair()
            SessionOptions(pairs=((syncb_sender(b), syncb_receiver(a)),),
                           rebuild=lambda: ())

    def test_rejects_bad_scalars(self):
        a, b = brv_pair()
        pairs = ((syncb_sender(b), syncb_receiver(a)),)
        with pytest.raises(ValidationError, match="batch_size"):
            SessionOptions(pairs=pairs, batch_size=0)
        with pytest.raises(ValidationError, match="proc_time"):
            SessionOptions(pairs=pairs, proc_time=-1.0)
        with pytest.raises(ValidationError, match="proc_time"):
            SessionOptions(pairs=pairs, proc_time=float("nan"))
        with pytest.raises(ValidationError, match="max_steps"):
            SessionOptions(pairs=pairs, max_steps=0)
        with pytest.raises(ValidationError, match="party_names"):
            SessionOptions(pairs=pairs, party_names=("x", "x"))

    def test_options_are_immutable(self):
        a, b = brv_pair()
        options = SessionOptions.for_pair(syncb_sender(b), syncb_receiver(a))
        with pytest.raises(AttributeError):
            options.batch_size = 2


class TestLaunch:
    def test_handle_fills_in_as_the_simulator_runs(self):
        a, b = brv_pair()
        sim = Simulator()
        handle = launch(sim, SessionOptions.for_pair(
            syncb_sender(b), syncb_receiver(a),
            channel=CHANNEL, encoding=ENC))
        assert not handle.completed
        sim.run()
        assert handle.completed
        assert handle.attempts == 1
        assert handle.stats.total_bits > 0
        assert handle.result.stats is handle.stats
        assert a.same_structure(b)

    def test_on_complete_fires_once_with_the_result(self):
        a, b = brv_pair()
        seen = []
        sim = Simulator()
        launch(sim, SessionOptions.for_pair(
            syncb_sender(b), syncb_receiver(a), channel=CHANNEL,
            encoding=ENC, on_complete=seen.append))
        sim.run()
        assert len(seen) == 1
        assert seen[0].completion_time > 0

    def test_single_pair_results_are_scalars(self):
        a, b = srv_pair()
        result = run_timed(SessionOptions.for_pair(
            syncs_sender(b),
            syncs_receiver(a, reconcile=a.compare(b).is_concurrent),
            channel=CHANNEL, encoding=ENC))
        assert not isinstance(result.sender_result, list)
        assert not isinstance(result.receiver_result, list)

    def test_multi_pair_results_are_lists(self):
        states = [srv_pair() for _ in range(3)]
        pairs = tuple(
            (syncs_sender(b),
             syncs_receiver(a, reconcile=a.compare(b).is_concurrent))
            for a, b in states)
        result = run_timed(SessionOptions(pairs=pairs, channel=CHANNEL,
                                          encoding=ENC))
        assert len(result.sender_result) == 3
        assert len(result.receiver_result) == 3


class TestOnAbandon:
    """Permanent aborts: the ``on_abandon`` hook replaces the raise."""

    def _doomed_options(self, **extra):
        a, b = srv_pair()
        doomed = ChannelSpec(latency=0.01, bandwidth=1e6,
                             faults=FaultSpec(drop=1.0, seed=3))
        return SessionOptions.for_pair(
            syncs_sender(b),
            syncs_receiver(a, reconcile=a.compare(b).is_concurrent),
            channel=doomed, encoding=ENC,
            retry=RetryPolicy(max_retries=1, initial_rto=0.05),
            **extra)

    def test_default_permanent_abort_raises(self):
        sim = Simulator()
        launch(sim, self._doomed_options())
        with pytest.raises(SessionError, match="aborted permanently"):
            sim.run()

    def test_on_abandon_is_called_instead_of_raising(self):
        seen = []
        completed = []
        sim = Simulator()
        handle = launch(sim, self._doomed_options(
            on_abandon=lambda error, stats: seen.append((error, stats)),
            on_complete=completed.append))
        sim.run()  # must not raise
        assert len(seen) == 1
        error, stats = seen[0]
        assert isinstance(error, SessionError)
        assert "aborted permanently" in str(error)
        # The spent traffic comes with the error: no handle needed.
        assert stats is handle.stats and stats.total_bits > 0
        assert not completed  # an abandoned session never completes

    def test_on_abandon_unused_on_success(self):
        a, b = brv_pair()
        seen = []
        sim = Simulator()
        launch(sim, SessionOptions.for_pair(
            syncb_sender(b), syncb_receiver(a), channel=CHANNEL,
            encoding=ENC,
            on_abandon=lambda error, stats: seen.append(error)))
        sim.run()
        assert not seen
