"""A framed session is one wire, and it ends where every other driver ends.

For each registered paper scheme, a session over 1–12 objects at batch
sizes 1–5 runs four ways: as plain per-object instant sessions, as one
instant :func:`~repro.protocols.batch.run_batch`, as one timed wire
through :func:`~repro.net.runner.launch` on a perfect link, and on a
lossy link under ARQ with a ``rebuild`` that merges every attempt into
fresh copies of the receivers.  Every receiver must end in the same
structure each way, and no frame may carry more than ``batch_size``
entries.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.order import Ordering
from repro.net import runner
from repro.net.channel import ChannelSpec
from repro.net.faults import FaultSpec, RetryPolicy
from repro.net.runner import SessionOptions, run_timed
from repro.net.wire import Encoding
from repro.protocols import registry
from repro.protocols.batch import run_batch
from repro.protocols.session import run_session
from tests.helpers import ShadowAttempts, build_history

ENC = Encoding(site_bits=8, value_bits=16, session_header_bits=64)
SLOW = ChannelSpec(latency=0.02, bandwidth=2e4)
N_SITES = 3

commands = st.lists(st.one_of(
    st.tuples(st.just("update"), st.integers(0, N_SITES - 1)),
    st.tuples(st.just("sync"), st.integers(0, N_SITES - 1),
              st.integers(0, N_SITES - 1))), max_size=14)


def object_states(protocol, histories):
    """One ``(receiver, sender)`` pair per object.  A BRV pair that came
    out concurrent gets an empty receiver: SYNCB requires ``a ∦ b``."""
    spec = registry.get(protocol)
    states = []
    for history in histories:
        receiver, sender = build_history(spec.vector_cls, history,
                                         N_SITES)[:2]
        if not spec.reconciles \
                and receiver.compare(sender) is Ordering.CONCURRENT:
            receiver = spec.vector_cls()
        states.append((receiver, sender))
    return states


def fresh(states):
    return [(receiver.copy(), sender.copy()) for receiver, sender in states]


def build_pairs(protocol, states):
    spec = registry.get(protocol)
    return [spec.build(sender, receiver, receiver.compare(sender))[:2]
            for receiver, sender in states]


def structures(states):
    return [receiver.order.as_tuples() for receiver, _ in states]


@pytest.mark.parametrize("protocol", ["brv", "crv", "srv"])
@settings(max_examples=40, deadline=None)
@given(histories=st.lists(commands, min_size=1, max_size=12),
       batch_size=st.integers(1, 5), fault_seed=st.integers(0, 2**16))
def test_one_wire_ends_where_every_driver_ends(protocol, histories,
                                               batch_size, fault_seed):
    states = object_states(protocol, histories)

    plain = fresh(states)
    for sender, receiver in build_pairs(protocol, plain):
        run_session(sender, receiver, encoding=ENC)
    want = structures(plain)

    instant = fresh(states)
    run_batch(build_pairs(protocol, instant), encoding=ENC)
    assert structures(instant) == want

    frames = []
    real_party = runner.batch_party

    def spy(generators, *, on_frame, **options):
        def note(frame):
            frames.append(frame)
            on_frame(frame)
        return real_party(generators, on_frame=note, **options)

    timed = fresh(states)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "batch_party", spy)
        result = run_timed(SessionOptions(
            pairs=tuple(build_pairs(protocol, timed)),
            batch_size=batch_size, channel=SLOW, encoding=ENC))
    assert structures(timed) == want
    assert all(frame.object_count <= batch_size for frame in frames)
    framed = batch_size > 1
    assert result.stats.forward.by_type["SessionHeader"] == (
        1 if framed else len(states))
    assert (result.stats.frames > 0) == framed

    senders = [sender for _, sender in states]
    attempts = ShadowAttempts(
        [receiver for receiver, _ in states],
        lambda receivers: build_pairs(protocol,
                                      list(zip(receivers, senders))))
    # One retry per message: about one case in seven tears an attempt.
    faults = FaultSpec(drop=0.1, duplicate=0.05, reorder=0.1,
                       reorder_window=0.03, seed=fault_seed)
    run_timed(SessionOptions(
        rebuild=attempts, batch_size=batch_size, encoding=ENC,
        channel=ChannelSpec(latency=0.02, bandwidth=2e4, faults=faults),
        retry=RetryPolicy(max_retries=1, max_session_attempts=200)))
    assert structures(zip(attempts.latest, senders)) == want
