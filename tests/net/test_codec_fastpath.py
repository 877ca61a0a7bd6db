"""The one-pass stream codec against its bit-by-bit oracle.

``Codec`` defaults to the accumulator-based :class:`BitWriter`/
:class:`BitReader` pair and takes specialized single-pass routes for
element streams and batch frames; constructing it with
``bit_io=(BitByBitWriter, BitByBitReader)`` runs the same wire format
one bit at a time through the generic ladders.  These properties pin the
contract the perf work relies on: **identical bits, identical messages,
identical errors** — so the fast path can never drift from the format
the paper's cost accounting prices.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.extensions.varint import AdaptiveEncoding
from repro.net.codec import BitByBitReader, BitByBitWriter, Codec
from repro.net.wire import Encoding
from repro.protocols.batch import BatchFrame
from repro.protocols.messages import ElementCMsg, ElementMsg, ElementSMsg, Halt
from repro.replication.membership import SiteRegistry

SITES = [f"X{i}" for i in range(26)]
REGISTRY = SiteRegistry(SITES)
FIXED = Encoding(site_bits=6, value_bits=12)
ADAPTIVE = AdaptiveEncoding(site_bits=6, value_bits=12)

encodings = st.sampled_from([FIXED, ADAPTIVE])
sites = st.sampled_from(SITES)
values = st.integers(0, 4000)


def _codecs(encoding):
    """The (fast, oracle) codec pair over one encoding."""
    fast = Codec(encoding, REGISTRY)
    slow = Codec(encoding, REGISTRY,
                 bit_io=(BitByBitWriter, BitByBitReader))
    return fast, slow


def _stream(channel):
    """Messages legal on one forward channel."""
    if channel == "brv_fwd":
        element = st.builds(ElementMsg, site=sites, value=values)
        halt = st.just(Halt(2))
    elif channel == "crv_fwd":
        element = st.builds(ElementCMsg, site=sites, value=values,
                            conflict=st.booleans())
        halt = st.just(Halt(2))
    else:
        element = st.builds(ElementSMsg, site=sites, value=values,
                            conflict=st.booleans(), segment=st.booleans())
        halt = st.just(Halt(1))
    return st.lists(st.one_of(element, halt), max_size=12)


channel_streams = st.sampled_from(["brv_fwd", "crv_fwd", "srv_fwd"]).flatmap(
    lambda ch: st.tuples(st.just(ch), _stream(ch)))


@settings(max_examples=150, deadline=None)
@given(encoding=encodings, channel_stream=channel_streams)
def test_stream_bits_and_messages_match_oracle(encoding, channel_stream):
    """Fast element streams are bit-identical and decode to equal messages."""
    channel, messages = channel_stream
    fast, slow = _codecs(encoding)
    fast_data, fast_bits = fast.encode_elements(messages, channel)
    slow_data, slow_bits = slow.encode_elements(messages, channel)
    assert (fast_data, fast_bits) == (slow_data, slow_bits)
    assert fast_bits == sum(m.bits(encoding) for m in messages)

    fast_out = fast.decode_elements(fast_data, fast_bits, channel)
    slow_out = slow.decode_elements(slow_data, slow_bits, channel)
    assert fast_out == list(messages) == slow_out
    for decoded, original in zip(fast_out, messages):
        # The fast path builds messages with tuple.__new__, bypassing
        # the constructor; the result must still be a first-class frozen
        # dataclass instance.
        assert type(decoded) is type(original)
        assert repr(decoded) == repr(original)
        if dataclasses.fields(decoded):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(decoded, dataclasses.fields(decoded)[0].name, None)


@settings(max_examples=100, deadline=None)
@given(encoding=encodings,
       entries=st.lists(
           st.tuples(st.integers(0, 300), _stream("srv_fwd")),
           max_size=8))
def test_batch_frame_matches_oracle_and_pricing(encoding, entries):
    """Batch frames: identical bits, lossless round-trip, priced length."""
    frame = BatchFrame(tuple((index, tuple(msgs))
                             for index, msgs in entries))
    fast, slow = _codecs(encoding)
    fast_data, fast_bits = fast.encode_batch(frame, "srv_fwd")
    slow_data, slow_bits = slow.encode_batch(frame, "srv_fwd")
    assert (fast_data, fast_bits) == (slow_data, slow_bits)
    assert fast_bits == frame.bits(encoding)
    assert fast.decode_batch(fast_data, fast_bits, "srv_fwd") == frame
    assert slow.decode_batch(slow_data, slow_bits, "srv_fwd") == frame


@settings(max_examples=100, deadline=None)
@given(channel_stream=channel_streams, cut=st.integers(1, 40))
def test_truncation_errors_match_oracle(channel_stream, cut):
    """A truncated stream raises the same ProtocolError on both paths."""
    channel, messages = channel_stream
    fast, slow = _codecs(ADAPTIVE)
    data, bits = fast.encode_elements(messages, channel)
    if bits == 0:
        return
    short = min(cut, bits - 1) if bits > 1 else 0
    short_data = data[:(short + 7) // 8]

    def attempt(codec):
        try:
            return ("ok", codec.decode_elements(short_data, short, channel))
        except ProtocolError as error:
            return ("err", str(error))

    assert attempt(fast) == attempt(slow)


@settings(max_examples=60, deadline=None)
@given(value=st.integers(4096, 100_000), site=sites)
def test_overflow_errors_match_oracle(value, site):
    """Fixed-width value overflow raises identically on both paths."""
    fast, slow = _codecs(FIXED)
    message = ElementSMsg(site, value, False, False)

    def attempt(codec):
        try:
            return ("ok", codec.encode_elements([message], "srv_fwd"))
        except ProtocolError as error:
            return ("err", str(error))

    fast_result, slow_result = attempt(fast), attempt(slow)
    assert fast_result == slow_result
    if value >= 1 << FIXED.value_bits:
        assert fast_result[0] == "err"


def test_site_overflow_matches_oracle():
    """A site id beyond the field width errors identically on both paths."""
    tight = Encoding(site_bits=2, value_bits=8)
    registry = SiteRegistry([f"Y{i}" for i in range(10)])
    fast = Codec(tight, registry)
    slow = Codec(tight, registry, bit_io=(BitByBitWriter, BitByBitReader))
    message = ElementMsg("Y9", 1)
    with pytest.raises(ProtocolError) as fast_error:
        fast.encode_elements([message], "brv_fwd")
    with pytest.raises(ProtocolError) as slow_error:
        slow.encode_elements([message], "brv_fwd")
    assert str(fast_error.value) == str(slow_error.value)
