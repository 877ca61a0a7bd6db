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
           max_size=8, unique_by=lambda entry: entry[0]))
def test_batch_frame_matches_oracle_and_pricing(encoding, entries):
    """Batch frames: identical bits, lossless round-trip, priced length."""
    frame = BatchFrame(tuple((index, tuple(msgs))
                             for index, msgs in sorted(entries)))
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


def _entry_indices(shape):
    """Session-wide entry indices of one frame, by shape."""
    if shape == "dense":
        return st.tuples(st.integers(0, 40), st.integers(1, 8)).map(
            lambda run: list(range(run[0], run[0] + run[1])))
    if shape == "sparse":
        return st.lists(st.integers(0, 5000), min_size=1, max_size=8,
                        unique=True).map(sorted)
    return st.integers(1024, 1 << 20).map(lambda index: [index])


frames_by_shape = st.tuples(
    st.sampled_from(["brv_fwd", "crv_fwd", "srv_fwd"]),
    st.sampled_from(["dense", "sparse", "high"])).flatmap(
    lambda key: st.tuples(
        st.just(key[0]), _entry_indices(key[1]).flatmap(
            lambda indices: st.lists(_stream(key[0]), min_size=len(indices),
                                     max_size=len(indices)).map(
                lambda streams: BatchFrame(tuple(
                    (index, tuple(messages))
                    for index, messages in zip(indices, streams)))))))


@settings(max_examples=150, deadline=None)
@given(encoding=encodings, channel_frame=frames_by_shape)
def test_gap_coded_frames_round_trip_at_their_price(encoding, channel_frame):
    """Dense, sparse and one-high-index frames: decode(encode(f)) == f and
    the encoded length is f's price, on the fast path and the oracle."""
    channel, frame = channel_frame
    for codec in _codecs(encoding):
        data, bits = codec.encode_batch(frame, channel)
        assert bits == frame.bits(encoding)
        assert codec.decode_batch(data, bits, channel) == frame


def test_dense_frame_pays_one_bit_per_index_after_the_first():
    empty = ()
    fast, slow = _codecs(FIXED)
    for start in (0, 8, 24):
        frame = BatchFrame(tuple((start + i, empty) for i in range(8)))
        # γ(start) for the first index, γ(0) = 1 bit for each other one,
        # and γ(0) for each empty entry's message count.
        expected = 2 * (start + 1).bit_length() - 1 + 7 + 8
        assert frame.bits(FIXED) == expected
        for codec in (fast, slow):
            assert codec.encode_batch(frame, "srv_fwd")[1] == expected


@pytest.mark.parametrize("indices", [(0, 0), (5, 2)])
def test_codec_refuses_indices_that_do_not_increase(indices):
    frame = BatchFrame(tuple((index, (Halt(1),)) for index in indices))
    for codec in _codecs(FIXED):
        for channel in ("srv_fwd", "srv_bwd"):
            with pytest.raises(ProtocolError, match="strictly increase"):
                codec.encode_batch(frame, channel)
