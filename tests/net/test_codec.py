"""Tests for the bit-exact codec and the serialized session driver."""

import pytest

from repro.core.conflict import ConflictRotatingVector
from repro.core.rotating import BasicRotatingVector
from repro.core.skip import SkipRotatingVector
from repro.errors import ProtocolError
from repro.extensions.varint import AdaptiveEncoding
from repro.graphs.causalgraph import build_graph
from repro.net.codec import (BitReader, BitWriter, Codec,
                             run_session_serialized)
from repro.net.wire import Encoding
from repro.protocols.batch import batch_party
from repro.protocols.comparep import compare_party
from repro.protocols.messages import (AbortMsg, CompareLeast, ElementCMsg,
                                      ElementMsg, ElementSMsg, FullGraphMsg,
                                      FullVectorMsg, GraphNodeMsg, Halt,
                                      Skip, SkipToMsg, VerdictBit)
from repro.protocols.syncb import syncb_receiver, syncb_sender
from repro.protocols.syncc import syncc_receiver, syncc_sender
from repro.protocols.syncg import syncg_receiver, syncg_sender
from repro.protocols.syncs import syncs_receiver, syncs_sender
from repro.replication.membership import SiteRegistry

ENC = Encoding(site_bits=6, value_bits=10, node_id_bits=8)
REGISTRY = SiteRegistry([f"S{i}" for i in range(20)])
CODEC = Codec(ENC, REGISTRY)


class TestBitBuffers:
    def test_write_read_roundtrip(self):
        writer = BitWriter()
        writer.write(5, 3)
        writer.write(0, 2)
        writer.write(1023, 10)
        reader = BitReader(writer.getvalue(), writer.bit_length)
        assert reader.read(3) == 5
        assert reader.read(2) == 0
        assert reader.read(10) == 1023
        assert reader.remaining == 0

    def test_overflow_rejected(self):
        with pytest.raises(ProtocolError):
            BitWriter().write(8, 3)

    def test_underrun_rejected(self):
        writer = BitWriter()
        writer.write(1, 1)
        reader = BitReader(writer.getvalue(), writer.bit_length)
        reader.read(1)
        with pytest.raises(ProtocolError):
            reader.read(1)

    def test_gamma_roundtrip(self):
        writer = BitWriter()
        values = [0, 1, 2, 5, 63, 64, 1000]
        for value in values:
            writer.write_gamma(value)
        reader = BitReader(writer.getvalue(), writer.bit_length)
        assert [reader.read_gamma() for _ in values] == values

    def test_byte_padding(self):
        writer = BitWriter()
        writer.write(1, 3)
        assert len(writer.getvalue()) == 1
        assert writer.bit_length == 3


ALL_MESSAGES = [
    (ElementMsg("S1", 7), "brv_fwd"),
    (Halt(2), "brv_fwd"),
    (Halt(2), "brv_bwd"),
    (ElementCMsg("S2", 3, True), "crv_fwd"),
    (ElementCMsg("S2", 3, False), "crv_fwd"),
    (Halt(2), "crv_bwd"),
    (ElementSMsg("S3", 1, True, False), "srv_fwd"),
    (ElementSMsg("S3", 9, False, True), "srv_fwd"),
    (Halt(1), "srv_fwd"),
    (Skip(4), "srv_bwd"),
    (Halt(1), "srv_bwd"),
    (GraphNodeMsg(7, 3, None), "graph_fwd"),
    (GraphNodeMsg(0, None, None), "graph_fwd"),
    (Halt(1), "graph_fwd"),
    (SkipToMsg(5), "graph_bwd"),
    (AbortMsg(), "graph_bwd"),
    (CompareLeast("S4", 9), "compare"),
    (CompareLeast(None), "compare"),
    (VerdictBit(True), "compare"),
    (VerdictBit(False), "compare"),
    (FullVectorMsg((("S1", 1), ("S2", 1000))), "full_vector"),
    (FullVectorMsg(()), "full_vector"),
    (FullGraphMsg(((1, None, None), (2, 1, None), (3, 1, 2))), "full_graph"),
]


class TestRoundtrips:
    @pytest.mark.parametrize("message,channel", ALL_MESSAGES,
                             ids=lambda p: str(p))
    def test_roundtrip_identity(self, message, channel):
        decoded, _ = CODEC.roundtrip(message, channel)
        assert decoded == message

    @pytest.mark.parametrize("message,channel", ALL_MESSAGES,
                             ids=lambda p: str(p))
    def test_serialized_length_equals_priced_bits(self, message, channel):
        _, bit_length = CODEC.roundtrip(message, channel)
        assert bit_length == message.bits(ENC)

    def test_adaptive_encoding_roundtrip_and_price(self):
        codec = Codec(AdaptiveEncoding(site_bits=6, value_bits=21), REGISTRY)
        for value in (0, 1, 6, 7, 512):
            message = ElementSMsg("S1", value, True, False)
            decoded, bit_length = codec.roundtrip(message, "srv_fwd")
            assert decoded == message
            assert bit_length == message.bits(codec.encoding)

    def test_wrong_channel_rejected(self):
        with pytest.raises(ProtocolError):
            CODEC.encode(Skip(1), "graph_bwd")
        with pytest.raises(ProtocolError):
            CODEC.encode(ElementMsg("S1", 1), "full_vector")

    def test_unknown_channel_rejected(self):
        with pytest.raises(ProtocolError):
            CODEC.encode(Halt(1), "nope")
        with pytest.raises(ProtocolError):
            CODEC.decode(b"\x00", 2, "nope")


class TestSerializedSessions:
    """Full protocol runs with every message physically on the wire."""

    def test_syncb_over_the_wire(self):
        a = BasicRotatingVector()
        b = BasicRotatingVector()
        for index in range(6):
            b.record_update(f"S{index}")
        result = run_session_serialized(
            syncb_sender(b), syncb_receiver(a), codec=CODEC,
            forward_channel="brv_fwd", backward_channel="brv_bwd")
        assert a.same_structure(b)
        assert result.stats.total_bits > 0

    def test_syncc_over_the_wire(self):
        base = ConflictRotatingVector()
        base.record_update("S0")
        left, right = base.copy(), base.copy()
        left.record_update("S1")
        right.record_update("S2")
        run_session_serialized(
            syncc_sender(right), syncc_receiver(left, reconcile=True),
            codec=CODEC, forward_channel="crv_fwd", backward_channel="crv_bwd")
        assert left.to_version_vector().as_dict() == {
            "S0": 1, "S1": 1, "S2": 1}

    def test_syncs_over_the_wire_with_skips(self):
        b = SkipRotatingVector.from_segments(
            [[("S9", 1)], [("S1", 1), ("S2", 1), ("S3", 1)], [("S0", 1)]])
        for site in ("S1", "S2", "S3"):
            b.set_conflict_bit(site)
        a = SkipRotatingVector.from_segments(
            [[("S1", 1), ("S2", 1), ("S3", 1)], [("S0", 1)]])
        result = run_session_serialized(
            syncs_sender(b), syncs_receiver(a, reconcile=True),
            codec=CODEC, forward_channel="srv_fwd", backward_channel="srv_bwd")
        assert a["S9"] == 1
        assert result.sender_result.skips_honored == 1

    def test_syncg_over_the_wire(self):
        full = build_graph([(None, 1), (1, 2), (1, 3), (2, 4), (3, 4)])
        partial = build_graph([(None, 1), (1, 2)])
        run_session_serialized(
            syncg_sender(full), syncg_receiver(partial), codec=CODEC,
            forward_channel="graph_fwd", backward_channel="graph_bwd")
        assert partial.node_ids() == full.node_ids()

    def test_compare_over_the_wire(self):
        a = BasicRotatingVector()
        a.record_update("S0")
        b = a.copy()
        b.record_update("S1")
        result = run_session_serialized(
            compare_party(a), compare_party(b), codec=CODEC,
            forward_channel="compare", backward_channel="compare")
        assert str(result.sender_result) == "≺"

    def test_pricing_mismatch_detected(self):
        """A message priced differently than serialized must be caught."""
        bad_codec = Codec(Encoding(site_bits=6, value_bits=10), REGISTRY)

        class LyingHalt(Halt):
            def bits(self, encoding):
                """Deliberately wrong price."""
                return 99

        def liar():
            yield from ()
            return None

        def sender():
            from repro.protocols.effects import Send
            yield Send(LyingHalt(2))
            return None

        def receiver():
            from repro.protocols.effects import Recv
            yield Recv()
            return None

        with pytest.raises(ProtocolError, match="pricing mismatch"):
            run_session_serialized(sender(), receiver(), codec=bad_codec,
                                   forward_channel="brv_fwd",
                                   backward_channel="brv_bwd")

    @pytest.mark.parametrize("framed", [False, True],
                             ids=["message", "batch-frame"])
    def test_mispriced_protocol_message_detected(self, monkeypatch, framed):
        """A real SYNCS element whose ``bits()`` drifts one bit from its
        encoding fails the session, plain or inside a batch frame."""
        priced = ElementSMsg.bits
        monkeypatch.setattr(ElementSMsg, "bits",
                            lambda self, encoding: priced(self, encoding) + 1)
        a = SkipRotatingVector.from_segments([[("S0", 1)]])
        b = SkipRotatingVector.from_segments([[("S1", 1)], [("S0", 1)]])
        sender, receiver = syncs_sender(b), syncs_receiver(a, reconcile=False)
        if framed:
            sender = batch_party([sender], initiator=True)
            receiver = batch_party([receiver], initiator=False)
        with pytest.raises(ProtocolError,
                           match="pricing mismatch on srv_fwd"):
            run_session_serialized(sender, receiver, codec=CODEC,
                                   forward_channel="srv_fwd",
                                   backward_channel="srv_bwd")
