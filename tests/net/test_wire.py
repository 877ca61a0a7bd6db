"""Tests for the bit-exact wire encoding (Table 2's cost model)."""

import pytest

from repro.errors import ValidationError
from repro.extensions.varint import AdaptiveEncoding
from repro.net.wire import DEFAULT_ENCODING, Encoding, bits_for
from repro.protocols.messages import (AbortMsg, CompareLeast, ElementCMsg,
                                      ElementMsg, ElementSMsg, FullGraphMsg,
                                      FullVectorMsg, GraphNodeMsg, Halt,
                                      PayloadMsg, Skip, SkipToMsg, VerdictBit)

ENC = Encoding(site_bits=10, value_bits=20, node_id_bits=24)


class TestFieldWidths:
    def test_bits_for(self):
        assert bits_for(1) == 1
        assert bits_for(2) == 2
        assert bits_for(255) == 8
        assert bits_for(256) == 9

    def test_bits_for_rejects_zero(self):
        with pytest.raises(ValueError):
            bits_for(0)

    def test_for_system_rejects_zero_sites(self):
        with pytest.raises(ValidationError, match="count"):
            Encoding.for_system(0, 64)

    def test_for_system(self):
        encoding = Encoding.for_system(100, 1000, n_graph_nodes=5000)
        assert encoding.site_bits == bits_for(100)
        assert encoding.value_bits == bits_for(1000)
        assert encoding.node_id_bits == bits_for(5000)

    def test_for_system_default_node_bits(self):
        assert Encoding.for_system(4, 4).node_id_bits == 32

    @pytest.mark.parametrize("cls", [Encoding, AdaptiveEncoding])
    @pytest.mark.parametrize("widths", [
        {"site_bits": 0, "value_bits": -3, "session_header_bits": -5},
        {"site_bits": 0, "value_bits": 8},
        {"site_bits": 8, "value_bits": 0},
        {"site_bits": 8, "value_bits": -1},
        {"site_bits": 8, "value_bits": 8, "node_id_bits": 0},
        {"site_bits": 8, "value_bits": 8, "session_header_bits": -1},
    ])
    def test_rejects_nonpositive_widths(self, cls, widths):
        with pytest.raises(ValidationError):
            cls(**widths)

    def test_narrowest_widths_and_free_header_are_accepted(self):
        encoding = Encoding(site_bits=1, value_bits=1, node_id_bits=1,
                            session_header_bits=0)
        assert ElementSMsg("A", 1, False, False).bits(encoding) == 5


class TestElementPricing:
    """Element records decompose exactly as Table 2's log terms."""

    def test_brv_element_is_log_2mn(self):
        assert ENC.brv_element_bits == ENC.site_bits + ENC.value_bits + 1

    def test_crv_element_is_log_4mn(self):
        assert ENC.crv_element_bits == ENC.brv_element_bits + 1

    def test_srv_element_is_log_8mn(self):
        assert ENC.srv_element_bits == ENC.brv_element_bits + 2

    def test_compare_element_is_log_mn(self):
        assert ENC.compare_element_bits == ENC.site_bits + ENC.value_bits

    def test_skip_is_log_2n(self):
        assert ENC.skip_bits == ENC.site_bits + 1


class TestTable2Bounds:
    def test_brv_bound(self):
        assert ENC.brv_sync_bound(7) == 7 * ENC.brv_element_bits + 2

    def test_crv_bound(self):
        assert ENC.crv_sync_bound(7) == 7 * ENC.crv_element_bits + 2

    def test_srv_bound(self):
        assert (ENC.srv_sync_bound(7)
                == 7 * ENC.srv_element_bits + 7 * ENC.skip_bits + 1)

    def test_bounds_are_ordered(self):
        for n in (1, 8, 64):
            assert (ENC.brv_sync_bound(n) < ENC.crv_sync_bound(n)
                    < ENC.srv_sync_bound(n))


class TestMessagePricing:
    def test_element_messages(self):
        assert ElementMsg("A", 1).bits(ENC) == ENC.brv_element_bits
        assert ElementCMsg("A", 1, True).bits(ENC) == ENC.crv_element_bits
        assert (ElementSMsg("A", 1, True, False).bits(ENC)
                == ENC.srv_element_bits)

    def test_control_messages(self):
        assert Halt(2).bits(ENC) == 2
        assert Halt(1).bits(ENC) == 1
        assert Skip(3).bits(ENC) == ENC.skip_bits
        assert AbortMsg().bits(ENC) == 1
        assert VerdictBit(True).bits(ENC) == 1

    def test_compare_least(self):
        assert CompareLeast("A", 1).bits(ENC) == ENC.compare_element_bits
        assert CompareLeast(None).bits(ENC) == ENC.compare_element_bits

    def test_full_vector(self):
        message = FullVectorMsg((("A", 1), ("B", 2)))
        assert message.bits(ENC) == ENC.full_vector_bits(2)
        assert (ENC.full_vector_bits(2)
                == ENC.site_bits + 2 * (ENC.site_bits + ENC.value_bits))

    def test_graph_messages(self):
        assert GraphNodeMsg(1, 2, 3).bits(ENC) == 3 * ENC.node_id_bits + 1
        assert SkipToMsg(1).bits(ENC) == ENC.node_id_bits + 1
        assert (FullGraphMsg(((1, None, None),)).bits(ENC)
                == ENC.full_graph_bits(1))

    def test_payload(self):
        assert PayloadMsg(10).bits(ENC) == 80

    def test_default_encoding_is_generous(self):
        assert DEFAULT_ENCODING.site_bits == 16
        assert DEFAULT_ENCODING.value_bits == 32
