"""The protocol registry: declarative dispatch for all three schemes."""

import pytest

from repro.core.arrayvec import (ArrayBasicRotatingVector,
                                 ArrayConflictRotatingVector,
                                 ArraySkipRotatingVector)
from repro.core.rotating import BasicRotatingVector
from repro.core.skip import SkipRotatingVector
from repro.errors import ConcurrentVectorsError
from repro.net.cluster import ClusterConfig, ClusterRunner
from repro.net.wire import Encoding
from repro.protocols import registry
from repro.protocols.messages import ElementCMsg, ElementMsg, ElementSMsg
from repro.protocols.session import run_session
from tests.helpers import linked_vectors

ENC = Encoding(site_bits=8, value_bits=16)


class TestRegistryLookup:
    def test_all_three_schemes_registered(self):
        assert registry.names() == ["brv", "crv", "srv"]

    def test_unknown_name_raises_with_the_catalogue(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            registry.get("gossip")

    def test_vector_classes(self):
        assert registry.get("brv").vector_cls is ArrayBasicRotatingVector
        assert registry.get("crv").vector_cls is ArrayConflictRotatingVector
        assert registry.get("srv").vector_cls is ArraySkipRotatingVector

    def test_linked_oracle_is_reached_by_re_registering(self):
        sites = ["A", "B"]
        with linked_vectors():
            assert registry.get("srv").vector_cls is SkipRotatingVector
            runner = ClusterRunner(sites, ClusterConfig(protocol="srv"))
            assert type(runner.vectors["A"]) is SkipRotatingVector
        assert registry.get("srv").vector_cls is ArraySkipRotatingVector
        runner = ClusterRunner(sites, ClusterConfig(protocol="srv"))
        assert type(runner.vectors["A"]) is ArraySkipRotatingVector

    def test_reconciliation_traits(self):
        assert not registry.get("brv").reconciles
        assert registry.get("crv").reconciles
        assert registry.get("srv").reconciles

    def test_flag_bits_match_the_element_wire_format(self):
        # An element on the wire is a tag bit, site, value and the flags
        # the scheme's vector stores per element.
        elements = {"brv": ElementMsg("A", 1),
                    "crv": ElementCMsg("A", 1, True),
                    "srv": ElementSMsg("A", 1, True, True)}
        for name, element in elements.items():
            assert registry.get(name).flag_bits == (
                element.bits(ENC) - 1 - ENC.site_bits - ENC.value_bits)

    def test_register_replaces_and_restores(self):
        original = registry.get("srv")
        try:
            replacement = registry.ProtocolSpec(
                name="srv", vector_cls=SkipRotatingVector, flag_bits=2,
                reconciles=True,
                make_sender=original.make_sender,
                make_receiver=original.make_receiver)
            assert registry.register(replacement) is replacement
            assert registry.get("srv") is replacement
        finally:
            registry.register(original)
        assert registry.get("srv") is original


class TestBuild:
    def test_brv_rejects_concurrent_vectors(self):
        a = BasicRotatingVector.from_pairs([("A", 1)])
        b = a.copy()
        a.record_update("A")
        b.record_update("B")
        with pytest.raises(ConcurrentVectorsError):
            registry.get("brv").build(b, a, a.compare(b))

    def test_srv_build_runs_to_convergence(self):
        a = SkipRotatingVector.from_pairs([("A", 1)])
        b = a.copy()
        a.record_update("A")
        b.record_update("B")
        sender, receiver, reconciled = registry.get("srv").build(
            b, a, a.compare(b))
        assert reconciled
        run_session(sender, receiver, encoding=ENC)
        assert a.to_version_vector().as_dict() == {"A": 2, "B": 1}

    def test_ordered_sync_reports_no_reconciliation(self):
        a = SkipRotatingVector.from_pairs([("A", 1)])
        b = a.copy()
        b.record_update("B")
        _, _, reconciled = registry.get("srv").build(b, a, a.compare(b))
        assert not reconciled
