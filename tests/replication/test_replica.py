"""Tests for the replica records and the metadata factory."""

import pytest

from repro.core.skip import SkipRotatingVector
from repro.core.versionvector import VersionVector
from repro.protocols import registry
from repro.replication.replica import (METADATA_KINDS, StateReplica,
                                       make_metadata)


class TestMetadataFactory:
    def test_all_kinds_construct(self):
        expected = {"vv": VersionVector}
        expected.update((kind, registry.get(kind).vector_cls)
                        for kind in ("brv", "crv", "srv"))
        assert set(METADATA_KINDS) == set(expected)
        for kind, cls in expected.items():
            assert type(make_metadata(kind)) is cls

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown metadata kind"):
            make_metadata("zz")

    def test_instances_are_fresh(self):
        first = make_metadata("srv")
        first.record_update("A")
        assert len(make_metadata("srv")) == 0


class TestStateReplica:
    def test_values_snapshot_for_plain_vector(self):
        meta = VersionVector({"A": 2})
        replica = StateReplica("A", "obj", "v", meta)
        assert replica.values_snapshot() == {"A": 2}

    def test_values_snapshot_for_rotating_vector(self):
        meta = SkipRotatingVector.from_pairs([("B", 1), ("A", 2)])
        replica = StateReplica("A", "obj", "v", meta)
        assert replica.values_snapshot() == {"A": 2, "B": 1}

    def test_defaults(self):
        replica = StateReplica("A", "obj", None, VersionVector())
        assert replica.node_id is None
        assert replica.conflicted is False
        assert replica.updates == 0
