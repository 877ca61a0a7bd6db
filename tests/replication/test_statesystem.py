"""Tests for the state-transfer replication system."""

import pytest

from repro.core.order import Ordering
from repro.errors import ConflictDetected, ReproError
from repro.replication.resolver import (AutomaticResolution, ManualResolution,
                                        union_merge)
from repro.replication.statesystem import StateTransferSystem
from repro.workload.generator import WorkloadConfig, generate_trace
from repro.workload.replay import replay_state
from tests.helpers import LINKED_CLASSES, linked_vectors


def three_site_system(metadata="srv", resolution=None):
    system = StateTransferSystem(metadata=metadata, resolution=resolution)
    system.create_object("A", "doc", frozenset({"base"}))
    system.clone_replica("A", "B", "doc")
    system.clone_replica("A", "C", "doc")
    return system


class TestLifecycle:
    def test_create_counts_as_first_update(self):
        system = StateTransferSystem(metadata="srv")
        replica = system.create_object("A", "doc", "v0")
        assert replica.values_snapshot() == {"A": 1}

    def test_duplicate_create_rejected(self):
        system = StateTransferSystem()
        system.create_object("A", "doc", "v0")
        with pytest.raises(ReproError):
            system.create_object("A", "doc", "again")

    def test_clone_brings_value_and_metadata(self):
        system = three_site_system()
        replica = system.replica("B", "doc")
        assert replica.value == frozenset({"base"})
        assert replica.values_snapshot() == {"A": 1}

    def test_unknown_replica_raises(self):
        system = StateTransferSystem()
        with pytest.raises(ReproError):
            system.replica("A", "ghost")

    def test_update_overwrites_value(self):
        system = three_site_system()
        system.update("B", "doc", frozenset({"base", "b"}))
        replica = system.replica("B", "doc")
        assert replica.value == frozenset({"base", "b"})
        assert replica.values_snapshot() == {"A": 1, "B": 1}

    def test_replicas_of(self):
        system = three_site_system()
        assert [r.site for r in system.replicas_of("doc")] == ["A", "B", "C"]


class TestPullVerdicts:
    def test_pull_when_behind(self):
        system = three_site_system()
        system.update("B", "doc", frozenset({"base", "b"}))
        outcome = system.pull("C", "B", "doc")
        assert outcome.verdict is Ordering.BEFORE
        assert outcome.action == "pull"
        assert system.replica("C", "doc").value == frozenset({"base", "b"})

    def test_noop_when_equal_or_ahead(self):
        system = three_site_system()
        assert system.pull("B", "C", "doc").action == "none"
        system.update("B", "doc", frozenset({"x"}))
        outcome = system.pull("B", "C", "doc")
        assert outcome.verdict is Ordering.AFTER
        assert outcome.action == "none"

    def test_payload_only_on_transfer(self):
        system = three_site_system()
        noop = system.pull("B", "C", "doc")
        assert noop.payload_bits == 0
        system.update("B", "doc", frozenset({"b"}))
        pull = system.pull("C", "B", "doc")
        assert pull.payload_bits > 0

    def test_reconcile_merges_and_increments(self):
        system = three_site_system(
            resolution=AutomaticResolution(union_merge))
        system.update("B", "doc", frozenset({"base", "b"}))
        system.update("C", "doc", frozenset({"base", "c"}))
        outcome = system.pull("B", "C", "doc")
        assert outcome.verdict is Ordering.CONCURRENT
        assert outcome.action == "reconcile"
        replica = system.replica("B", "doc")
        assert replica.value == frozenset({"base", "b", "c"})
        # §2.2: B incremented itself after the merge.
        assert replica.values_snapshot() == {"A": 1, "B": 2, "C": 1}

    def test_anti_entropy_converges(self):
        system = three_site_system(
            resolution=AutomaticResolution(union_merge))
        system.update("B", "doc", frozenset({"b"}))
        system.update("C", "doc", frozenset({"c"}))
        system.sync_bidirectional("B", "C", "doc")
        system.pull("A", "B", "doc")
        assert system.is_consistent("doc")

    def test_outcome_history_recorded(self):
        system = three_site_system()
        system.pull("B", "C", "doc")
        assert len(system.outcomes) == 3  # two clones + one pull
        assert system.total_metadata_bits() > 0


class TestMetadataKinds:
    @pytest.mark.parametrize("kind", ["vv", "brv", "crv", "srv"])
    def test_linear_history_works_for_all_kinds(self, kind):
        resolution = ManualResolution() if kind == "brv" else None
        system = StateTransferSystem(metadata=kind, resolution=resolution)
        system.create_object("A", "doc", "v0")
        system.clone_replica("A", "B", "doc")
        system.update("A", "doc", "v1")
        outcome = system.pull("B", "A", "doc")
        assert outcome.action == "pull"
        assert system.replica("B", "doc").value == "v1"

    @pytest.mark.parametrize("kind", ["vv", "crv", "srv"])
    def test_conflicts_reconcile_for_conflict_capable_kinds(self, kind):
        system = StateTransferSystem(
            metadata=kind, resolution=AutomaticResolution(union_merge))
        system.create_object("A", "doc", frozenset({"base"}))
        system.clone_replica("A", "B", "doc")
        system.update("A", "doc", frozenset({"a"}))
        system.update("B", "doc", frozenset({"b"}))
        outcome = system.pull("A", "B", "doc")
        assert outcome.action == "reconcile"

    def test_brv_with_automatic_resolution_rejected(self):
        with pytest.raises(ReproError, match="manual"):
            StateTransferSystem(metadata="brv",
                                resolution=AutomaticResolution(union_merge))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            StateTransferSystem(metadata="banana")


class TestLinkedOracle:
    """Replicas take their vector class from the protocol registry, so the
    linked-list oracle reaches the replication system too."""

    @staticmethod
    def _replay(kind, trace):
        resolution = ManualResolution() if kind == "brv" else None
        system = StateTransferSystem(metadata=kind, resolution=resolution)
        replay_state(trace, system)
        pulls = [(o.object_id, o.src_site, o.dst_site, o.verdict, o.action,
                  o.metadata_bits) for o in system.outcomes]
        replicas = [r for obj in ("obj0", "obj1")
                    for r in system.replicas_of(obj)]
        return (pulls, [r.meta.order.as_tuples() for r in replicas],
                {type(r.meta) for r in replicas})

    @pytest.mark.parametrize("kind, action", [
        ("brv", "conflict"), ("crv", "reconcile"), ("srv", "reconcile")])
    def test_array_and_linked_vectors_replay_identically(self, kind, action):
        trace = generate_trace(WorkloadConfig(n_sites=6, n_objects=2,
                                              steps=300, seed=5))
        array = self._replay(kind, trace)
        with linked_vectors():
            linked = self._replay(kind, trace)
        assert linked[2] == {LINKED_CLASSES[kind]} != array[2]
        assert linked[:2] == array[:2]
        assert action in {pull[4] for pull in array[0]}


class TestManualResolution:
    def test_conflict_excludes_both_replicas(self):
        system = three_site_system(resolution=ManualResolution())
        system.update("B", "doc", frozenset({"b"}))
        system.update("C", "doc", frozenset({"c"}))
        outcome = system.pull("B", "C", "doc")
        assert outcome.action == "conflict"
        assert system.replica("B", "doc").conflicted
        assert system.replica("C", "doc").conflicted
        assert system.conflicts == [("doc", "B", "C")]

    def test_excluded_replicas_refuse_work(self):
        system = three_site_system(resolution=ManualResolution())
        system.update("B", "doc", frozenset({"b"}))
        system.update("C", "doc", frozenset({"c"}))
        system.pull("B", "C", "doc")
        with pytest.raises(ConflictDetected):
            system.update("B", "doc", frozenset({"more"}))
        with pytest.raises(ConflictDetected):
            system.pull("A", "B", "doc")

    def test_strict_mode_raises_immediately(self):
        system = StateTransferSystem(resolution=ManualResolution(),
                                     strict_conflicts=True)
        system.create_object("A", "doc", "v0")
        system.clone_replica("A", "B", "doc")
        system.update("A", "doc", "va")
        system.update("B", "doc", "vb")
        with pytest.raises(ConflictDetected):
            system.pull("A", "B", "doc")

    def test_manual_resolution_readmits(self):
        system = three_site_system(resolution=ManualResolution())
        system.update("B", "doc", frozenset({"b"}))
        system.update("C", "doc", frozenset({"c"}))
        system.pull("B", "C", "doc")
        system.resolve_manually("B", "doc", frozenset({"b", "c"}))
        assert not system.replica("B", "doc").conflicted
        assert not system.replica("C", "doc").conflicted
        outcome = system.pull("C", "B", "doc")
        assert outcome.action == "pull"
        assert system.replica("C", "doc").value == frozenset({"b", "c"})

    def test_resolve_requires_conflicted_replica(self):
        system = three_site_system(resolution=ManualResolution())
        with pytest.raises(ReproError):
            system.resolve_manually("B", "doc", "x")


class TestGraphTracking:
    def test_graph_records_updates_and_merges(self):
        system = three_site_system(
            resolution=AutomaticResolution(union_merge))
        system.update("B", "doc", frozenset({"b"}))
        system.update("C", "doc", frozenset({"c"}))
        system.pull("B", "C", "doc")
        graph = system.graph("doc")
        # create + 2 updates + merge + increment = 5 nodes
        assert len(graph) == 5
        merges = [n for n in graph.nodes() if n.is_merge]
        assert len(merges) == 1
        assert merges[0].parents != ()

    def test_labels_follow_pulls(self):
        system = three_site_system()
        system.update("B", "doc", frozenset({"b"}))
        system.pull("C", "B", "doc")
        graph = system.graph("doc")
        node = graph.node(system.replica("C", "doc").node_id)
        assert "C" in node.sites and "B" in node.sites

    def test_tracking_can_be_disabled(self):
        system = StateTransferSystem(track_graph=False)
        system.create_object("A", "doc", "v0")
        with pytest.raises(ReproError):
            system.graph("doc")
