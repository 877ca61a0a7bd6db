"""Tests for the operation-transfer replication system."""

import pytest

from repro.core.order import Ordering
from repro.errors import ConflictDetected, ReproError
from repro.replication.opreplica import kv_applier, log_applier
from repro.replication.opsystem import OpTransferSystem
from repro.replication.resolver import ManualResolution


def two_site_log():
    system = OpTransferSystem(applier=log_applier, initial_state=())
    system.create_object("A", "log")
    system.clone_replica("A", "B", "log")
    return system


class TestLifecycle:
    def test_create_is_source_operation(self):
        system = OpTransferSystem()
        replica = system.create_object("A", "log")
        assert len(replica.graph) == 1
        assert replica.graph.sink == ("A", 1)

    def test_duplicate_create_rejected(self):
        system = OpTransferSystem()
        system.create_object("A", "log")
        with pytest.raises(ReproError):
            system.create_object("A", "log")

    def test_update_appends_to_sink(self):
        system = two_site_log()
        operation = system.update("A", "log", "hello")
        replica = system.replica("A", "log")
        assert replica.graph.sink == operation.op_id
        assert system.state("A", "log") == ("hello",)

    def test_op_ids_are_per_site_sequences(self):
        system = two_site_log()
        first = system.update("A", "log", "x")
        second = system.update("A", "log", "y")
        assert first.op_id == ("A", 2)  # ("A", 1) was the creation
        assert second.op_id == ("A", 3)


class TestSynchronization:
    def test_fast_forward_pull(self):
        system = two_site_log()
        system.update("A", "log", "a1")
        outcome = system.pull("B", "A", "log")
        assert outcome.verdict is Ordering.BEFORE
        assert outcome.action == "pull"
        assert outcome.ops_transferred == 1
        assert system.state("B", "log") == ("a1",)

    def test_noop_when_current(self):
        system = two_site_log()
        outcome = system.pull("B", "A", "log")
        assert outcome.action == "none"
        assert outcome.ops_transferred == 0

    def test_concurrent_merge_creates_merge_op(self):
        system = two_site_log()
        system.update("A", "log", "a1")
        system.update("B", "log", "b1")
        outcome = system.pull("A", "B", "log")
        assert outcome.verdict is Ordering.CONCURRENT
        assert outcome.action == "merge"
        replica = system.replica("A", "log")
        assert replica.has_single_sink()
        assert replica.ops[replica.graph.sink].is_merge

    def test_states_converge_after_anti_entropy(self):
        system = two_site_log()
        system.update("A", "log", "a1")
        system.update("B", "log", "b1")
        system.pull("A", "B", "log")
        system.pull("B", "A", "log")
        assert system.state("A", "log") == system.state("B", "log")
        assert set(system.state("A", "log")) == {"a1", "b1"}

    def test_is_consistent(self):
        system = two_site_log()
        system.update("A", "log", "a1")
        assert not system.is_consistent("log")
        system.pull("B", "A", "log")
        assert system.is_consistent("log")

    def test_payload_bits_counted_per_transferred_op(self):
        system = two_site_log()
        system.update("A", "log", "payload-text")
        outcome = system.pull("B", "A", "log")
        assert outcome.payload_bits > 0
        assert outcome.total_bits == outcome.metadata_bits + outcome.payload_bits

    def test_full_graph_baseline_costs_more(self):
        def build(use_syncg):
            system = OpTransferSystem(use_syncg=use_syncg)
            system.create_object("A", "log")
            system.clone_replica("A", "B", "log")
            for index in range(30):
                system.update("A", "log", f"entry{index}")
                system.pull("B", "A", "log")
            return system.traffic.total_bits

        assert build(True) < build(False)


class TestManualConflicts:
    def test_manual_leaves_two_heads(self):
        system = OpTransferSystem(resolution=ManualResolution())
        system.create_object("A", "repo")
        system.clone_replica("A", "B", "repo")
        system.update("A", "repo", "a1")
        system.update("B", "repo", "b1")
        outcome = system.pull("A", "B", "repo")
        assert outcome.action == "conflict"
        replica = system.replica("A", "repo")
        assert replica.conflicted
        assert len(replica.graph.sinks()) == 2

    def test_conflicted_replica_refuses_updates(self):
        system = OpTransferSystem(resolution=ManualResolution())
        system.create_object("A", "repo")
        system.clone_replica("A", "B", "repo")
        system.update("A", "repo", "a1")
        system.update("B", "repo", "b1")
        system.pull("A", "B", "repo")
        with pytest.raises(ConflictDetected):
            system.update("A", "repo", "more")

    def test_resolve_manually_commits_merge(self):
        system = OpTransferSystem(resolution=ManualResolution())
        system.create_object("A", "repo")
        system.clone_replica("A", "B", "repo")
        system.update("A", "repo", "a1")
        system.update("B", "repo", "b1")
        system.pull("A", "B", "repo")
        merge = system.resolve_manually("A", "repo", payload=None)
        replica = system.replica("A", "repo")
        assert not replica.conflicted
        assert replica.graph.sink == merge.op_id
        # B can now fast-forward to the resolved head.
        outcome = system.pull("B", "A", "repo")
        assert outcome.action == "pull"
        assert system.is_consistent("repo")

    def test_resolve_without_conflict_rejected(self):
        system = OpTransferSystem()
        system.create_object("A", "repo")
        with pytest.raises(ReproError):
            system.resolve_manually("A", "repo")


class TestAppliers:
    def test_kv_applier_lww_in_causal_order(self):
        system = OpTransferSystem(applier=kv_applier, initial_state={})
        system.create_object("A", "kv")
        system.clone_replica("A", "B", "kv")
        system.update("A", "kv", ("x", 1))
        system.pull("B", "A", "kv")
        system.update("B", "kv", ("x", 2))
        system.pull("A", "B", "kv")
        assert system.state("A", "kv") == {"x": 2}

    def test_kv_concurrent_writes_resolve_identically(self):
        system = OpTransferSystem(applier=kv_applier, initial_state={})
        system.create_object("A", "kv")
        system.clone_replica("A", "B", "kv")
        system.update("A", "kv", ("x", "from-A"))
        system.update("B", "kv", ("x", "from-B"))
        system.pull("A", "B", "kv")
        system.pull("B", "A", "kv")
        assert system.state("A", "kv") == system.state("B", "kv")

    def test_counter_applier_sums_all_increments(self):
        def counter_applier(state, op):
            # A grow-only counter: every increment lands exactly once.
            if op.is_merge or op.payload is None:
                return state
            return state + op.payload

        system = OpTransferSystem(applier=counter_applier, initial_state=0)
        system.create_object("A", "ctr")
        system.clone_replica("A", "B", "ctr")
        system.update("A", "ctr", 5)
        system.update("B", "ctr", 7)
        system.pull("A", "B", "ctr")
        system.pull("B", "A", "ctr")
        assert system.state("A", "ctr") == 12
        assert system.state("B", "ctr") == 12

    def test_materialize_deterministic_across_replicas(self):
        system = two_site_log()
        for index in range(5):
            site = "A" if index % 2 == 0 else "B"
            system.update(site, "log", f"{site}{index}")
            system.pull("A", "B", "log")
            system.pull("B", "A", "log")
        assert system.state("A", "log") == system.state("B", "log")


class TestComparison:
    def test_compare_cost_is_constant(self):
        system = two_site_log()
        _, bits_small = system.compare("A", "B", "log")
        for index in range(50):
            system.update("A", "log", f"e{index}")
        system.pull("B", "A", "log")
        _, bits_large = system.compare("A", "B", "log")
        assert bits_small == bits_large
