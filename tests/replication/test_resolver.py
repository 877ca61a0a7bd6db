"""Tests for the conflict-resolution policies and stock merges."""

from repro.replication.resolver import (AutomaticResolution, ManualResolution,
                                        deterministic_pick, union_merge)


class TestPolicies:
    def test_kinds(self):
        assert ManualResolution().kind == "manual"
        assert AutomaticResolution(union_merge).kind == "automatic"

    def test_automatic_carries_merge_fn(self):
        policy = AutomaticResolution(max)
        assert policy.merge(3, 5) == 5


class TestUnionMerge:
    def test_sets(self):
        assert union_merge({1, 2}, {2, 3}) == frozenset({1, 2, 3})

    def test_scalars_become_sets(self):
        assert union_merge("a", "b") == frozenset({"a", "b"})

    def test_none_is_empty(self):
        assert union_merge(None, {1}) == frozenset({1})

    def test_commutative(self):
        assert union_merge({1}, {2}) == union_merge({2}, {1})


class TestDeterministicPick:
    def test_order_independent(self):
        assert deterministic_pick("v1", "v2") == deterministic_pick("v2", "v1")

    def test_idempotent(self):
        assert deterministic_pick("v", "v") == "v"

