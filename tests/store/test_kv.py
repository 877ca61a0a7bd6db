"""Per-site key-value semantics: siblings, contexts, tombstones."""

from repro.core.order import Ordering
from repro.core.rotating import BasicRotatingVector
from repro.core.skip import SkipRotatingVector
from repro.store.kv import (TOMBSTONE, SiteStore, context_covers,
                            merge_siblings)


class TestMergeSiblings:
    def test_union_dedupes_and_sorts(self):
        assert merge_siblings(("b", "a"), ("a", "c")) == ("a", "b", "c")

    def test_idempotent_commutative(self):
        left = merge_siblings(("x", "y"), ("z",))
        right = merge_siblings(("z",), ("y", "x"))
        assert left == right == merge_siblings(left, right)

    def test_tombstone_sorts_last(self):
        assert merge_siblings((TOMBSTONE,), ("a",)) == ("a", TOMBSTONE)

    def test_equal_values_of_different_types_are_one_sibling(self):
        assert merge_siblings((1, "a"), (1.0, True)) == (1, "a")

    def test_unhashable_values_dedupe_by_equality(self):
        merged = merge_siblings(([1], {"k": 2}, "a"), ([1], "a", [2]))
        assert merged == ([1], [2], "a", {"k": 2})

    def test_cost_is_linear_in_the_sibling_count(self):
        # A hot key's sibling set runs past a hundred and its size
        # depends on the interleaving: a superlinear merge makes the cost
        # of a whole run swing with the seed.
        compared = [0]

        class Value:
            def __init__(self, n):
                self.n = n

            def __hash__(self):
                return hash(self.n)

            def __eq__(self, other):
                compared[0] += 1
                return self.n == other.n

            def __str__(self):
                return f"{self.n:04d}"

        left = tuple(Value(n) for n in range(0, 400))
        right = tuple(Value(n) for n in range(200, 600))
        merged = merge_siblings(left, right)
        assert [value.n for value in merged] == list(range(600))
        # One comparison per duplicate (plus hash collisions, of which
        # small ints have none); a pairwise scan makes ~200,000.
        assert compared[0] <= 2 * len(right)


class TestContextCovers:
    def test_none_never_covers(self):
        vector = BasicRotatingVector()
        assert context_covers(None, vector) is False

    def test_covering_and_stale_contexts(self):
        vector = BasicRotatingVector()
        vector.record_update("A")
        vector.record_update("B")
        assert context_covers({"A": 1, "B": 1}, vector)
        assert context_covers({"A": 1, "B": 2}, vector)
        assert not context_covers({"A": 1}, vector)
        assert not context_covers({}, vector)


class TestClientOperations:
    def test_get_missing_key(self):
        store = SiteStore("A")
        result = store.get("k")
        assert result.values == () and result.context == {}
        assert not result.exists

    def test_put_then_get_roundtrip(self):
        store = SiteStore("A")
        put = store.put("k", "v1", now=1.0)
        got = store.get("k")
        assert got.values == ("v1",)
        assert got.context == {"A": 1} == put.context
        assert got.as_of == 1.0

    def test_covered_put_supersedes(self):
        store = SiteStore("A")
        first = store.put("k", "v1")
        second = store.put("k", "v2", context=first.context)
        assert second.values == ("v2",)

    def test_stale_put_lands_as_sibling(self):
        store = SiteStore("A")
        stale = store.put("k", "v1").context
        store.put("k", "v2", context=stale)
        concurrent = store.put("k", "v3", context=stale)
        assert concurrent.values == ("v2", "v3")

    def test_every_write_rotates_the_site_to_front(self):
        store = SiteStore("A", SkipRotatingVector)
        store.put("k", "v1")
        store.put("k", "v2")
        vector = store.record("k").vector
        assert vector.elements()[0] == ("A", 2)

    def test_covered_delete_reads_as_absent(self):
        store = SiteStore("A")
        context = store.put("k", "v1").context
        gone = store.delete("k", context=context)
        assert gone.values == ()
        assert not store.get("k").exists
        # The causal history survives the delete.
        assert store.get("k").context == {"A": 2}

    def test_concurrent_delete_keeps_the_unseen_sibling(self):
        store = SiteStore("A")
        stale = store.put("k", "v1").context
        store.put("k", "v2", context=stale)
        store.delete("k", context=stale)
        assert store.get("k").values == ("v2",)


class TestAbsorb:
    def test_before_adopts_sender_siblings(self):
        store = SiteStore("B")
        store.put("k", "old")
        changed = store.absorb("k", Ordering.BEFORE, ("new",), 2.0)
        assert changed
        record = store.record("k")
        assert record.siblings == ("new",) and record.updated_at == 2.0

    def test_concurrent_unions(self):
        store = SiteStore("B")
        store.put("k", "mine")
        assert store.absorb("k", Ordering.CONCURRENT, ("theirs",), 0.0)
        assert store.record("k").siblings == ("mine", "theirs")

    def test_after_and_equal_are_noops(self):
        store = SiteStore("B")
        store.put("k", "mine")
        for verdict in (Ordering.AFTER, Ordering.EQUAL):
            assert not store.absorb("k", verdict, ("theirs",), 0.0)
        assert store.record("k").siblings == ("mine",)
