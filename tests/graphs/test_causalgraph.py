"""Tests for the causal graph substrate (§6)."""

import random

import pytest

from repro.core.order import Ordering
from repro.errors import GraphError
from repro.graphs.causalgraph import CausalGraph, GraphNode, build_graph


class TestConstruction:
    def test_with_source(self):
        graph = CausalGraph.with_source("root")
        assert "root" in graph
        assert graph.sink == "root"
        assert graph.sources() == ["root"]

    def test_append_chain(self):
        graph = CausalGraph.with_source(1)
        graph.append(2, 1)
        graph.append(3, 2)
        assert graph.sink == 3
        assert graph.node(3).parents == (2,)

    def test_append_requires_existing_parent(self):
        graph = CausalGraph.with_source(1)
        with pytest.raises(GraphError):
            graph.append(2, 99)

    def test_append_rejects_duplicate_id(self):
        graph = CausalGraph.with_source(1)
        with pytest.raises(GraphError):
            graph.append(1, 1)

    def test_merge_sinks(self):
        graph = CausalGraph.with_source(1)
        graph.append(2, 1)
        graph.install(GraphNode(3, 1))
        assert sorted(graph.sinks()) == [2, 3]
        graph.merge_sinks(4, 2, 3)
        assert graph.sink == 4
        assert graph.node(4).is_merge

    def test_merge_parents_must_differ(self):
        graph = CausalGraph.with_source(1)
        graph.append(2, 1)
        with pytest.raises(GraphError):
            graph.merge_sinks(3, 2, 2)

    def test_install_out_of_order(self):
        graph = CausalGraph()
        graph.install(GraphNode(5, 4))  # parent 4 not present yet
        assert not graph.is_ancestor_closed()
        graph.install(GraphNode(4))
        assert graph.is_ancestor_closed()

    def test_install_idempotent_but_conflict_checked(self):
        graph = CausalGraph.with_source(1)
        graph.install(GraphNode(1))
        with pytest.raises(GraphError):
            graph.install(GraphNode(1, 99))

    def test_build_graph_helper(self):
        graph = build_graph([(None, 1), (1, 2), (1, 3), (2, 4), (3, 4)])
        assert graph.node(4).parents == (2, 3)
        assert graph.sink == 4

    def test_build_graph_rejects_three_parents(self):
        with pytest.raises(GraphError):
            build_graph([(None, 1), (None, 2), (None, 3),
                         (1, 4), (2, 4), (3, 4)])

    def test_build_graph_rejects_dangling_parent(self):
        with pytest.raises(GraphError):
            build_graph([(99, 1)])


class TestStructure:
    def test_sink_requires_uniqueness(self):
        graph = build_graph([(None, 1), (1, 2), (1, 3)])
        with pytest.raises(GraphError):
            _ = graph.sink

    def test_ancestors(self):
        graph = build_graph([(None, 1), (1, 2), (1, 3), (2, 4), (3, 4)])
        assert graph.ancestors(4) == {1, 2, 3}
        assert graph.ancestors(1) == set()

    def test_arcs(self):
        graph = build_graph([(None, 1), (1, 2)])
        assert graph.arcs() == {(1, 2)}

    def test_children(self):
        graph = build_graph([(None, 1), (1, 2), (1, 3)])
        assert graph.children(1) == {2, 3}

    def test_topological_order_respects_parents(self):
        graph = build_graph([(None, 1), (1, 2), (1, 3), (2, 4), (3, 4)])
        order = graph.topological_order()
        assert order.index(1) < order.index(2) < order.index(4)
        assert order.index(3) < order.index(4)

    def test_topological_order_is_deterministic(self):
        arcs = [(None, 1), (1, 3), (1, 2), (2, 4), (3, 4)]
        assert (build_graph(arcs).topological_order()
                == build_graph(arcs).topological_order())

    def test_copy_and_union(self):
        a = build_graph([(None, 1), (1, 2)])
        b = build_graph([(None, 1), (1, 3)])
        union = a.union_with(b)
        assert union.node_ids() == {1, 2, 3}
        assert a.node_ids() == {1, 2}  # original untouched

    def test_equality(self):
        a = build_graph([(None, 1), (1, 2)])
        b = build_graph([(None, 1), (1, 2)])
        assert a == b
        b.append(3, 2)
        assert a != b


class TestComparison:
    """§6: O(1) comparison via mutual sink membership."""

    def test_equal(self):
        a = build_graph([(None, 1), (1, 2)])
        b = build_graph([(None, 1), (1, 2)])
        assert a.compare(b) is Ordering.EQUAL

    def test_before_after(self):
        a = build_graph([(None, 1), (1, 2)])
        b = build_graph([(None, 1), (1, 2), (2, 3)])
        assert a.compare(b) is Ordering.BEFORE
        assert b.compare(a) is Ordering.AFTER

    def test_concurrent(self):
        a = build_graph([(None, 1), (1, 2)])
        b = build_graph([(None, 1), (1, 3)])
        assert a.compare(b) is Ordering.CONCURRENT

    def test_figure3_site_graphs_are_concurrent_after_c_updates(self):
        from repro.workload.scenarios import figure3_graphs
        site_a, site_c = figure3_graphs()
        assert site_c.compare(site_a) is Ordering.BEFORE
        site_c2 = site_c.copy()
        site_c2.append(99, site_c2.sink)
        assert site_c2.compare(site_a) is Ordering.CONCURRENT


def test_causal_graph_sink_index_matches_reference_scan():
    for seed in range(15):
        rng = random.Random(seed)
        graph = CausalGraph.with_source("root")
        frontier = ["root"]
        for step in range(rng.randint(3, 60)):
            if len(frontier) >= 2 and rng.random() < 0.35:
                left, right = rng.sample(frontier, 2)
                graph.merge_sinks(f"m{step}", left, right)
                frontier = [f for f in frontier
                            if f not in (left, right)] + [f"m{step}"]
            else:
                parent = rng.choice(frontier)
                graph.append(f"n{step}", parent)
                if rng.random() < 0.6:
                    frontier.remove(parent)
                frontier.append(f"n{step}")
            assert graph.sinks() == graph.sinks_uncached()


def test_causal_graph_sink_index_handles_out_of_order_install():
    # SYNCG delivers children before parents; the childless index must
    # stay coherent through the ancestor-open intermediate states.
    graph = CausalGraph()
    graph.install(GraphNode("c", "b"))
    assert graph.sinks() == graph.sinks_uncached() == ["c"]
    graph.install(GraphNode("b", "a"))
    assert graph.sinks() == graph.sinks_uncached() == ["c"]
    graph.install(GraphNode("a"))
    assert graph.sinks() == graph.sinks_uncached() == ["c"]
    assert graph.is_ancestor_closed()


def test_added_since_reports_install_order():
    graph = CausalGraph.with_source("r")
    mark = graph.version
    graph.append("x", "r")
    graph.append("y", "x")
    assert graph.added_since(mark) == ["x", "y"]
    assert graph.added_since(0) == ["r", "x", "y"]
    copied = graph.copy()
    assert copied.added_since(0) == ["r", "x", "y"]
    assert copied.sinks() == graph.sinks()
