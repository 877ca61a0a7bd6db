"""Tests for ASCII graph rendering."""

from repro.core.skip import SkipRotatingVector
from repro.graphs.causalgraph import build_graph
from repro.graphs.render import render_causal_graph, render_replication_graph
from repro.workload.scenarios import figure1_graph, figure1_vectors


class TestCausalRendering:
    def test_chain(self):
        graph = build_graph([(None, 1), (1, 2), (2, 3)])
        assert render_causal_graph(graph) == "1\n└─ 2\n   └─ 3"

    def test_branching(self):
        graph = build_graph([(None, 1), (1, 2), (1, 3)])
        text = render_causal_graph(graph)
        assert "├─ 2" in text
        assert "└─ 3" in text

    def test_merge_renders_backreference(self):
        graph = build_graph([(None, 1), (1, 2), (1, 3), (2, 4), (3, 4)])
        text = render_causal_graph(graph)
        assert text.count("└─ 4") + text.count("├─ 4") == 1
        assert "(↑ 4)" in text

    def test_every_node_appears(self):
        graph = build_graph([(None, 1), (1, 2), (1, 3), (2, 4), (3, 4),
                             (4, 5)])
        text = render_causal_graph(graph)
        for node_id in graph.node_ids():
            assert str(node_id) in text

    def test_custom_labels(self):
        graph = build_graph([(None, 1), (1, 2)])
        text = render_causal_graph(graph, label=lambda n: f"op{n}")
        assert "op1" in text and "op2" in text


class TestReplicationRendering:
    def test_figure1_renders_completely(self):
        text = render_replication_graph(figure1_graph())
        for node_id in range(1, 10):
            assert str(node_id) in text
        assert text.count("[merge]") == 2
        assert "@{A,D}" in text        # node 7's host labels
        assert "⟨A:1⟩" in text         # the source vector

    def test_vectors_can_be_hidden(self):
        text = render_replication_graph(figure1_graph(), show_vectors=False,
                                        show_sites=False)
        assert "⟨" not in text
        assert "@{" not in text


class TestSegmentRendering:
    def test_theta9_segments(self):
        # The segments Figure 2 draws as boxes: [C:1] [H:1, G:1, F:1, E:1]
        # [B:1, A:1].
        thetas = figure1_vectors(SkipRotatingVector)
        assert [list(segment) for segment in thetas[9].segments()] == [
            [("C", 1)], [("H", 1), ("G", 1), ("F", 1), ("E", 1)],
            [("B", 1), ("A", 1)]]
