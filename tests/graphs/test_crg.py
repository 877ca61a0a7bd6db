"""Tests for coalesced replication graphs, segments, and Π sets (Figure 2)."""

import random

import pytest

from repro.errors import GraphError
from repro.graphs.crg import coalesce
from repro.graphs.replicationgraph import ReplicationGraph
from repro.workload.scenarios import figure1_graph


def linear_graph(*vectors):
    graph = ReplicationGraph()
    graph.add_initial(vectors[0])
    for index in range(1, len(vectors)):
        graph.add_update(index, vectors[index])
    return graph


class TestFigure2:
    def test_coalesces_to_seven_nodes(self):
        crg = coalesce(figure1_graph())
        members = sorted(node.members for node in crg.nodes())
        assert members == [(1,), (2,), (3,), (4, 5, 6), (7,), (8,), (9,)]

    def test_merge_flags_preserved(self):
        crg = coalesce(figure1_graph())
        assert crg.node(crg.canonical(7)).is_merge
        assert crg.node(crg.canonical(9)).is_merge
        assert not crg.node(crg.canonical(6)).is_merge

    def test_chain_node_uses_youngest_vector(self):
        crg = coalesce(figure1_graph())
        chain = crg.node(crg.canonical(4))
        assert chain.node_id == 6
        assert dict(chain.vector) == {"G": 1, "F": 1, "E": 1, "A": 1}

    def test_prefixing_segments_match_the_boxes(self):
        """Figure 2's boxed segments: ⟨A:1⟩ ⟨B:1⟩ ⟨C:1⟩ ⟨G,F,E⟩ ⟨H:1⟩."""
        crg = coalesce(figure1_graph())
        expected = {
            1: [("A", 1)],
            2: [("B", 1)],
            3: [("C", 1)],
            6: [("G", 1), ("F", 1), ("E", 1)],
            8: [("H", 1)],
        }
        for node_id, segment in expected.items():
            assert crg.prefixing_segment(node_id) == segment

    def test_merge_nodes_have_no_segment(self):
        crg = coalesce(figure1_graph())
        with pytest.raises(GraphError):
            crg.prefixing_segment(7)

    def test_parent_links_are_canonical(self):
        crg = coalesce(figure1_graph())
        node7 = crg.node(7)
        assert set(node7.parents) == {2, 6}
        node9 = crg.node(9)
        assert set(node9.parents) == {8, 3}


class TestPiSets:
    def test_pi_of_theta7_and_theta9(self):
        crg = coalesce(figure1_graph())
        assert crg.pi_set(7) == {1, 2, 6}
        assert crg.pi_set(9) == {1, 2, 3, 6, 8}

    def test_pi_count_equals_segment_count_including_vanished(self):
        # θ9 has five segments (⟨C⟩⟨H⟩⟨G,F,E⟩⟨B⟩⟨A⟩), none vanished: |Π| = 5.
        crg = coalesce(figure1_graph())
        assert len(crg.pi_set(9)) == 5

    def test_gamma_upper_bound(self):
        crg = coalesce(figure1_graph())
        assert crg.gamma_upper_bound(7, 9) == len({1, 2, 6} & {1, 2, 3, 6, 8})

    def test_pi_of_source(self):
        crg = coalesce(figure1_graph())
        assert crg.pi_set(1) == {1}


class TestCoalescingRules:
    def test_source_never_joins_a_chain(self):
        graph = linear_graph([("A", 1)], [("A", 2)], [("A", 3)])
        crg = coalesce(graph)
        members = sorted(node.members for node in crg.nodes())
        assert members == [(1,), (2, 3)]

    def test_branching_breaks_chains(self):
        graph = ReplicationGraph()
        graph.add_initial([("A", 1)])
        graph.add_update(1, [("B", 1), ("A", 1)])
        graph.add_update(2, [("C", 1), ("B", 1), ("A", 1)])
        graph.add_update(2, [("D", 1), ("B", 1), ("A", 1)])
        crg = coalesce(graph)
        # Node 2 has two children: it stands alone.
        assert sorted(node.members for node in crg.nodes()) == [
            (1,), (2,), (3,), (4,)]

    def test_member_with_two_children_cannot_coalesce(self):
        # §4 merges "consecutive single-parent nodes each with at most one
        # child": node 3 has two children, so it may not join any chain —
        # not even as the youngest member.
        graph = ReplicationGraph()
        graph.add_initial([("A", 1)])
        graph.add_update(1, [("B", 1), ("A", 1)])           # 2
        graph.add_update(2, [("C", 1), ("B", 1), ("A", 1)])  # 3
        graph.add_update(3, [("D", 1), ("C", 1), ("B", 1), ("A", 1)])  # 4
        graph.add_update(3, [("E", 1), ("C", 1), ("B", 1), ("A", 1)])  # 5
        crg = coalesce(graph)
        members = [node.members for node in crg.nodes()]
        assert (2,) in members and (3,) in members

    def test_canonical_lookup(self):
        crg = coalesce(figure1_graph())
        assert crg.canonical(4) == 6
        assert crg.canonical(5) == 6
        assert crg.canonical(6) == 6
        with pytest.raises(GraphError):
            crg.canonical(42)

    def test_segment_of_source_is_whole_vector(self):
        graph = linear_graph([("A", 1)])
        crg = coalesce(graph)
        assert crg.prefixing_segment(1) == [("A", 1)]

    def test_repeated_site_updates_shrink_parent_segment(self):
        # Chain: source ⟨A:1⟩, then B:1, then B:2 — the B segment in the
        # final vector holds B:2 only (B:1 vanished by rotation).
        graph = ReplicationGraph()
        graph.add_initial([("A", 1)])
        graph.add_update(1, [("B", 1), ("A", 1)])
        graph.add_update(2, [("B", 2), ("A", 1)])
        crg = coalesce(graph)
        assert crg.prefixing_segment(crg.canonical(3)) == [("B", 2)]


def _random_history(rng, steps):
    """Grow a replication graph with random updates and merges."""
    graph = ReplicationGraph()
    counter = {"A": 1}
    root = graph.add_initial([("A", 1)])
    frontier = [root.node_id]
    sites = ["A", "B", "C", "D", "E"]
    for _ in range(steps):
        site = rng.choice(sites)
        counter[site] = counter.get(site, 0) + 1
        vector = sorted(counter.items())
        if len(frontier) >= 2 and rng.random() < 0.3:
            left, right = rng.sample(frontier, 2)
            node = graph.add_merge(left, right, vector)
            frontier = [f for f in frontier
                        if f not in (left, right)] + [node.node_id]
        else:
            parent = rng.choice(frontier)
            node = graph.add_update(parent, vector)
            if rng.random() < 0.6:
                frontier.remove(parent)
            frontier.append(node.node_id)
    return graph


def test_crg_pi_set_matches_uncached_reference():
    for seed in range(10):
        rng = random.Random(1000 + seed)
        graph = _random_history(rng, 40)
        crg = coalesce(graph)
        for node in crg.nodes():
            assert crg.pi_set(node.node_id) == \
                crg.pi_set_uncached(node.node_id)
