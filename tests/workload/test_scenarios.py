"""Tests for scripted scenarios, including the Figure 1 replay."""

import pytest

from repro.core.conflict import ConflictRotatingVector
from repro.core.rotating import BasicRotatingVector
from repro.core.skip import SkipRotatingVector
from repro.errors import ReproError
from repro.workload.cluster import site_names
from repro.workload.events import (CloneEvent, CreateEvent, SyncEvent,
                                   UpdateEvent)
from repro.workload.scenarios import (FIGURE1_ORDERS, FIGURE1_VECTORS,
                                      figure1_vectors, figure3_graphs)


def chain_trace(n_sites: int, rounds: int, object_id: str = "obj0"):
    """Updates at the head site flow down a chain — BRV's best case.

    Every round: one update at site 0, then a cascade of pulls
    1←0, 2←1, …; no two updates are ever concurrent.
    """
    sites = site_names(n_sites)
    trace = [CreateEvent(sites[0], object_id, "v0")]
    trace.extend(CloneEvent(sites[0], dst, object_id) for dst in sites[1:])
    for round_no in range(rounds):
        trace.append(UpdateEvent(sites[0], object_id, f"v{round_no + 1}"))
        for index in range(1, n_sites):
            trace.append(SyncEvent(sites[index - 1], sites[index], object_id))
    return trace


def all_write_then_gossip_trace(n_sites: int, rounds: int,
                                object_id: str = "obj0"):
    """Every site writes, then a gossip sweep reconciles — maximal conflicts.

    Models the paper's high-conflict example (§4): a heavily updated,
    append-only replicated log where nearly every synchronization is a
    (syntactic-only) reconciliation.
    """
    sites = site_names(n_sites)
    trace = [CreateEvent(sites[0], object_id, "v0")]
    trace.extend(CloneEvent(sites[0], dst, object_id) for dst in sites[1:])
    for round_no in range(rounds):
        for site in sites:
            trace.append(UpdateEvent(site, object_id,
                                     f"{site}r{round_no}"))
        for index in range(1, n_sites):
            trace.append(SyncEvent(sites[index - 1], sites[index], object_id))
        for index in range(n_sites - 2, -1, -1):
            trace.append(SyncEvent(sites[index + 1], sites[index], object_id))
    return trace


class TestFigure1Vectors:
    @pytest.mark.parametrize("cls",
                             [ConflictRotatingVector, SkipRotatingVector])
    def test_values_and_orders_match_the_paper(self, cls):
        thetas = figure1_vectors(cls)
        for node_id, theta in thetas.items():
            assert theta.to_version_vector().as_dict() == \
                FIGURE1_VECTORS[node_id], f"θ{node_id} values"
            assert theta.sites_in_order() == FIGURE1_ORDERS[node_id], \
                f"θ{node_id} order"

    def test_theta7_conflict_bits(self):
        thetas = figure1_vectors(ConflictRotatingVector)
        # θ₇ := SYNCC_θ₆(θ₂): the elements pulled from θ₆ are tagged.
        assert thetas[7].conflict_sites() == ["G", "F", "E"]

    def test_theta9_conflict_bits(self):
        thetas = figure1_vectors(ConflictRotatingVector)
        assert thetas[9].conflict_sites() == ["C", "G", "F", "E"]

    def test_srv_theta9_segments(self):
        thetas = figure1_vectors(SkipRotatingVector)
        sites = [[s for s, _ in seg] for seg in thetas[9].segments()]
        # Locally tracked segmentation is coarser than the global CRG's
        # (["C"], ["H"], ["G","F","E"], ["B"], ["A"]) but suffix-safe.
        assert sites == [["C"], ["H", "G", "F", "E"], ["B", "A"]]

    def test_brv_cannot_replay_reconciliations(self):
        with pytest.raises(ReproError):
            figure1_vectors(BasicRotatingVector)


class TestFigure3Graphs:
    def test_node_sets(self):
        site_a, site_c = figure3_graphs()
        assert site_a.node_ids() == {1, 2, 4, 5, 6, 7}
        assert site_c.node_ids() == {1, 4, 5, 6}

    def test_merge_node_seven(self):
        site_a, _ = figure3_graphs()
        node = site_a.node(7)
        assert node.left_parent == 6 and node.right_parent == 2

    def test_sinks(self):
        site_a, site_c = figure3_graphs()
        assert site_a.sink == 7
        assert site_c.sink == 6


class TestStructuredTraces:
    def test_chain_trace_shape(self):
        trace = chain_trace(4, rounds=3)
        assert isinstance(trace[0], CreateEvent)
        syncs = [e for e in trace if isinstance(e, SyncEvent)]
        updates = [e for e in trace if isinstance(e, UpdateEvent)]
        assert len(updates) == 3
        assert len(syncs) == 3 * 3

    def test_chain_trace_has_no_conflicts(self):
        from repro.replication.resolver import ManualResolution
        from repro.replication.statesystem import StateTransferSystem
        from repro.workload.replay import replay_state
        system = StateTransferSystem(metadata="brv",
                                     resolution=ManualResolution())
        summary = replay_state(chain_trace(5, rounds=4), system)
        assert summary.conflict_rate == 0.0
        assert summary.conflicts == 0

    def test_gossip_trace_is_conflict_heavy(self):
        from repro.replication.statesystem import StateTransferSystem
        from repro.workload.replay import replay_state
        system = StateTransferSystem(metadata="srv")
        summary = replay_state(all_write_then_gossip_trace(4, rounds=3),
                               system)
        assert summary.reconciliations > 0
        assert summary.conflict_rate > 0.3

    def test_gossip_trace_converges(self):
        from repro.replication.statesystem import StateTransferSystem
        from repro.workload.replay import replay_state
        system = StateTransferSystem(metadata="srv")
        replay_state(all_write_then_gossip_trace(4, rounds=2), system)
        # The closing reverse sweep leaves every site at the same version.
        assert system.is_consistent("obj0")
