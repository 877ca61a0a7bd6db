"""The store cluster: sessions, read-repair, deferral, abort safety."""

import pytest

from repro.errors import SimulationError, ValidationError
from repro.net.channel import ChannelSpec
from repro.net.faults import FaultSpec, RetryPolicy
from repro.net.simulator import to_ns, to_seconds
from repro.obs.metrics import MetricsRegistry
from repro.store.cluster import (ClientOp, StoreCluster, StoreConfig,
                                 gossip_peers)

CHANNEL = ChannelSpec(latency=0.01, bandwidth=1e6)


def cluster(sites=("A", "B", "C"), **kwargs) -> StoreCluster:
    kwargs.setdefault("channel", CHANNEL)
    metrics = kwargs.pop("metrics", None)
    return StoreCluster(list(sites), StoreConfig(**kwargs), metrics=metrics)


def chaos_cluster(sites=("A", "B"), *, drop, attempts=2) -> StoreCluster:
    channel = ChannelSpec(latency=0.01, bandwidth=1e6,
                          faults=FaultSpec(drop=drop, seed=5))
    retry = RetryPolicy(max_retries=1, initial_rto=0.05,
                        max_session_attempts=attempts)
    return StoreCluster(list(sites), StoreConfig(channel=channel,
                                                 retry=retry))


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValidationError, match="protocol"):
            StoreConfig(protocol="nope")
        with pytest.raises(ValidationError, match="batch_size"):
            StoreConfig(batch_size=0)
        with pytest.raises(ValidationError, match="client_latency"):
            StoreConfig(client_latency=-1.0)
        with pytest.raises(ValidationError, match="two sites"):
            StoreCluster(["A"], StoreConfig())
        with pytest.raises(ValidationError, match="duplicate"):
            StoreCluster(["A", "A"], StoreConfig())

    @pytest.mark.parametrize("field", ["client_latency"])
    def test_nan_rejected(self, field):
        with pytest.raises(ValidationError, match=field):
            StoreConfig(**{field: float("nan")})

    def test_op_and_sync_validation(self):
        c = cluster()
        with pytest.raises(ValidationError, match="kind"):
            ClientOp(kind="scan", site="A", key="k")
        with pytest.raises(ValidationError, match="unknown site"):
            c.submit(ClientOp(kind="get", site="Z", key="k"))
        with pytest.raises(ValidationError, match="itself"):
            c.request_sync("A", "A")


class TestSessionsMoveData:
    def test_sync_propagates_a_write(self):
        c = cluster()
        c.submit(ClientOp(kind="put", site="A", key="k", value="v"))
        c.request_sync("A", "B")
        result = c.run()
        assert c.stores["B"].get("k").values == ("v",)
        assert result.sessions == 1 and not result.records[0].aborted

    def test_concurrent_writes_become_siblings_everywhere(self):
        c = cluster(sites=("A", "B"))
        c.submit(ClientOp(kind="put", site="A", key="k", value="va"))
        c.submit(ClientOp(kind="put", site="B", key="k", value="vb"))
        result = c.run(converge_via="A")
        assert result.converged()
        assert result.sibling_sets()["k"] == ("va", "vb")

    def test_converge_sweep_reaches_every_site(self):
        c = cluster(sites=("A", "B", "C", "D"))
        for index, site in enumerate(c.sites):
            c.submit(ClientOp(kind="put", site=site, key=f"k{index}",
                              value=f"v{index}"))
        result = c.run(converge_via="A")
        assert result.converged()
        assert len(result.sibling_sets()) == 4

    def test_clusters_are_one_shot(self):
        c = cluster()
        c.run()
        with pytest.raises(SimulationError, match="one-shot"):
            c.run()


class TestDeferral:
    def test_ops_defer_while_site_is_in_session(self):
        c = cluster(sites=("A", "B"))
        c.submit(ClientOp(kind="put", site="A", key="k", value="v1"))
        c.request_sync("A", "B")
        c.sim.run(until=to_ns(0.011))  # the advert has landed: both occupied
        outcomes = []
        c.submit(ClientOp(kind="put", site="B", key="k", value="v2"),
                 on_done=outcomes.append)
        assert not outcomes  # deferred behind the live session
        result = c.run()
        assert outcomes and outcomes[0].queue_wait > 0
        assert result.ops_deferred == 1

    @staticmethod
    def mid_pull_over_k():
        """A and B, both mid-session in a pull A -> B that selected
        exactly ``k`` (B already holds ``j``)."""
        c = cluster(sites=("A", "B"))
        c.submit(ClientOp(kind="put", site="A", key="j", value="j1"))
        c.request_sync("A", "B")
        c.sim.run()
        c.submit(ClientOp(kind="put", site="A", key="k", value="k1"))
        c.request_sync("A", "B")
        c.sim.run(until=c.sim.now + to_ns(0.011))  # past the advert's flight
        return c

    def test_ops_on_other_keys_land_mid_session_at_src_and_dst(self):
        """So do gets on the session's own key at either end, and a write
        at its sender; only a write at its receiver waits."""
        c = self.mid_pull_over_k()
        outcomes = []
        for op in (ClientOp(kind="put", site="A", key="j", value="j2"),
                   ClientOp(kind="get", site="B", key="j"),
                   ClientOp(kind="put", site="B", key="fresh", value="f"),
                   ClientOp(kind="get", site="A", key="k"),
                   ClientOp(kind="get", site="B", key="k"),
                   ClientOp(kind="put", site="A", key="k", value="k2")):
            c.submit(op, on_done=outcomes.append)
        assert [o.queue_wait for o in outcomes] == [0] * 6
        assert outcomes[1].result.values == ("j1",)
        # Mid-pull, each end reads its last committed record.
        assert outcomes[3].result.values == ("k1",)
        assert not outcomes[4].result.exists
        c.submit(ClientOp(kind="put", site="B", key="k", value="kb"),
                 on_done=outcomes.append)
        assert len(outcomes) == 6  # a write at the receiver: deferred
        result = c.run()
        assert result.records[-1].keys == ("k",)
        assert outcomes[6].queue_wait > 0
        assert result.ops_deferred == 1
        # The pull delivered k1, the state it captured at its start (A's
        # k2 copied on write); B's put ran on the installed record.
        assert outcomes[6].result.context == {"A": 1, "B": 1}
        assert c.stores["A"].get("k").context == {"A": 2}

    def test_fifo_per_key_while_another_key_overtakes(self):
        c = self.mid_pull_over_k()
        order = []
        for kind, key, value in (("put", "k", "k2"), ("get", "k", None),
                                 ("get", "j", None)):
            c.submit(ClientOp(kind=kind, site="B", key=key, value=value),
                     on_done=order.append)
        assert [(o.op.kind, o.op.key) for o in order] == [("get", "j")]
        result = c.run()
        assert [(o.op.kind, o.op.key) for o in order] == [
            ("get", "j"), ("put", "k"), ("get", "k")]
        put, get = order[1:]
        assert put.executed_at == get.executed_at > put.submitted_at
        assert get.result.values == ("k2",)  # it ran after the put
        assert result.ops_deferred == 2

    def test_a_put_on_another_key_survives_the_sessions_rollback(self):
        c = chaos_cluster(drop=1.0)
        c.submit(ClientOp(kind="put", site="A", key="k", value="va"))
        c.submit(ClientOp(kind="put", site="B", key="k", value="vb"))
        before = c.stores["B"].get("k")
        c.request_sync("A", "B", keys=("k",))  # doomed, occupies both
        outcomes = []
        c.sim.call_at(to_ns(0.03), lambda: c.submit(
            ClientOp(kind="put", site="B", key="j", value="vj"),
            on_done=outcomes.append))
        result = c.run()
        (record,) = result.records
        assert record.aborted and result.sessions_abandoned == 1
        # It ran inside the session ...
        assert outcomes[0].queue_wait == 0 and result.ops_deferred == 0
        assert (record.started_at < outcomes[0].executed_at
                < to_seconds(c.sim.now))
        # ... and the abandon left both keys as they were.
        assert c.stores["B"].get("j").values == ("vj",)
        after = c.stores["B"].get("k")
        assert (after.values, after.context) == (before.values,
                                                 before.context)

    def test_the_flush_walks_past_a_rebusied_key(self):
        """``get k`` waits behind a ``put k`` at the receiver; flushed, it
        starts a repair pulling ``k`` into its site, so the ``put k``
        behind it has to wait for that repair too, but ``put j`` behind
        both is on a free key and lands with the get."""
        c = cluster(sites=("A", "B", "C"))
        c.submit(ClientOp(kind="put", site="A", key="k", value="va"))
        c.submit(ClientOp(kind="put", site="C", key="k", value="vc"))
        c.request_sync("A", "B", keys=("j", "k"))  # occupies both at once
        order = []
        for op in (ClientOp(kind="put", site="B", key="k", value="vb"),
                   ClientOp(kind="get", site="B", key="k", repair_peer="C"),
                   ClientOp(kind="put", site="B", key="k", value="vb2"),
                   ClientOp(kind="put", site="B", key="j", value="vj")):
            c.submit(op, on_done=order.append)
        assert not order
        result = c.run()
        assert [(o.op.kind, o.op.key) for o in order] == [
            ("put", "k"), ("get", "k"), ("put", "j"), ("put", "k")]
        put_k, get, put_j, put_k2 = order
        # C's write is concurrent with B's, so the get repairs B from C.
        assert get.repaired and result.read_repairs == 1
        assert get.result.values == ("vb", "vc")
        repair = result.records[-1]
        assert (repair.src, repair.dst, repair.keys) == ("C", "B", ("k",))
        assert (put_k.executed_at == get.executed_at == put_j.executed_at
                == repair.started_at)
        assert put_k2.executed_at == repair.result.completion_time
        assert result.ops_deferred == 4


class TestCoordinatedWrites:
    def test_blind_puts_supersede_at_the_coordinator(self):
        c = cluster(sites=("A", "B"))
        for value in ("v1", "v2", "v3"):
            c.submit(ClientOp(kind="put", site="A", key="k", value=value))
        assert c.stores["A"].get("k").values == ("v3",)

    def test_uncoordinated_blind_puts_pile_up(self):
        c = cluster(sites=("A", "B"), coordinated_writes=False)
        stale = None
        for value in ("v1", "v2", "v3"):
            c.submit(ClientOp(kind="put", site="A", key="k", value=value,
                              context=stale))
            stale = stale or {"A": 1}
        assert len(c.stores["A"].get("k").values) == 2


class TestReadRepair:
    def test_divergent_get_merges_both_replicas(self):
        c = cluster(sites=("A", "B"))
        c.submit(ClientOp(kind="put", site="A", key="k", value="va"))
        c.submit(ClientOp(kind="put", site="B", key="k", value="vb"))
        outcomes = []
        c.submit(ClientOp(kind="get", site="A", key="k", repair_peer="B"),
                 on_done=outcomes.append)
        result = c.run()
        assert outcomes[0].repaired
        assert outcomes[0].result.values == ("va", "vb")
        assert result.read_repairs == 1
        # The scheduled repair session ran and converged the key.
        assert c.stores["A"].get("k").values == ("va", "vb")

    def test_busy_peer_is_not_consulted(self):
        c = cluster(sites=("A", "B", "C"))
        c.submit(ClientOp(kind="put", site="A", key="k", value="va"))
        c.submit(ClientOp(kind="put", site="B", key="k", value="vb"))
        # Park A and B in a session; gets at C may not consult either.
        c.request_sync("A", "B")
        c.sim.run(until=to_ns(0.011))  # past the advert's flight
        for _ in range(5):
            c.submit(ClientOp(kind="get", site="C", key="k",
                              repair_peer="A"))
        result = c.run()
        assert result.read_repairs == 0

    def test_read_repair_can_be_disabled(self):
        c = cluster(sites=("A", "B"), read_repair=False)
        c.submit(ClientOp(kind="put", site="A", key="k", value="va"))
        c.submit(ClientOp(kind="put", site="B", key="k", value="vb"))
        outcomes = []
        c.submit(ClientOp(kind="get", site="A", key="k", repair_peer="B"),
                 on_done=outcomes.append)
        result = c.run()
        assert not outcomes[0].repaired
        assert result.read_repairs == 0


class TestRepairBars:
    """A repair bars the reads of the clients it handed its union, at the
    site it pulls into, and no one else's."""

    @staticmethod
    def queued_repair():
        """B is mid-session over ``j``; client 1's get of ``k`` at B
        consults idle A, reads A's ``va`` and queues a repair A -> B."""
        c = cluster()
        c.submit(ClientOp(kind="put", site="A", key="k", value="va"))
        c.submit(ClientOp(kind="put", site="C", key="j", value="vj"))
        c.request_sync("C", "B", keys=("j",))
        reads = []
        c.submit(ClientOp(kind="get", site="B", key="k", repair_peer="A",
                          client=1), on_done=reads.append)
        (first,) = reads
        assert first.repaired and first.result.values == ("va",)
        return c, reads

    def test_the_reader_waits_and_another_client_reads_at_once(self):
        c, reads = self.queued_repair()
        for client in (1, 2, None):
            c.submit(ClientOp(kind="get", site="B", key="k", client=client),
                     on_done=reads.append)
        # Client 1 waits; the others read B's stale record at once.
        assert [(o.op.client, o.result.values) for o in reads[1:]] == [
            (2, ()), (None, ())]
        result = c.run()
        repair = result.records[-1]
        assert (repair.src, repair.dst, repair.keys) == ("A", "B", ("k",))
        second = reads[-1]
        assert second.op.client == 1
        assert second.executed_at == repair.result.completion_time
        assert second.result.values == ("va",)
        assert result.ops_deferred == result.reads_barred == 1

    def test_a_deduplicated_reader_is_barred_too(self):
        """Client 2's get finds the repair already queued and schedules
        none, but it too read A's ``va`` and must wait for the repair."""
        c, reads = self.queued_repair()
        c.submit(ClientOp(kind="get", site="B", key="k", repair_peer="A",
                          client=2), on_done=reads.append)
        assert reads[-1].repaired and reads[-1].result.values == ("va",)
        for client in (1, 2, 3):
            c.submit(ClientOp(kind="get", site="B", key="k", client=client),
                     on_done=reads.append)
        assert [o.op.client for o in reads] == [1, 2, 3]
        result = c.run()
        assert result.read_repairs == 1
        completion = result.records[-1].result.completion_time
        assert [(o.op.client, o.executed_at, o.result.values)
                for o in reads[3:]] == [(1, completion, ("va",)),
                                        (2, completion, ("va",))]
        assert result.ops_deferred == result.reads_barred == 2

    def test_a_pipelined_get_waits_for_the_repair_its_elder_queued(self):
        """Client 1 queues a put, a repairing get and a plain get at B
        behind a session receiving ``k``.  The flush lands the put and
        the first get, which reads A's ``va`` and queues a repair; the
        second get was submitted before that union existed, yet must
        wait for the repair, not read B's record without ``va``."""
        c = cluster()
        c.submit(ClientOp(kind="put", site="A", key="k", value="va"))
        c.submit(ClientOp(kind="put", site="C", key="k", value="vc"))
        c.request_sync("C", "B", keys=("k",))  # B receives k
        reads = []
        for op in (ClientOp(kind="put", site="B", key="k", value="vb",
                            client=1),
                   ClientOp(kind="get", site="B", key="k", repair_peer="A",
                            client=1),
                   ClientOp(kind="get", site="B", key="k", client=1)):
            c.submit(op, on_done=reads.append)
        assert not reads
        result = c.run()
        put, first, second = reads
        assert first.repaired and "va" in first.result.values
        repair = result.records[-1]
        assert (repair.src, repair.dst, repair.keys) == ("A", "B", ("k",))
        assert put.executed_at == first.executed_at == repair.started_at
        assert second.executed_at == repair.result.completion_time
        assert "va" in second.result.values
        assert all(second.result.context.get(site, 0) >= count
                   for site, count in first.result.context.items())
        # Queued behind its client's put at submit, not barred.
        assert result.ops_deferred == 3 and result.reads_barred == 0

    def test_an_after_repair_bars_no_reads_and_holds_writes(self):
        """A get at the fresher replica repairs its peer; its client read
        its own replica, so no one's reads of the peer wait — but a write
        there waits for the queued repair's hold."""
        c = cluster()
        c.submit(ClientOp(kind="put", site="A", key="k", value="va"))
        c.submit(ClientOp(kind="put", site="C", key="j", value="vj"))
        c.request_sync("C", "A", keys=("j",))  # A is mid-session over j
        outcomes = []
        c.submit(ClientOp(kind="get", site="A", key="k", repair_peer="B",
                          client=1), on_done=outcomes.append)
        assert outcomes[0].repaired and outcomes[0].result.values == ("va",)
        for client in (1, 2, None):
            c.submit(ClientOp(kind="get", site="B", key="k", client=client),
                     on_done=outcomes.append)
        c.submit(ClientOp(kind="put", site="B", key="k", value="vb",
                          client=2), on_done=outcomes.append)
        assert [o.queue_wait for o in outcomes] == [0] * 4
        result = c.run()
        repair = result.records[-1]
        assert (repair.src, repair.dst, repair.keys) == ("A", "B", ("k",))
        put = outcomes[-1]
        assert put.op.kind == "put"
        assert put.executed_at == repair.result.completion_time
        assert result.ops_deferred == 1 and result.reads_barred == 0


class TestAbortSafety:
    """Satellite: a mid-session abort must not leave torn state behind."""

    def test_abandoned_session_restores_the_presession_snapshot(self):
        c = chaos_cluster(drop=1.0)
        c.submit(ClientOp(kind="put", site="A", key="k", value="va"))
        c.submit(ClientOp(kind="put", site="B", key="k", value="vb"))
        before = c.stores["B"].get("k")
        before_vector = c.stores["B"].record("k").vector.copy()
        c.request_sync("A", "B")
        result = c.run()
        assert result.sessions_abandoned == 1
        assert result.records[0].aborted
        after = c.stores["B"].get("k")
        assert after.values == before.values
        assert after.context == before.context
        assert c.stores["B"].record("k").vector.same_values(before_vector)

    def test_abandon_releases_the_sites_for_deferred_ops(self):
        c = chaos_cluster(drop=1.0)
        c.submit(ClientOp(kind="put", site="A", key="k", value="va"))
        c.request_sync("A", "B")
        outcomes = []
        c.submit(ClientOp(kind="get", site="B", key="k"),
                 on_done=outcomes.append)
        c.run()
        # The deferred get ran after the abandon — against untouched state.
        assert outcomes and outcomes[0].result.values == ()

    def test_flushed_ops_stay_deferred_behind_a_fresh_session(self):
        """A flushed get can start a repair session; the put queued
        behind it must wait for that session too, or the session's
        rollback snapshot would silently erase the put."""
        c = chaos_cluster(drop=1.0)
        c.submit(ClientOp(kind="put", site="A", key="k", value="va"))
        c.submit(ClientOp(kind="put", site="B", key="k", value="vother"))
        c.request_sync("A", "B")  # doomed session #1 occupies both
        c.submit(ClientOp(kind="get", site="B", key="k", repair_peer="A"))
        c.submit(ClientOp(kind="put", site="B", key="k", value="vb"))
        result = c.run()
        # Both the original sync and the repair the flushed get started
        # were abandoned; the trailing put must have survived them.
        assert result.sessions_abandoned == 2
        assert "vb" in c.stores["B"].get("k").values

    def test_flush_started_repair_keeps_later_ops_deferred(self):
        """The same hazard, entered through the flush: a named-key
        session occupies both sites at once, the get queues behind a
        write at the receiver and really is flushed — and the repair it
        starts must hold the put behind it back."""
        c = chaos_cluster(drop=1.0)
        c.submit(ClientOp(kind="put", site="A", key="k", value="va"))
        c.submit(ClientOp(kind="put", site="B", key="k", value="vother"))
        c.request_sync("A", "B", keys=("k",))  # doomed, occupies both
        order = []
        for op in (ClientOp(kind="put", site="B", key="k", value="vfirst"),
                   ClientOp(kind="get", site="B", key="k", repair_peer="A"),
                   ClientOp(kind="put", site="B", key="k", value="vb")):
            c.submit(op, on_done=order.append)
        result = c.run()
        assert result.ops_deferred == 3
        assert result.sessions_abandoned == 2
        first, get, put = order
        assert get.repaired
        assert first.executed_at == get.executed_at < put.executed_at
        assert "vb" in c.stores["B"].get("k").values

    def test_gets_inside_a_torn_session_read_committed_records(self):
        # The link goes down after the advert; the batch tears, resumes
        # at 0.185 s and is abandoned at 0.350 s.  Gets at both ends,
        # in the first attempt and in the resume, run at once.
        channel = ChannelSpec(latency=0.01, bandwidth=1e6, faults=FaultSpec(
            partitions=((0.015, 100.0),), seed=5))
        c = StoreCluster(["A", "B"], StoreConfig(
            channel=channel, retry=RetryPolicy(
                max_retries=1, initial_rto=0.05, max_session_attempts=2)))
        c.submit(ClientOp(kind="put", site="A", key="k", value="va"))
        c.submit(ClientOp(kind="put", site="B", key="k", value="vb"))
        c.request_sync("A", "B")
        outcomes = []
        for at in (0.1, 0.25):
            for site in "AB":
                c.sim.call_at(to_ns(at), lambda s=site: c.submit(
                    ClientOp(kind="get", site=s, key="k"),
                    on_done=outcomes.append))
        result = c.run()
        assert result.totals.resumes == 1 and result.sessions_abandoned == 1
        assert [o.queue_wait for o in outcomes] == [0] * 4
        assert [(o.result.values, o.result.context) for o in outcomes] == [
            (("va",), {"A": 1}), (("vb",), {"B": 1})] * 2

    @staticmethod
    def fingerprint(store):
        return (dict(store.knowledge),
                {key: (record.stamp, record.siblings, record.updated_at,
                       dict(record.vector.elements()))
                 for key, record in store.table.items()},
                store.keys_beyond({}))

    def test_abandoned_pull_leaves_knowledge_stamps_and_index_alone(self):
        # The link goes down for good once the advert (and its ack) are
        # through, before the batch's frame leaves: the batch starts,
        # tears before it commits, resumes, and is abandoned.
        channel = ChannelSpec(latency=0.01, bandwidth=1e6, faults=FaultSpec(
            partitions=((0.015, 100.0),), seed=5))
        c = StoreCluster(["A", "B"], StoreConfig(
            channel=channel, retry=RetryPolicy(
                max_retries=1, initial_rto=0.05, max_session_attempts=2)))
        c.submit(ClientOp(kind="put", site="A", key="j", value="ja"))
        c.submit(ClientOp(kind="put", site="A", key="k", value="va"))
        c.submit(ClientOp(kind="put", site="B", key="k", value="vb"))
        before = {site: self.fingerprint(c.stores[site]) for site in "AB"}
        c.request_sync("A", "B")
        result = c.run()
        (record,) = result.records
        assert record.advert == {"B": 1} and record.keys == ("j", "k")
        assert record.aborted and result.sessions_abandoned == 1
        assert result.totals.resumes == 1
        assert result.keys_streamed == 0
        # Both attempts merged into copies that were dropped; "j", which
        # B had never heard of, is an unstamped empty placeholder.
        placeholder = c.stores["B"].table.pop("j")
        assert placeholder.stamp is None and not placeholder.siblings
        assert not dict(placeholder.vector.elements())
        assert {site: self.fingerprint(c.stores[site])
                for site in "AB"} == before

    def test_lost_advert_is_an_abandoned_session_that_touched_nothing(self):
        c = chaos_cluster(drop=1.0)
        c.submit(ClientOp(kind="put", site="A", key="k", value="va"))
        c.submit(ClientOp(kind="put", site="B", key="k", value="vb"))
        before = {site: self.fingerprint(c.stores[site]) for site in "AB"}
        c.request_sync("A", "B")
        outcomes = []
        c.sim.call_at(to_ns(0.005), lambda: c.submit(
            ClientOp(kind="get", site="A", key="k"),
            on_done=outcomes.append))
        result = c.run()
        (record,) = result.records
        assert record.aborted and record.advert is None
        assert result.sessions_abandoned == 1
        # Neither site was ever occupied: the mid-flight get ran at once.
        assert result.ops_deferred == 0 and outcomes[0].queue_wait == 0
        # The lost copies were still sent, and are still counted.
        assert result.total_bits == result.advert_bits > 0
        assert {site: self.fingerprint(c.stores[site])
                for site in "AB"} == before

    def test_resumable_chaos_still_converges(self):
        c = chaos_cluster(drop=0.2, attempts=8)
        c.submit(ClientOp(kind="put", site="A", key="k", value="va"))
        c.request_sync("A", "B")
        result = c.run()
        assert result.sessions_abandoned == 0
        assert c.stores["B"].get("k").values == ("va",)


class TestMetrics:
    def test_counters_and_histograms_land(self):
        metrics = MetricsRegistry()
        c = cluster(sites=("A", "B"), metrics=metrics)
        c.submit(ClientOp(kind="put", site="A", key="k", value="v"))
        c.request_sync("A", "B")
        c.run()
        assert metrics.counter("store.ops").value == 1
        assert metrics.counter("store.ops_put").value == 1
        assert metrics.counter("store.sessions").value == 1
        assert metrics.histogram("store.queue_wait_seconds").count == 1


class TestGossipPeers:
    def test_every_site_pulls_once_per_round(self):
        plan = gossip_peers(["A", "B", "C"], rounds=4, seed=2)
        assert len(plan) == 12
        for _, src, dst in plan:
            assert src != dst

    def test_deterministic_per_seed(self):
        assert (gossip_peers(["A", "B", "C"], rounds=3, seed=1)
                == gossip_peers(["A", "B", "C"], rounds=3, seed=1))
        assert (gossip_peers(["A", "B", "C"], rounds=3, seed=1)
                != gossip_peers(["A", "B", "C"], rounds=3, seed=2))
