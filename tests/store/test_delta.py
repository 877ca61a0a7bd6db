"""Knowledge-vector anti-entropy: a pull streams only what the puller lacks.

The full-keyspace walk the store used to run survives in
``tests.helpers.full_walk_pull`` as the oracle: per completed pull, the
delta session must leave its keys at ``dst`` exactly where the walk
would have, and the walk must have had nothing to move on any other key
(client ops on those run mid-session, so the live store is no longer
comparable there — the pre-session twins are).  The second property is
the invariant that makes skipping keys sound — knowledge never runs
ahead of state.
"""

import random
import sys
from collections import defaultdict, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.order import Ordering
from repro.net.channel import ChannelSpec
from repro.net.faults import RetryPolicy, chaos_faults
from repro.net.simulator import to_ns
from repro.store.cluster import ClientOp, StoreCluster, StoreConfig
from repro.store.kv import TOMBSTONE, SiteStore
from repro.workload.clients import StoreWorkloadConfig, run_store_workload
from tests.helpers import clone_store, full_walk_pull

SITES = ("A", "B", "C", "D")
KEYS = tuple(f"k{i}" for i in range(6))


def state_of(store: SiteStore, key: str):
    """(vector values, siblings, updated_at); a missing key is empty."""
    record = store.table.get(key)
    if record is None:
        return {}, (), 0.0
    return (dict(record.vector.elements()), record.siblings,
            record.updated_at)


class CheckedCluster(StoreCluster):
    """A cluster that audits itself against the oracle as it runs."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: index of a live session -> (record, src twin, dst twin), the
        #: twins cloned as the session started.
        self.twins = {}
        self.pulls_checked = 0
        #: dot -> (key, vector values right after the event).
        self.events = {}
        #: (site, key) -> the state its last write or commit left.
        self.committed = {}
        #: (site, key, client) -> ops submitted there and not yet run,
        #: in order.
        self.submitted = defaultdict(deque)
        self.gets_checked = 0
        #: Gets that ran while a live session at their site synced
        #: their key, as sender or receiver.
        self.gets_mid_session = 0

    def note_events(self, site):
        for key, record in self.stores[site].table.items():
            stamp = record.stamp
            if (stamp is not None and stamp[0] == site
                    and stamp not in self.events):
                self.events[stamp] = (key, dict(record.vector.elements()))

    def check_knowledge(self, site):
        store = self.stores[site]
        for (origin, counter), (key, then) in self.events.items():
            if counter > store.knowledge.get(origin, 0):
                continue
            now, _, _ = state_of(store, key)
            assert all(now.get(s, 0) >= n for s, n in then.items()), (
                f"{site} claims ({origin}, {counter}) but holds {now} "
                f"for {key}, which had {then} right after it")

    def committed_state(self, site, key):
        return self.committed.get((site, key), ({}, (), 0.0))

    def check_committed(self):
        """Every live record is the state its last write or commit left:
        no session attempt, torn or not, ever shows through."""
        for site, store in self.stores.items():
            for key in store.table:
                assert state_of(store, key) == self.committed_state(
                    site, key), f"{site}/{key} shows uncommitted state"

    def submit(self, op, on_done=None):
        self.submitted[(op.site, op.key, op.client)].append(op)
        super().submit(op, on_done)

    def _execute_op(self, op, submitted_at, on_done):
        site, key = op.site, op.key
        assert self.submitted[(site, key, op.client)].popleft() is op, (
            f"{op.kind} {key} at {site} overtook an op its client queued "
            f"on its key")
        self.check_committed()
        inflight = self._repair_inflight.items()
        for (_, dst, repaired), (index, readers) in inflight:
            # A repair holds its key against writes and bars its readers.
            assert ((dst, repaired) != (site, key) or op.kind == "get"
                    and op.client not in readers), (
                f"{op.kind} {key} by client {op.client} at {site} ran "
                f"while read-repair {index} pulls it there and bars "
                f"{readers}")
        if op.kind != "get":
            for record, _, _ in self.twins.values():
                assert record.dst != site or key not in record.keys, (
                    f"{op.kind} {key} at {site} ran inside session "
                    f"{record.index} {record.src}->{site} over "
                    f"{record.keys}")
            super()._execute_op(op, submitted_at, on_done)
            self.committed[(site, key)] = state_of(self.stores[site], key)
        else:
            self.gets_mid_session += any(
                site in (record.src, record.dst) and key in record.keys
                for record, _, _ in self.twins.values())
            local = self.committed_state(site, key)
            peer = (self.committed_state(op.repair_peer, key)
                    if op.repair_peer is not None else local)

            def checked(outcome):
                self.check_read(outcome, local, peer)
                if on_done is not None:
                    on_done(outcome)

            super()._execute_op(op, submitted_at, checked)
        self.note_events(site)
        self.check_knowledge(site)

    def check_read(self, outcome, local, peer):
        """A get reads its site's committed record; a repairing one, the
        join of that and its peer's committed record."""
        result = outcome.result
        vector, siblings, updated_at = local
        read = (tuple(v for v in siblings if v is not TOMBSTONE),
                vector, updated_at)
        got = (result.values, result.context, result.as_of)
        if got != read:
            assert outcome.repaired, f"{got} is not the committed {read}"
            joined = dict(vector)
            for origin, count in peer[0].items():
                joined[origin] = max(joined.get(origin, 0), count)
            assert result.context == joined
            assert set(result.values) <= set(siblings) | set(peer[1])
            assert result.as_of == max(updated_at, peer[2])
        self.gets_checked += 1

    def _start(self, record):
        self.check_committed()
        self.twins[record.index] = (record,
                                    clone_store(self.stores[record.src]),
                                    clone_store(self.stores[record.dst]))
        super()._start(record)

    def _release(self, record):
        # Entered with the session's outcome folded in and before any
        # deferred op lands: the state the oracle has to match.
        _, src_before, dst_before = self.twins.pop(record.index)
        dst = self.stores[record.dst]
        if record.aborted:
            # Nothing was installed: the session's keys are the twin's,
            # and knowledge moved only by the dots dst minted meanwhile
            # for ops on other keys.
            for key in record.keys:
                assert state_of(dst, key) == state_of(dst_before, key)
            minted = dst.knowledge.get(record.dst, 0)
            assert minted >= dst_before.knowledge.get(record.dst, 0)
            assert ({**dst.knowledge, record.dst: minted}
                    == {**dst_before.knowledge, record.dst: minted})
        else:
            for key in record.keys:
                self.committed[(record.dst, key)] = state_of(dst, key)
            self.note_events(record.dst)
            self.check_knowledge(record.dst)
            if record.advert is not None:
                walked = full_walk_pull(
                    src_before, dst_before, protocol=self.config.protocol)
                for key in record.keys:
                    assert state_of(dst, key) == state_of(walked, key), (
                        f"session {record.index} {record.src}->"
                        f"{record.dst} streamed {record.keys}; {key} "
                        f"differs from the full walk")
                # Every other key the walk found nothing to move on —
                # the knowledge invariant, and why skipping it was sound.
                for key in set(walked.table) - set(record.keys):
                    assert (state_of(walked, key)
                            == state_of(dst_before, key)), (
                        f"session {record.index} {record.src}->"
                        f"{record.dst} streamed {record.keys} and "
                        f"skipped {key}, which the full walk moves")
                self.pulls_checked += 1
        self.check_committed()
        super()._release(record)


steps = st.lists(
    st.tuples(
        st.sampled_from(("put", "put", "delete", "get", "get", "sync",
                         "sync")),
        st.integers(0, 3), st.integers(0, 3), st.integers(0, 5),
        st.sampled_from((0.0, 0.001, 0.004, 0.02, 0.1))),
    min_size=1, max_size=40)


def run_steps(n_sites, plan, *, loss=0.0, chaos_seed=0):
    sites = SITES[:n_sites]
    faults = (chaos_faults(loss, latency=0.01, seed=chaos_seed)
              if loss else None)
    channel = (ChannelSpec(latency=0.01, bandwidth=1e6, faults=faults)
               if faults else ChannelSpec(latency=0.01, bandwidth=1e6))
    cluster = CheckedCluster(list(sites), StoreConfig(
        channel=channel,
        # A tight budget, so that chaos runs resume *and* abandon.
        retry=RetryPolicy(max_retries=1, initial_rto=0.05,
                          max_session_attempts=2, seed=chaos_seed)))
    clock = 0.0
    for number, (kind, a, b, k, gap) in enumerate(plan):
        clock += gap
        site, peer, key = sites[a % n_sites], sites[b % n_sites], KEYS[k]
        if kind == "sync":
            if site != peer:
                cluster.sim.call_at(
                    to_ns(clock), lambda s=site, d=peer: cluster.request_sync(s, d))
            continue
        # Three clients take turns, one of them anonymous.
        op = ClientOp(kind=kind, site=site, key=key,
                      value=f"v{number}" if kind == "put" else None,
                      repair_peer=peer if kind == "get" else None,
                      client=(None, 0, 1)[number % 3])
        cluster.sim.call_at(to_ns(clock), lambda op=op: cluster.submit(op))
    result = cluster.run(converge_via=sites[0])
    for site in sites:
        cluster.check_knowledge(site)
    return cluster, result


class TestDeltaEqualsFullWalk:
    @settings(max_examples=200, deadline=None)
    @given(n_sites=st.integers(3, 4), plan=steps)
    def test_every_pull_matches_the_walk(self, n_sites, plan):
        cluster, result = run_steps(n_sites, plan)
        # The closing sweep alone is 2(n-1) pulls.
        assert cluster.pulls_checked >= 2 * (n_sites - 1)
        assert result.converged()

    @settings(max_examples=150, deadline=None)
    @given(n_sites=st.integers(3, 4), plan=steps,
           loss=st.sampled_from((0.1, 0.3)),
           chaos_seed=st.integers(0, 2**16))
    def test_every_pull_matches_the_walk_under_chaos(
            self, n_sites, plan, loss, chaos_seed):
        cluster, result = run_steps(n_sites, plan, loss=loss,
                                    chaos_seed=chaos_seed)
        completed = sum(1 for r in result.records
                        if r.advert is not None and not r.aborted)
        assert cluster.pulls_checked == completed


class TestSessionsWorkOnCopies:
    """A session merges into copies and installs them at its commit, so
    every get reads a committed state of its record — mid-session at
    either endpoint, and whether the session resumes or is abandoned."""

    @settings(max_examples=150, deadline=None)
    @given(n_sites=st.integers(3, 4), plan=steps,
           loss=st.sampled_from((0.1, 0.3)),
           chaos_seed=st.integers(0, 2**16))
    def test_every_get_reads_a_committed_state(self, n_sites, plan, loss,
                                               chaos_seed):
        cluster, _ = run_steps(n_sites, plan, loss=loss,
                               chaos_seed=chaos_seed)
        assert cluster.gets_checked == sum(
            1 for kind, *_ in plan if kind == "get")

    def test_the_property_sees_resumes_abandons_and_mid_session_gets(self):
        rng = random.Random(22)
        kinds = ("put", "put", "delete", "get", "get", "sync", "sync")
        plan = [(rng.choice(kinds), rng.randrange(4), rng.randrange(4),
                 rng.randrange(6),
                 rng.choice((0.0, 0.001, 0.004, 0.02, 0.1)))
                for _ in range(40)]
        cluster, result = run_steps(4, plan, loss=0.3, chaos_seed=1)
        assert cluster.gets_mid_session > 0
        assert result.totals.resumes > 0 and result.sessions_abandoned > 0
        assert cluster.gets_checked == sum(
            1 for kind, *_ in plan if kind == "get")


class TestKnowledgeInvariant:
    """For every site s and event (o, n) with n <= K_s[o], s's vector
    for the event's key dominates the vector right after the event."""

    @settings(max_examples=150, deadline=None)
    @given(n_sites=st.integers(3, 4), plan=steps,
           loss=st.sampled_from((0.0, 0.3)),
           chaos_seed=st.integers(0, 2**16))
    def test_knowledge_never_runs_ahead_of_state(self, n_sites, plan, loss,
                                                 chaos_seed):
        cluster, _ = run_steps(n_sites, plan, loss=loss,
                               chaos_seed=chaos_seed)
        assert len(cluster.events) >= sum(
            1 for kind, *_ in plan if kind in ("put", "delete"))

    def test_a_repair_ahead_of_knowledge_then_a_smaller_counter(self):
        """Out-of-order arrival: B adopts (A, 2) by read-repair while it
        knows nothing of A, then a pull delivers (A, 1).  Selection must
        go by counter, not by arrival — a newest-first scan with an
        early stop would lose k2 for a peer that knows (A, 1)."""
        cluster = CheckedCluster(["A", "B", "C"], StoreConfig(
            channel=ChannelSpec(latency=0.01, bandwidth=1e6)))
        a, b, c = (cluster.stores[s] for s in "ABC")
        cluster.submit(ClientOp(kind="put", site="A", key="k1", value="1"))
        cluster.request_sync("A", "C")           # C learns (A, 1) only
        cluster.sim.run()
        cluster.submit(ClientOp(kind="put", site="A", key="k2", value="2"))
        cluster.submit(ClientOp(kind="get", site="B", key="k2",
                                repair_peer="A"))
        cluster.sim.run()
        assert b.record("k2").stamp == ("A", 2) and b.knowledge == {}
        cluster.request_sync("C", "B")           # delivers (A, 1)
        cluster.sim.run()
        assert b.record("k1").stamp == ("A", 1)
        assert b.knowledge == {"A": 1}
        assert b.keys_beyond({"A": 1}) == ["k2"]
        assert b.keys_beyond({}) == ["k1", "k2"]
        assert b.keys_beyond({"A": 2}) == []
        # And C, which knows (A, 1), gets exactly k2 from B.
        cluster.request_sync("B", "C")
        result = cluster.run()
        assert result.records[-1].keys == ("k2",)
        assert c.get("k2").values == ("2",)
        assert a.knowledge == {"A": 2}


class TestSelectionCost:
    def test_work_is_proportional_to_the_selection(self):
        """On a 1,024-key table, selecting s keys executes O(s) lines of
        store code — the table is never walked."""
        store = SiteStore("A")
        for index in range(1024):
            store.put(f"key{index:04d}", index)

        def lines_to_select(knowledge):
            executed = 0

            def tracer(frame, event, arg):
                nonlocal executed
                if frame.f_code.co_filename.endswith("store/kv.py"):
                    if event == "line":
                        executed += 1
                    return tracer
                return None

            sys.settrace(tracer)
            try:
                selected = store.keys_beyond(knowledge)
            finally:
                sys.settrace(None)
            return len(selected), executed

        costs = dict(lines_to_select({"A": 1024 - s})
                     for s in (0, 1, 16, 256))
        assert sorted(costs) == [0, 1, 16, 256]
        base = costs[0]
        assert base < 16
        for selected, executed in costs.items():
            assert executed <= base + 3 * selected

    def test_selection_is_exactly_the_uncovered_stamps(self):
        store = SiteStore("A")
        for key in ("x", "y", "z"):
            store.put(key, key)
        store.put("x", "again")          # x moves from (A, 1) to (A, 4)
        assert store.keys_beyond({}) == ["x", "y", "z"]
        assert store.keys_beyond({"A": 1}) == ["x", "y", "z"]
        assert store.keys_beyond({"A": 3}) == ["x"]
        assert store.keys_beyond({"A": 4, "B": 9}) == []


class TestStamps:
    def test_before_adopts_the_senders_stamp_and_concurrent_mints(self):
        store = SiteStore("B")
        store.put("k", "mine")
        store.absorb("k", Ordering.BEFORE, ("theirs",), 0.0, ("A", 7))
        assert store.record("k").stamp == ("A", 7)
        assert store.knowledge == {"B": 1}       # adoption never learns
        store.absorb("k", Ordering.CONCURRENT, ("other",), 0.0, ("C", 3))
        assert store.record("k").stamp == ("B", 2)
        assert store.keys_beyond({"A": 7, "B": 1}) == ["k"]

    def test_a_clone_carries_stamps_index_and_knowledge(self):
        store = SiteStore("B")
        store.put("k", "v1")
        store.put("j", "w")
        twin = clone_store(store)
        store.absorb("k", Ordering.BEFORE, ("v2",), 0.0, ("A", 5))
        store.record("j").vector.record_update("B")
        assert twin.record("k").stamp == ("B", 1)
        assert twin.keys_beyond({"B": 1}) == ["j"]
        assert twin.keys_beyond({}) == ["j", "k"]
        assert twin.knowledge == {"B": 2}
        assert dict(twin.record("j").vector.elements()) == {"B": 1}


class TestSweepOrder:
    def test_scatter_waits_for_the_gather(self):
        """Regression: with adverts in flight, arrival order is not
        request order — a scatter issued alongside the gather started
        49 µs before the last gather and handed out a stale hub."""
        result = run_store_workload(StoreWorkloadConfig(
            n_sites=4, n_keys=1, n_clients=3, ops=2, read_ratio=0.0,
            delete_ratio=0.0, zipf=0.0, sync_period=0.25, seed=0))
        assert result.converged
        records = result.store.records
        gathers = [r for r in records[-6:] if r.dst == "S000"]
        scatters = [r for r in records[-6:] if r.src == "S000"]
        assert len(gathers) == len(scatters) == 3
        assert (max(r.result.completion_time for r in gathers)
                <= min(r.requested_at for r in scatters))


class TestCounters:
    def test_streamed_useful_and_advert_bits_are_reported(self):
        result = run_store_workload(StoreWorkloadConfig(
            n_sites=4, n_keys=64, n_clients=8, ops=600, seed=2))
        store = result.store
        pulls = [r for r in store.records if r.advert is not None]
        assert store.keys_streamed == sum(len(r.keys) for r in pulls)
        assert store.keys_useful == sum(
            1 for r in pulls for v in r.verdicts.values()
            if v is Ordering.BEFORE or v.is_concurrent)
        assert 0 < store.keys_useful <= store.keys_streamed
        # Priced like the whole vector it is, and part of the wire total.
        assert store.advert_bits == sum(r.advert_bits for r in pulls) > 0
        assert store.advert_bits < store.total_bits
        counter = result.metrics.counter
        assert counter("store.keys_streamed").value == store.keys_streamed
        assert counter("store.keys_useful").value == store.keys_useful
        assert counter("store.advert_bits").value == store.advert_bits

    @pytest.mark.parametrize("seed", [0, 1])
    def test_a_wide_table_streams_mostly_useful_keys(self, seed):
        """The walk measured ~0.15 here; it cannot silently come back."""
        result = run_store_workload(StoreWorkloadConfig(
            n_sites=8, n_keys=1024, n_clients=64, ops=1500, seed=seed))
        store = result.store
        assert result.converged and store.sessions_abandoned == 0
        assert store.keys_useful / store.keys_streamed >= 0.5
