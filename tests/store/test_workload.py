"""The client-workload driver: planning, validation, and measurement."""

import hashlib
import random

import pytest

from repro.core.skip import SkipRotatingVector
from repro.errors import ReproError, ValidationError
from repro.net.channel import ChannelSpec
from repro.obs.consistency import ConsistencyMonitor
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.store.cluster import ClientOp, StoreCluster, StoreConfig
from repro.workload.clients import (StoreWorkloadConfig, generate_client_ops,
                                    hot_key_order, run_store_workload)
from tests.helpers import linked_vectors

#: Small enough to stay fast, large enough to exercise every path.
SMALL = StoreWorkloadConfig(n_sites=4, n_keys=8, n_clients=8, ops=400,
                            op_interval=0.002, sync_period=0.2, seed=7)


class TestConfigValidation:
    @pytest.mark.parametrize("overrides", [
        {"n_sites": 1},
        {"n_keys": 0},
        {"n_clients": 0},
        {"ops": -1},
        {"read_ratio": 1.5},
        {"delete_ratio": -0.1},
        {"read_ratio": 0.8, "delete_ratio": 0.3},
        {"loss_rate": 2.0},
        {"zipf": -1.0},
        {"op_interval": 0.0},
        {"sync_period": -1.0},
    ])
    def test_rejects_nonsense(self, overrides):
        with pytest.raises(ReproError):
            StoreWorkloadConfig(**overrides)

    @pytest.mark.parametrize("name", ["zipf", "op_interval", "sync_period"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_floats(self, name, value):
        # NaN passes every range comparison; inf breaks generation.
        with pytest.raises(ReproError, match="finite"):
            StoreWorkloadConfig(**{name: value})

    @pytest.mark.parametrize("name", [
        "net_latency", "bandwidth", "client_latency"])
    @pytest.mark.parametrize("value", [float("nan"), -1.0])
    def test_rejects_bad_link_fields(self, name, value):
        # Checked at construction, not when the run first builds a link.
        with pytest.raises(ValidationError, match=name):
            StoreWorkloadConfig(**{name: value})

    def test_boundaries_are_inclusive(self):
        StoreWorkloadConfig(read_ratio=1.0, delete_ratio=0.0)
        StoreWorkloadConfig(read_ratio=0.0, delete_ratio=1.0)
        StoreWorkloadConfig(ops=0, zipf=0.0)


class TestPlanning:
    def test_plan_is_deterministic_per_seed(self):
        assert generate_client_ops(SMALL) == generate_client_ops(SMALL)
        other = StoreWorkloadConfig(**{
            **{name: getattr(SMALL, name)
               for name in StoreWorkloadConfig.__dataclass_fields__},
            "seed": 8})
        assert generate_client_ops(SMALL) != generate_client_ops(other)

    def test_clients_are_sticky(self):
        plan = generate_client_ops(SMALL)
        sites_by_client = {}
        for op in plan:
            sites_by_client.setdefault(op.client, set()).add(op.site)
        assert all(len(sites) == 1 for sites in sites_by_client.values())

    def test_zipf_concentrates_on_seeded_hot_keys(self):
        config = StoreWorkloadConfig(n_sites=4, n_keys=16, n_clients=8,
                                     ops=4000, zipf=1.4, seed=3)
        plan = generate_client_ops(config)
        counts = {}
        for op in plan:
            counts[op.key] = counts.get(op.key, 0) + 1
        hot, *_, cold = hot_key_order(config.key_names(), config.seed)
        assert counts[hot] > counts.get(cold, 0) * 3

    def test_hot_key_order_varies_across_seeds(self):
        keys = StoreWorkloadConfig(n_keys=16).key_names()
        orders = {tuple(hot_key_order(keys, seed)) for seed in range(16)}
        assert len(orders) > 1

    def test_op_mix_follows_the_ratios(self):
        plan = generate_client_ops(StoreWorkloadConfig(
            ops=4000, read_ratio=0.5, delete_ratio=0.25, seed=1))
        kinds = [op.kind for op in plan]
        assert 0.4 < kinds.count("get") / len(kinds) < 0.6
        assert 0.18 < kinds.count("delete") / len(kinds) < 0.32

    def test_only_gets_carry_a_repair_peer(self):
        for op in generate_client_ops(SMALL):
            if op.kind == "get":
                assert op.repair_peer is not None
                assert op.repair_peer != op.site
            else:
                assert op.repair_peer is None


#: sha256 of ``repr(generate_client_ops(cfg))`` for the three bench store
#: shapes at 2,000 ops, seeds 0-2.  Pinned so any change to how keys are
#: drawn shows up as a changed plan, not as a silent metric drift.
PINNED_PLANS = {
    ("store_hot", 0):
        "0cbb87c240e5199a29733bfdfadea039470023b057f5dab9ab437ca124998c99",
    ("store_hot", 1):
        "8a9518154bb6abb87f9feda52f449ef186f8798440a38088109ecf731b256e9f",
    ("store_hot", 2):
        "399ba8796a0ac501f8a0cf7ced6b05787ac93b3ae74ac050a0cfef42492d0f9c",
    ("store_wide", 0):
        "d67a755395dae27461b7e9e4f1895e12331db0d05fed0bae391ff04a4ee26495",
    ("store_wide", 1):
        "430d91d58a35a753f71f645392346405179ecda4fdb8ff7888242b84241275a8",
    ("store_wide", 2):
        "0c33e4eb9f317013c40f12433eaaf750de765ac27d0042d39760206db9693077",
    ("store_writes", 0):
        "89ba21dc1b91ef4c9e699683fcc519222bca033dfeb3c3c4d30e0e90d239039a",
    ("store_writes", 1):
        "4d9f0df27549df7cba1c57a51e724a2e0c78cbca2e9747aad07f7ee7341c5bf0",
    ("store_writes", 2):
        "6815f81ff9585b4b1692fc401559b5ccec5e886354f7dd3a0f39421ef421b632",
}

#: The bench's store shapes (``bench/workloads.py``) at a test-sized op
#: count.
SHAPES = {
    "store_hot": dict(n_keys=32, read_ratio=0.9),
    "store_wide": dict(n_keys=1024, read_ratio=0.9),
    "store_writes": dict(n_keys=64, read_ratio=0.5),
}


def _shape_config(shape: str, seed: int) -> StoreWorkloadConfig:
    return StoreWorkloadConfig(n_sites=8, n_clients=64, op_interval=0.002,
                               ops=2000, seed=seed, **SHAPES[shape])


class TestDrawStream:
    @pytest.mark.parametrize("shape, seed", sorted(PINNED_PLANS))
    def test_plan_is_pinned(self, shape, seed):
        plan = generate_client_ops(_shape_config(shape, seed))
        digest = hashlib.sha256(repr(plan).encode()).hexdigest()
        assert digest == PINNED_PLANS[(shape, seed)]

    def test_every_key_draw_bisects_one_table(self, monkeypatch):
        # A per-draw ``weights=`` list costs O(n_keys) per op; the plan
        # must build one cumulative table and hand it to every draw.
        tables = []
        original = random.Random.choices

        def spy(self, population, weights=None, *, cum_weights=None, k=1):
            assert weights is None
            tables.append(cum_weights)
            return original(self, population, cum_weights=cum_weights, k=k)

        monkeypatch.setattr(random.Random, "choices", spy)
        config = _shape_config("store_wide", 0)
        generate_client_ops(config)
        assert len(tables) == config.ops
        assert all(table is tables[0] for table in tables)
        assert len(tables[0]) == config.n_keys


class TestRunWorkload:
    def test_small_run_converges_and_measures(self):
        result = run_store_workload(SMALL)
        assert result.converged
        assert result.ops == SMALL.ops
        assert result.latency_summary("get")["count"] > 0
        assert result.latency_summary("put")["count"] > 0
        assert result.staleness_summary()["count"] > 0
        assert result.store.sessions > 0

    def test_digest_is_deterministic_and_wall_clock_free(self):
        first = run_store_workload(SMALL).digest()
        second = run_store_workload(SMALL).digest()
        assert first == second
        assert "wall" not in " ".join(first)

    def test_linked_oracle_produces_the_same_digest(self):
        # The store over the linked-list reference vectors must reach
        # the same state hash, bit count, and latencies as the default.
        default = run_store_workload(SMALL)
        with linked_vectors():
            linked = run_store_workload(SMALL)
        record = next(iter(linked.store.stores["S000"].table.values()))
        assert type(record.vector) is SkipRotatingVector
        assert linked.digest() == default.digest()

    def test_chaos_faults_apply_to_store_sessions(self):
        config = StoreWorkloadConfig(n_sites=4, n_keys=8, n_clients=8,
                                     ops=400, loss_rate=0.2, chaos_seed=9,
                                     sync_period=0.2, seed=7)
        result = run_store_workload(config)
        assert result.converged
        assert result.store.totals.retries > 0

    def test_external_metrics_and_tracer_are_used(self):
        metrics = MetricsRegistry()
        tracer = Tracer()
        result = run_store_workload(SMALL, metrics=metrics, tracer=tracer)
        assert result.metrics is metrics
        assert metrics.counter("store.ops").value == SMALL.ops
        kinds = {event.kind for event in tracer.events}
        assert "store_op" in kinds and "session_start" in kinds

    def test_zero_op_run_digests_cleanly(self):
        result = run_store_workload(StoreWorkloadConfig(ops=0))
        digest = result.digest()
        assert result.converged
        assert digest["ops"] == 0
        assert result.staleness_summary()["count"] == 0
        assert result.latency_summary("get")["count"] == 0
        assert digest["get_latency_p99"] == 0.0
        assert digest["staleness_p99"] == 0.0

    def test_read_only_run_digests_cleanly(self):
        result = run_store_workload(StoreWorkloadConfig(
            n_sites=4, n_keys=8, n_clients=8, ops=200, read_ratio=1.0,
            delete_ratio=0.0, seed=7))
        digest = result.digest()
        assert result.writes == 0 and result.deletes == 0
        assert result.latency_summary("put")["count"] == 0
        assert digest["put_latency_p99"] == 0.0
        assert result.staleness_summary()["count"] == result.reads

    def test_digest_staleness_agrees_with_the_summary(self):
        # digest() computes the staleness summary once and reuses it for
        # both percentile fields; they must agree with a fresh summary.
        result = run_store_workload(SMALL)
        digest = result.digest()
        summary = result.staleness_summary()
        assert digest["staleness_p50"] == round(summary["p50"], 9)
        assert digest["staleness_p99"] == round(summary["p99"], 9)

    def test_consistency_digest_rides_along_when_monitored(self):
        monitor = ConsistencyMonitor()
        result = run_store_workload(SMALL, monitor=monitor)
        assert result.consistency is not None
        assert result.consistency["audit"]["ops_audited"] == SMALL.ops
        assert run_store_workload(SMALL).consistency is None


class TestMonotonicReads:
    """A read-repairing get hands out the union context of two replicas;
    until the repair has run, the stale replica must not serve that key
    to the same client again — or it reads an older context than it
    holds."""

    @pytest.mark.parametrize("n_keys", [32, 1024])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_fault_free_runs_audit_clean(self, n_keys, seed):
        """1-5 ``monotonic_reads`` violations each before queued repairs
        held their key."""
        result = run_store_workload(
            StoreWorkloadConfig(n_sites=8, n_keys=n_keys, n_clients=64,
                                ops=6000, seed=seed),
            monitor=ConsistencyMonitor())
        audit = result.consistency["audit"]
        assert result.converged and audit["ops_audited"] == 6000
        assert audit["monotonic_reads"] == 0
        assert audit["read_your_writes"] == 0

    def test_a_queued_repair_holds_its_key_at_the_stale_site(self):
        channel = ChannelSpec(latency=0.01, bandwidth=1e6)
        c = StoreCluster(["A", "B", "C"], StoreConfig(channel=channel))
        c.submit(ClientOp(kind="put", site="A", key="k", value="va"))
        c.submit(ClientOp(kind="put", site="C", key="j", value="vj"))
        c.request_sync("C", "B", keys=("j",))  # B is mid-session over j
        reads = []
        get = ClientOp(kind="get", site="B", key="k", repair_peer="A")
        c.submit(get, on_done=reads.append)
        # Another key than B's session: it ran at once, consulted idle
        # A, and returned the merged view; the repair waits for B.
        (first,) = reads
        assert first.queue_wait == 0 and first.repaired
        assert first.result.values == ("va",)
        assert c.stores["B"].get("k").values == ()  # B itself: stale
        c.submit(get, on_done=reads.append)
        assert len(reads) == 1  # barred by the queued repair
        result = c.run()
        repair = result.records[-1]
        assert (repair.src, repair.dst, repair.keys) == ("A", "B", ("k",))
        second = reads[1]
        assert second.executed_at == repair.result.completion_time
        assert second.result.values == ("va",)
        assert all(second.result.context.get(site, 0) >= count
                   for site, count in first.result.context.items())
        assert result.ops_deferred == 1 and result.read_repairs == 1
