"""Cluster runs on faulted channels: convergence, replay, accounting.

The chaos contract at cluster scale: with per-session derived fault
seeds, a concurrent run over a lossy channel still converges (given
enough gossip coverage), its sequential replay reproduces every
session's bits *and* retry/resume behavior exactly, and the goodput
split is exact at every aggregation level.
"""

import pytest

from repro.net.channel import ChannelSpec
from repro.net.cluster import ClusterConfig, ClusterRunner, replay_sequential
from repro.net.faults import FaultSpec, RetryPolicy, chaos_faults
from repro.net.wire import Encoding
from repro.workload.cluster import gossip_schedule, site_names, update_schedule
from tests.helpers import same_objects

ENC = Encoding(site_bits=8, value_bits=16)


def chaos_config(protocol, loss, *, seed=3, retry=None, **overrides):
    faults = chaos_faults(loss, latency=0.01, seed=seed)
    defaults = dict(
        protocol=protocol,
        channel=ChannelSpec(latency=0.01, bandwidth=1e6, faults=faults),
        encoding=ENC, retry=retry or RetryPolicy())
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def run_cluster(config, *, n_sites=5, n_updates=10, rounds=10,
                single_writer=False, seed=50):
    sites = site_names(n_sites)
    writers = [sites[0]] if single_writer else None
    updates = update_schedule(sites, n_updates=n_updates, interval=0.05,
                              seed=seed, writers=writers,
                              n_objects=config.n_objects)
    sessions = gossip_schedule(sites, rounds=rounds, seed=seed + 1)
    result = ClusterRunner(sites, config).run(sessions, updates)
    return sites, result


class TestChaosConvergence:
    @pytest.mark.parametrize("protocol", ["crv", "srv"])
    @pytest.mark.parametrize("loss", [0.01, 0.1])
    def test_multi_writer_converges_under_loss(self, protocol, loss):
        config = chaos_config(protocol, loss)
        _, result = run_cluster(config)
        assert result.consistent()

    def test_brv_single_writer_converges_under_loss(self):
        config = chaos_config("brv", 0.1)
        _, result = run_cluster(config, single_writer=True)
        assert result.consistent()

    def test_goodput_identity_at_every_level(self):
        config = chaos_config("srv", 0.15)
        _, result = run_cluster(config)
        totals = result.totals
        assert totals.total_retransmitted_bits \
            == totals.total_bits - totals.total_goodput_bits
        assert totals.retries > 0
        for record in result.records:
            stats = record.result.stats
            assert stats.total_retransmitted_bits \
                == stats.total_bits - stats.total_goodput_bits


class TestChaosReplay:
    @pytest.mark.parametrize("loss", [0.05, 0.2])
    def test_replay_reproduces_bits_and_retries(self, loss):
        config = chaos_config("srv", loss)
        sites, result = run_cluster(config)
        sequential, objects = replay_sequential(sites, config, result.log)
        assert result.per_session_bits() \
            == [r.stats.total_bits for r in sequential]
        assert [r.result.stats.retries for r in result.records] \
            == [r.stats.retries for r in sequential]
        assert [r.result.stats.timeouts for r in result.records] \
            == [r.stats.timeouts for r in sequential]
        assert same_objects(result.objects, objects)

    def test_forced_resumes_replay_exactly_and_converge(self):
        """A starved retry budget forces aborts; resume must still work."""
        config = chaos_config(
            "srv", 0.3,
            retry=RetryPolicy(max_retries=1, initial_rto=0.05,
                              max_session_attempts=40))
        sites, result = run_cluster(config, n_sites=4, n_updates=8)
        assert result.totals.resumes > 0
        assert result.consistent()
        sequential, objects = replay_sequential(sites, config, result.log)
        assert [r.result.stats.resumes for r in result.records] \
            == [r.stats.resumes for r in sequential]
        assert result.per_session_bits() \
            == [r.stats.total_bits for r in sequential]
        assert same_objects(result.objects, objects)


class TestChaosConfig:
    def test_zero_loss_chaos_spec_is_disabled(self):
        assert not chaos_faults(0.0, latency=0.01).enabled

    def test_chaos_faults_scales_with_loss(self):
        spec = chaos_faults(0.2, latency=0.01, seed=7)
        assert spec.drop == 0.2
        assert spec.duplicate == 0.1
        assert spec.reorder == 0.2
        assert spec.reorder_window == pytest.approx(0.04)
        assert spec.seed == 7
