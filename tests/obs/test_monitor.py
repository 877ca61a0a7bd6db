"""Tests for the live cluster monitor and its inline invariant checkers."""

from types import SimpleNamespace

import pytest

from repro.errors import InvariantViolationError, ValidationError
from repro.net.stats import TransferStats
from repro.net.channel import ChannelSpec
from repro.net.cluster import ClusterConfig, ClusterRunner
from repro.net.faults import RetryPolicy, chaos_faults
from repro.net.wire import Encoding
from repro.obs import trace as obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import (GAUGE_NAMES, ClusterMonitor, MonitorConfig,
                               RingBuffer)
from repro.workload.cluster import (SessionRequest, UpdateRequest,
                                    gossip_schedule, site_names,
                                    update_schedule)

ENC = Encoding(site_bits=8, value_bits=16)
SLOW = ChannelSpec(latency=0.05, bandwidth=1e5)


def config(**overrides):
    defaults = dict(protocol="srv", channel=SLOW, encoding=ENC)
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def monitored_run(sessions, updates=(), *, sites=("A", "B", "C"),
                  cfg=None, monitor_config=None, metrics=None):
    monitor = ClusterMonitor(monitor_config or MonitorConfig(),
                             metrics=metrics)
    runner = ClusterRunner(list(sites), cfg or config(), monitor=monitor)
    result = runner.run(sessions, updates)
    return monitor, result


class TestRingBuffer:
    def test_appends_in_order(self):
        ring = RingBuffer(4)
        ring.append(0.0, 1.0)
        ring.append(1.0, 2.0)
        assert ring.items() == [(0.0, 1.0), (1.0, 2.0)]
        assert ring.values() == [1.0, 2.0]
        assert ring.latest() == 2.0
        assert len(ring) == 2

    def test_overflow_drops_oldest(self):
        ring = RingBuffer(3)
        for step in range(5):
            ring.append(float(step), float(step * 10))
        assert len(ring) == 3
        assert ring.dropped == 2
        assert ring.values() == [20.0, 30.0, 40.0]

    def test_empty_latest_is_none(self):
        assert RingBuffer(1).latest() is None


class TestMonitorConfig:
    def test_rejects_bad_cadence(self):
        with pytest.raises(ValueError, match="cadence"):
            MonitorConfig(cadence=0.0)
        with pytest.raises(ValidationError, match="cadence"):
            MonitorConfig(cadence=float("nan"))

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError, match="ring_capacity"):
            MonitorConfig(ring_capacity=0)
        # A fractional capacity used to pass here and crash at attach.
        with pytest.raises(ValidationError, match="ring_capacity"):
            MonitorConfig(ring_capacity=2.5)

    def test_rejects_negative_spot_period(self):
        with pytest.raises(ValueError, match="spot_check_period"):
            MonitorConfig(spot_check_period=-1)


class TestSampling:
    def test_clean_run_has_samples_and_no_violations(self):
        sites = site_names(4)
        sessions = gossip_schedule(sites, rounds=3, seed=1)
        updates = update_schedule(sites, n_updates=6, interval=0.1, seed=2)
        monitor, result = monitored_run(sessions, updates, sites=sites)
        assert monitor.violation_count == 0
        assert monitor.samples >= 2  # at least the t=0 and final samples
        # A short gossip round-robin need not fully converge; the scores
        # must still be well-formed probabilities at every site.
        for site in sites:
            assert 0.0 <= monitor.latest(site, "convergence_score") <= 1.0

    def test_every_site_has_every_gauge(self):
        sites = ["A", "B"]
        monitor, _ = monitored_run([SessionRequest(0.0, "A", "B")],
                                   [UpdateRequest(0.0, "A")], sites=sites)
        for site in sites:
            for name in GAUGE_NAMES:
                series = monitor.series(site, name)
                assert series, f"{site}/{name} has no samples"
                times = [time for time, _ in series]
                assert times == sorted(times)

    def test_converged_pair_scores_one(self):
        # One update on A, one session A->B: both sites end at the
        # frontier, so the final convergence score is exactly 1.0 and the
        # final backlog is zero.
        monitor, result = monitored_run(
            [SessionRequest(0.1, "A", "B")], [UpdateRequest(0.0, "A")],
            sites=["A", "B"])
        assert result.consistent()
        for site in ("A", "B"):
            assert monitor.latest(site, "convergence_score") == 1.0
            assert monitor.latest(site, "delta_backlog") == 0.0
            assert monitor.latest(site, "frontier_distance") == 0.0

    def test_lagging_site_scores_below_one(self):
        # C never syncs: after A->B it still misses A's update.
        monitor, _ = monitored_run(
            [SessionRequest(0.1, "A", "B")], [UpdateRequest(0.0, "A")],
            sites=["A", "B", "C"])
        assert monitor.latest("C", "convergence_score") < 1.0
        assert monitor.latest("C", "delta_backlog") >= 1.0
        assert "C" == monitor.worst_offenders(limit=1)[0]

    def test_empty_cluster_scores_one(self):
        # No updates anywhere: frontier is empty, score defined as 1.0.
        monitor, _ = monitored_run([SessionRequest(0.0, "A", "B")],
                                   sites=["A", "B"])
        assert monitor.latest("A", "convergence_score") == 1.0

    def test_cadence_bounds_sample_count(self):
        sites = site_names(3)
        sessions = gossip_schedule(sites, rounds=2, seed=3)
        coarse, _ = monitored_run(
            sessions, sites=sites,
            monitor_config=MonitorConfig(cadence=10.0))
        fine, _ = monitored_run(
            sessions, sites=sites,
            monitor_config=MonitorConfig(cadence=0.01))
        assert fine.samples > coarse.samples

    def test_gauges_mirrored_into_metrics(self):
        registry = MetricsRegistry()
        monitor, _ = monitored_run(
            [SessionRequest(0.0, "A", "B")], [UpdateRequest(0.0, "A")],
            sites=["A", "B"], metrics=registry)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["monitor.samples"] == monitor.samples
        assert snapshot["gauges"]["monitor.A.convergence_score"] == 1.0


class TestLifecycle:
    def test_attach_is_one_shot(self):
        monitor = ClusterMonitor()
        ClusterRunner(["A", "B"], config(), monitor=monitor).run(
            [SessionRequest(0.0, "A", "B")])
        with pytest.raises(InvariantViolationError, match="one-shot"):
            ClusterRunner(["A", "B"], config(), monitor=monitor)\
                .run([SessionRequest(0.0, "A", "B")])

    def test_runner_without_tracer_adopts_monitors(self):
        monitor = ClusterMonitor()
        runner = ClusterRunner(["A", "B"], config(), monitor=monitor)
        assert runner.tracer is monitor.tracer

    def test_explicit_tracer_is_kept(self):
        from repro.obs.trace import Tracer
        tracer = Tracer()
        monitor = ClusterMonitor()
        runner = ClusterRunner(["A", "B"], config(), tracer=tracer,
                               monitor=monitor)
        assert runner.tracer is tracer

    def test_finalize_unsubscribes(self):
        monitor = ClusterMonitor()
        runner = ClusterRunner(["A", "B"], config(), monitor=monitor)
        runner.run([SessionRequest(0.0, "A", "B")])
        before = monitor.samples
        # Events after the run must no longer reach the monitor.
        runner.tracer.event(obs.RETRY, time=999.0, party="A")
        assert monitor.samples == before
        assert monitor.pressure("A")["retries"] == 0


class TestPressure:
    def test_chaos_run_attributes_pressure(self):
        sites = site_names(4)
        faults = chaos_faults(0.25, latency=0.01, seed=9)
        cfg = ClusterConfig(
            protocol="srv", encoding=ENC, retry=RetryPolicy(),
            channel=ChannelSpec(latency=0.01, bandwidth=1e6, faults=faults))
        sessions = gossip_schedule(sites, rounds=4, seed=5)
        updates = update_schedule(sites, n_updates=8, interval=0.05, seed=6)
        monitor, _ = monitored_run(sessions, updates, sites=sites, cfg=cfg)
        assert monitor.violation_count == 0
        total = sum(sum(monitor.pressure(site).values()) for site in sites)
        assert total > 0
        assert any(monitor.latest(site, "pressure") > 0 for site in sites)

    def test_clean_run_has_no_pressure(self):
        monitor, _ = monitored_run([SessionRequest(0.0, "A", "B")],
                                   sites=["A", "B"])
        assert monitor.pressure("A") == {"retries": 0, "timeouts": 0,
                                         "aborts": 0, "resumes": 0}


class TestInvariantCheckers:
    """Drive the hooks directly: the runner calls on_session_start before
    launching a session, on_session_commit (pre-increment) when it
    commits and on_session_end when it completes; faking the record lets
    a test tamper with state in the window the checkers guard."""

    @staticmethod
    def _attached(monitor_config):
        monitor = ClusterMonitor(monitor_config)
        runner = ClusterRunner(["A", "B"], config(), monitor=monitor)
        monitor.attach(runner)
        return monitor, runner

    @staticmethod
    def _record(index=0, src="A", dst="B"):
        return SimpleNamespace(index=index, src=src, dst=dst)

    @staticmethod
    def _result(tamper=None):
        stats = TransferStats()
        stats.forward.record("ElementSMsg", 32)
        if tamper is not None:
            tamper(stats)
        return SimpleNamespace(stats=stats)

    def test_accounting_range_violation_detected(self):
        monitor, _ = self._attached(MonitorConfig(
            check_ancestor_closure=False, spot_check_period=0))
        record = self._record()
        monitor.on_session_start(record)

        def tamper(stats):
            stats.forward.retransmitted_bits = stats.forward.bits + 5

        monitor.on_session_end(record, self._result(tamper))
        assert any(v.check == "accounting" for v in monitor.violations)

    def test_accounting_message_count_violation_detected(self):
        monitor, _ = self._attached(MonitorConfig(
            check_ancestor_closure=False, spot_check_period=0))
        record = self._record()
        monitor.on_session_start(record)

        def tamper(stats):
            stats.backward.retransmitted_messages = 99

        monitor.on_session_end(record, self._result(tamper))
        assert any(v.check == "accounting" for v in monitor.violations)

    def test_cluster_totals_checked_at_finalize(self):
        monitor, runner = self._attached(MonitorConfig(
            check_ancestor_closure=False, spot_check_period=0))
        record = self._record()
        monitor.on_session_start(record)
        result = self._result()
        monitor.on_session_end(record, result)
        # The runner's totals never saw this session's stats, so the
        # cluster-vs-summed-sessions reconciliation must fail.
        assert monitor.violation_count == 0
        monitor.finalize()
        assert any(v.check == "accounting" for v in monitor.violations)

    def test_closure_violation_detected(self):
        monitor, runner = self._attached(MonitorConfig(spot_check_period=0))
        record = self._record()
        monitor.on_session_start(record)
        # A phantom update lands on the receiver mid-session: post-state
        # is no longer max(pre-state, sender) and the oracle must notice.
        runner.objects["B"][0].record_update("B")
        with_totals = self._result()
        runner._totals.merge(with_totals.stats)
        monitor.on_session_commit(record)
        monitor.on_session_end(record, with_totals)
        assert any(v.check == "ancestor_closure" for v in monitor.violations)

    def test_clean_session_passes_closure(self):
        monitor, runner = self._attached(MonitorConfig(spot_check_period=0))
        record = self._record()
        monitor.on_session_start(record)
        result = self._result()
        runner._totals.merge(result.stats)
        monitor.on_session_commit(record)
        monitor.on_session_end(record, result)
        monitor.finalize()
        assert monitor.violation_count == 0

    def test_strict_raises_immediately(self):
        monitor, runner = self._attached(MonitorConfig(
            strict=True, spot_check_period=0))
        record = self._record()
        monitor.on_session_start(record)
        runner.objects["B"][0].record_update("B")
        with pytest.raises(InvariantViolationError, match="ancestor_closure"):
            monitor.on_session_commit(record)

    def test_violation_emits_trace_event(self):
        monitor, runner = self._attached(MonitorConfig(spot_check_period=0))
        record = self._record()
        monitor.on_session_start(record)
        runner.objects["B"][0].record_update("B")
        runner._totals.merge(TransferStats())
        monitor.on_session_commit(record)
        monitor.on_session_end(record, self._result())
        emitted = [event for event in runner.tracer.events
                   if event.kind == obs.INVARIANT_VIOLATION]
        assert emitted
        assert emitted[0].fields["check"] == "ancestor_closure"

    def test_spot_checks_run_and_pass(self):
        registry = MetricsRegistry()
        sites = site_names(4)
        sessions = gossip_schedule(sites, rounds=3, seed=7)
        updates = update_schedule(sites, n_updates=6, interval=0.1, seed=8)
        monitor, _ = monitored_run(
            sessions, updates, sites=sites, metrics=registry,
            monitor_config=MonitorConfig(spot_check_period=1))
        assert registry.snapshot()["counters"]["monitor.spot_checks"] > 0
        assert not any(v.check == "compare_oracle"
                       for v in monitor.violations)

    def test_closure_skipped_with_fanout_above_one(self):
        monitor = ClusterMonitor(MonitorConfig(spot_check_period=0))
        runner = ClusterRunner(["A", "B", "C"], config(fanout=2),
                               monitor=monitor)
        runner.run([SessionRequest(0.0, "A", "B")],
                   [UpdateRequest(0.0, "A")])
        assert monitor._session_snapshots == {}
        assert monitor.violation_count == 0


class TestHealthSummary:
    def test_digest_shape(self):
        sites = site_names(3)
        sessions = gossip_schedule(sites, rounds=2, seed=11)
        updates = update_schedule(sites, n_updates=4, interval=0.1, seed=12)
        monitor, _ = monitored_run(sessions, updates, sites=sites)
        digest = monitor.health_summary()
        assert digest["sites"] == 3
        assert digest["samples"] == monitor.samples
        assert digest["invariant_violations"] == 0
        assert digest["sessions_checked"] == len(sessions)
        assert set(digest["final_scores"]) == set(sites)
        assert 0.0 <= digest["min_final_score"] <= 1.0
        assert digest["min_final_score"] <= digest["mean_final_score"]

    def test_worst_offenders_limit(self):
        sites = site_names(5)
        sessions = gossip_schedule(sites, rounds=2, seed=13)
        monitor, _ = monitored_run(sessions, sites=sites)
        assert len(monitor.worst_offenders(limit=2)) == 2
        assert set(monitor.worst_offenders(limit=99)) == set(sites)


class TestUnmonitoredEquivalence:
    def test_monitor_does_not_change_traffic(self):
        sites = site_names(4)
        sessions = gossip_schedule(sites, rounds=3, seed=21)
        updates = update_schedule(sites, n_updates=6, interval=0.1, seed=22)
        bare = ClusterRunner(sites, config()).run(sessions, updates)
        monitor = ClusterMonitor()
        watched = ClusterRunner(sites, config(), monitor=monitor)\
            .run(sessions, updates)
        assert bare.totals.summary() == watched.totals.summary()
        assert bare.completion_time == watched.completion_time
        assert monitor.violation_count == 0
