"""Tests for the fast-path timing tripwire (`repro.perf.microbench`).

Correctness-only here: the probes must build valid workloads and agree
with their oracles, and call counts must be deterministic.  The actual
verdict (fast path clears its floor) is CI's job via
``python -m repro.perf.microbench`` — asserting wall-clock ratios inside
the unit suite would make it flaky on loaded machines.
"""

import dataclasses

from repro.core.arrayvec import ArraySkipRotatingVector
from repro.net.stats import TransferStats
from repro.perf.microbench import (MicrobenchResult, _best_pair,
                                   _CounterTransferStats, _grown_crg,
                                   _srv_segment_spec, account_sessions,
                                   call_count,
                                   bench_batch_quiet_turn,
                                   bench_crg_pi_sweep,
                                   bench_e4_segment_stream,
                                   bench_e11_batch_frame,
                                   bench_messages_element_build,
                                   bench_srv_segments,
                                   bench_stats_session_accounting,
                                   bench_sync_place_after,
                                   bench_sync_stream_rows, bench_vector_copy,
                                   bench_vector_rotate, build_element_sends,
                                   build_element_sends_oracle,
                                   format_results, per_element_turn,
                                   quiet_turn, run_microbench)


class TestMicrobenchResult:
    def test_speedup_and_regression_flags(self):
        healthy = MicrobenchResult("x", cached_seconds=1.0,
                                   uncached_seconds=4.0)
        assert healthy.speedup == 4.0 and not healthy.regressed
        broken = MicrobenchResult("x", cached_seconds=4.0,
                                  uncached_seconds=1.0)
        assert broken.regressed
        free = MicrobenchResult("x", cached_seconds=0.0,
                                uncached_seconds=1.0)
        assert free.speedup == float("inf") and not free.regressed

    def test_min_speedup_floor(self):
        # 2x measured against a 5x floor is a regression even though the
        # fast path "won"; the same timing against a 1x floor is fine.
        gated = MicrobenchResult("x", cached_seconds=1.0,
                                 uncached_seconds=2.0, min_speedup=5.0)
        assert gated.speedup == 2.0 and gated.regressed
        lenient = MicrobenchResult("x", cached_seconds=1.0,
                                   uncached_seconds=2.0)
        assert not lenient.regressed
        # Parity cells use a sub-1.0 floor: slightly slower is tolerated.
        parity = MicrobenchResult("x", cached_seconds=1.1,
                                  uncached_seconds=1.0, min_speedup=0.8)
        assert not parity.regressed

    def test_call_floor_gates_on_calls_not_wall(self):
        # 10x fewer calls clears an 8x call floor however the wall
        # clock fell; 4x fewer does not, even at a 100x speedup.
        slow_host = MicrobenchResult("x", 1.0, 1.0, cached_calls=10,
                                     uncached_calls=100, min_call_ratio=8.0)
        assert slow_host.call_ratio == 10.0 and not slow_host.regressed
        fewer = MicrobenchResult("x", 0.01, 1.0, cached_calls=25,
                                 uncached_calls=100, min_call_ratio=8.0)
        assert fewer.speedup == 100.0 and fewer.regressed


class TestBestPair:
    def test_rounds_interleave_so_both_sides_share_the_host(self):
        calls = []
        fast, oracle = _best_pair(lambda: calls.append("fast"),
                                  lambda: calls.append("oracle"), rounds=3)
        assert calls == ["fast", "oracle"] * 3
        assert 0.0 <= fast < 1.0 and 0.0 <= oracle < 1.0


class TestCallCount:
    def test_counts_python_and_c_calls(self):
        def leaf():
            return len(())

        def body():
            for _ in (1, 2, 3):
                leaf()

        # body, 3 × (leaf + len), and the profiler's own removal.
        assert call_count(body) == 1 + 3 * 2 + 1

    def test_counts_repeat_exactly(self):
        result = bench_e11_batch_frame(n_objects=4, msgs_per_object=3,
                                       repeats=2)
        again = bench_e11_batch_frame(n_objects=4, msgs_per_object=3,
                                      repeats=2)
        assert result.cached_calls > 0
        assert (result.cached_calls, result.uncached_calls) \
            == (again.cached_calls, again.uncached_calls)


class TestWorkloads:
    def test_grown_crg_is_deterministic_and_nontrivial(self):
        first = _grown_crg(60, seed=7)
        second = _grown_crg(60, seed=7)
        ids = [node.node_id for node in first.nodes()]
        assert ids == [node.node_id for node in second.nodes()]
        assert len(ids) > 10
        # The memoized sweep must agree with the oracle on this shape.
        for node_id in ids:
            assert first.pi_set(node_id) == second.pi_set_uncached(node_id)

    def test_probes_return_positive_timings(self):
        probes = [
            bench_srv_segments(n_segments=20, segment_len=2, repeats=5),
            bench_crg_pi_sweep(steps=40, seed=7),
            bench_vector_copy(n_segments=20, segment_len=2, repeats=3),
            bench_vector_rotate(n_segments=20, segment_len=2,
                                rotations=50, repeats=2),
            bench_e4_segment_stream(n_segments=20, segment_len=2, repeats=2),
            bench_e11_batch_frame(n_objects=4, msgs_per_object=3, repeats=2),
            bench_sync_stream_rows(n_segments=20, segment_len=2, repeats=2),
            bench_sync_place_after(n_segments=20, segment_len=2, repeats=2),
            bench_messages_element_build(n_segments=20, segment_len=2,
                                         repeats=2),
            bench_stats_session_accounting(sessions=20, repeats=2),
            bench_batch_quiet_turn(n_segments=20, segment_len=2, repeats=2),
        ]
        for result in probes:
            assert result.cached_seconds > 0
            assert result.uncached_seconds > 0

    def test_pipeline_cells_carry_their_call_floors(self):
        e4 = bench_e4_segment_stream(n_segments=10, segment_len=2, repeats=1)
        e11 = bench_e11_batch_frame(n_objects=2, msgs_per_object=2, repeats=1)
        assert e4.min_call_ratio == 9.0
        assert e11.min_call_ratio == 7.9

    def test_sync_cells_carry_their_floors(self):
        rows = bench_sync_stream_rows(n_segments=10, segment_len=2, repeats=1)
        place = bench_sync_place_after(n_segments=10, segment_len=2,
                                       repeats=1)
        assert (rows.name, rows.min_call_ratio) == ("sync.stream_rows", 2.7)
        assert (place.name, place.min_call_ratio) == ("sync.place_after",
                                                      2.0)
        build = bench_messages_element_build(n_segments=10, segment_len=2,
                                             repeats=1)
        assert (build.name, build.min_speedup, build.min_call_ratio) \
            == ("messages.element_build", 2.0, None)
        accounting = bench_stats_session_accounting(sessions=2, repeats=1)
        assert (accounting.name, accounting.min_speedup,
                accounting.min_call_ratio) \
            == ("stats.session_accounting", 1.8, None)
        turn = bench_batch_quiet_turn(n_segments=10, segment_len=2,
                                      repeats=1)
        assert (turn.name, turn.min_call_ratio) == ("batch.quiet_turn", 7.9)

    def test_quiet_turn_matches_its_per_element_oracle(self):
        vector = ArraySkipRotatingVector.from_segments(
            _srv_segment_spec(30, 3))
        sent = quiet_turn(vector)
        assert sent == tuple(per_element_turn(vector))
        assert len(sent) == 91  # 90 elements and the HALT

    def test_session_accounting_matches_its_counter_oracle(self):
        fast = account_sessions(TransferStats, 7)
        oracle = account_sessions(_CounterTransferStats, 7)
        assert type(fast.forward.by_type) is dict
        assert fast.summary() == oracle.summary()
        assert fast.summary()["by_type"] == {"forward": {"Halt": 7},
                                             "backward": {"Ack": 7}}

    def test_element_build_matches_its_dataclass_oracle(self):
        rows = ArraySkipRotatingVector.from_segments(
            _srv_segment_spec(30, 3)).order.as_tuples()
        fast = build_element_sends(rows)
        oracle = build_element_sends_oracle(rows)
        assert len(fast) == len(oracle) == 90
        assert ([dataclasses.astuple(send) for send in fast]
                == [dataclasses.astuple(send) for send in oracle]
                == [(row,) for row in rows])


class TestReporting:
    def test_format_names_every_probe(self):
        results = [MicrobenchResult("a.one", 0.001, 0.004),
                   MicrobenchResult("b.two", 0.004, 0.001)]
        text = format_results(results)
        assert "a.one" in text and "b.two" in text
        assert "ok" in text and "REGRESS" in text

    def test_format_shows_floor_column(self):
        text = format_results([MicrobenchResult("gated", 0.001, 0.003,
                                                min_speedup=5.0)])
        assert "5.0x wall" in text and "REGRESS" in text
        text = format_results([MicrobenchResult(
            "counted", 0.001, 0.003, cached_calls=10, uncached_calls=90,
            min_call_ratio=8.0)])
        assert "8.0x calls" in text and "9.0x" in text and "ok" in text

    def test_run_microbench_covers_every_fast_path(self):
        names = [result.name for result in run_microbench()]
        assert names == ["srv.segments", "crg.pi_sweep", "vector.copy",
                         "vector.rotate", "e4.segment_stream",
                         "e11.batch_frame", "sync.stream_rows",
                         "sync.place_after", "messages.element_build",
                         "stats.session_accounting", "batch.quiet_turn"]
