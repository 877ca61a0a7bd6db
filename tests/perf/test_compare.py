"""Tests for the bench-document comparator (`repro.perf.compare`)."""

import copy
import json

import pytest

from repro.perf.bench import BenchConfig, run_cluster_bench, write_bench
from repro.perf.compare import (compare_documents, format_comparison,
                                main as compare_main)
from repro.perf.schema import run_key

#: One tiny gossip cell plus nothing else — fast and fully paired.
TINY = BenchConfig(site_counts=(4,), protocols=("srv",), rounds=2,
                   updates_per_site=1.0, batched_sizes=(),
                   chaos_loss_rates=(), store_ops=0, topology=None)


@pytest.fixture(scope="module")
def document():
    return run_cluster_bench(TINY)


class TestRunKey:
    def test_gossip_key_has_no_batch_identity(self, document):
        key = run_key(document["runs"][0])
        assert key == ("multi-writer-gossip", "srv", 4,
                       None, None, None, None)

    def test_batched_key_carries_objects_and_batch_size(self):
        run = {"scenario": "batched-many-objects", "protocol": "srv",
               "n_sites": 4, "n_objects": 6, "batch_size": 4}
        assert run_key(run) == ("batched-many-objects", "srv", 4, 6, 4,
                                None, None)

    def test_chaos_key_carries_loss_rate_and_seed(self):
        run = {"scenario": "chaos-loss", "protocol": "srv", "n_sites": 8,
               "n_objects": 32, "batch_size": 8, "loss_rate": 0.1,
               "chaos_seed": 11}
        assert run_key(run) == ("chaos-loss", "srv", 8, 32, 8, 0.1, 11)


class TestCompareDocuments:
    def test_identical_documents_diff_to_zero(self, document):
        comparison = compare_documents(document, document)
        assert not comparison.bits_changed
        assert comparison.fingerprints_equal
        assert comparison.only_old == [] and comparison.only_new == []
        assert all(d.bits_delta_pct == 0.0 for d in comparison.deltas)

    def test_moved_bits_are_detected(self, document):
        changed = copy.deepcopy(document)
        changed["runs"][0]["total_bits"] += 8
        comparison = compare_documents(document, changed)
        assert comparison.bits_changed
        assert not comparison.fingerprints_equal
        (delta,) = comparison.deltas
        assert delta.new_bits == delta.old_bits + 8
        assert delta.bits_delta_pct > 0

    def test_grid_mismatch_counts_as_change(self, document):
        shrunk = copy.deepcopy(document)
        missing = shrunk["runs"].pop()
        comparison = compare_documents(document, shrunk)
        assert comparison.bits_changed
        assert comparison.only_old == [run_key(missing)]

    def test_simulated_time_alone_moves_the_fingerprint(self, document):
        slower = copy.deepcopy(document)
        slower["runs"][0]["sim_completion_seconds"] += 0.5
        comparison = compare_documents(document, slower)
        assert not comparison.bits_changed
        assert not comparison.fingerprints_equal  # nothing is masked
        (delta,) = comparison.deltas
        assert delta.moved == ("sim_completion_seconds",)


class TestFormatComparison:
    def test_table_names_every_pair_and_the_verdict(self, document):
        text = format_comparison(compare_documents(document, document))
        assert "multi-writer-gossip/srv n=4" in text
        assert "fingerprints identical" in text
        assert "moved fields" in text

    def test_differing_fingerprints_are_called_out(self, document):
        changed = copy.deepcopy(document)
        changed["runs"][0]["total_bits"] += 1
        text = format_comparison(compare_documents(document, changed))
        assert "DIFFER" in text


class TestCompareCli:
    def test_same_document_twice_exits_zero(self, tmp_path, capsys,
                                            document):
        path = str(tmp_path / "bench.json")
        write_bench(document, path)
        assert compare_main([path, path, "--require-same"]) == 0
        assert "identical" in capsys.readouterr().out

    def test_require_same_bits_fails_on_traffic_change(self, tmp_path,
                                                       capsys, document):
        old = str(tmp_path / "old.json")
        new = str(tmp_path / "new.json")
        write_bench(document, old)
        changed = copy.deepcopy(document)
        changed["runs"][0]["total_bits"] += 1
        changed["runs"][0]["traffic"]["total_bits"] += 1
        write_bench(changed, new)
        assert compare_main([old, new, "--require-same"]) == 1
        assert "wire traffic changed" in capsys.readouterr().out
        # Without the gate the same diff is informational only.
        assert compare_main([old, new]) == 0
        capsys.readouterr()

    def test_require_same_fails_when_only_simulated_time_moved(
            self, tmp_path, capsys, document):
        old = str(tmp_path / "old.json")
        new = str(tmp_path / "new.json")
        write_bench(document, old)
        changed = copy.deepcopy(document)
        changed["runs"][0]["sim_completion_seconds"] *= 2
        write_bench(changed, new)
        assert compare_main([old, new, "--require-same"]) == 1
        out = capsys.readouterr().out
        assert "sim_completion_seconds" in out
        assert "the documents differ" in out

    def test_retired_flag_is_a_usage_error(self, tmp_path, capsys,
                                           document):
        path = str(tmp_path / "bench.json")
        write_bench(document, path)
        assert compare_main([path, path, "--require-same-bits"]) == 2
        assert "usage" in capsys.readouterr().out

    def test_usage_and_invalid_documents_exit_2(self, tmp_path, capsys):
        assert compare_main(["only-one.json"]) == 2
        assert "usage" in capsys.readouterr().out
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope"}))
        assert compare_main([str(bad), str(bad)]) == 2
        assert "not a valid bench document" in capsys.readouterr().out


class TestInvariantGate:
    def test_violations_in_new_document_detected(self, document):
        broken = copy.deepcopy(document)
        broken["runs"][0]["invariant_violations"] = 2
        comparison = compare_documents(document, broken)
        assert comparison.invariants_violated
        assert comparison.new_violations[0][1] == 2
        text = format_comparison(comparison)
        assert "2 INVARIANT VIOLATION(S)" in text

    def test_zero_count_does_not_trip(self, document):
        clean = copy.deepcopy(document)
        clean["runs"][0]["invariant_violations"] = 0
        comparison = compare_documents(document, clean)
        assert not comparison.invariants_violated

    def test_violations_in_old_document_ignored(self, document):
        # Only the NEW document is gated: a historical bad run must not
        # block comparing against a now-clean one.
        stale = copy.deepcopy(document)
        stale["runs"][0]["invariant_violations"] = 5
        assert not compare_documents(stale, document).invariants_violated

    def test_cli_fails_even_without_require_same(self, tmp_path, capsys,
                                                 document):
        old = str(tmp_path / "old.json")
        new = str(tmp_path / "new.json")
        write_bench(document, old)
        broken = copy.deepcopy(document)
        broken["runs"][0]["invariant_violations"] = 1
        broken["runs"][0]["health"] = {
            "samples": 4, "sites": 4, "invariant_violations": 1,
            "sessions_checked": 6, "final_scores": {"S000": 1.0},
            "min_final_score": 1.0, "mean_final_score": 1.0,
        }
        write_bench(broken, new)
        assert compare_main([old, new]) == 1
        assert "cannot be trusted" in capsys.readouterr().out


#: Every exact metric the retired history gate tracked: ``name →
#: mutate(run, amount)``, where amount 0 writes the old value and 1
#: moves it.
EXACT_METRICS = {
    "total_bits": lambda run, moved: run.update(
        total_bits=run["total_bits"] + moved),
    "sim_completion_seconds": lambda run, moved: run.update(
        sim_completion_seconds=run["sim_completion_seconds"] + moved),
    "goodput_bits": lambda run, moved: run.update(goodput_bits=900 - moved),
    "critical_path_seconds": lambda run, moved: run.update(
        critical_path_seconds=0.5 + moved),
    "consistency": lambda run, moved: run.update(consistency={
        "w_all_seconds": {"p99": 0.5 + moved},
        "audit": {"violations": 3}}),
    "health": lambda run, moved: run.update(health={
        "min_final_score": 1.0 - moved / 10}),
}


class TestExactMetricGate:
    """Any exact metric moving changes the fingerprint, so
    ``--require-same`` fails on it; an unmoved one passes."""

    @pytest.mark.parametrize("metric", sorted(EXACT_METRICS))
    def test_moved_metric_differs(self, document, metric):
        old, new = copy.deepcopy(document), copy.deepcopy(document)
        EXACT_METRICS[metric](old["runs"][0], 0)
        EXACT_METRICS[metric](new["runs"][0], 1)
        comparison = compare_documents(old, new)
        assert not comparison.fingerprints_equal
        (delta,) = comparison.deltas
        assert delta.moved == (metric,)

    @pytest.mark.parametrize("metric", sorted(EXACT_METRICS))
    def test_unmoved_metric_is_quiet(self, document, metric):
        old, new = copy.deepcopy(document), copy.deepcopy(document)
        EXACT_METRICS[metric](old["runs"][0], 0)
        EXACT_METRICS[metric](new["runs"][0], 0)
        comparison = compare_documents(old, new)
        assert comparison.fingerprints_equal
        assert comparison.deltas[0].moved == ()
