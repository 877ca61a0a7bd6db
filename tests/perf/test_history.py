"""Tests for the bench-history regression observatory."""

import copy
import json

import pytest

from repro.perf.history import (Flag, detect_flags, extract_trajectories,
                                format_history, history_main)
from repro.perf.schema import SCHEMA_ID


def make_doc(wall=0.1, bits=1000, sim=2.0, critical_path=None):
    """A minimal valid bench document with one gossip cell."""
    run = {
        "scenario": "single-writer-gossip",
        "protocol": "brv",
        "n_sites": 8,
        "sessions": 8,
        "updates": 8,
        "updates_deferred": 0,
        "reconciliations": 0,
        "total_bits": bits,
        "traffic": {"forward_bits": bits, "backward_bits": 0,
                    "total_bits": bits, "forward_messages": 8,
                    "backward_messages": 0, "by_type": {}},
        "bits_per_session": {"mean": bits / 8, "p50": bits / 8,
                             "p90": bits / 8, "max": bits / 8},
        "sim_completion_seconds": sim,
        "wall_seconds": wall,
        "max_queue_wait_seconds": 0.0,
        "consistent": True,
    }
    if critical_path is not None:
        run["critical_path_seconds"] = critical_path
        run["critical_path_hops"] = 4
        run["critical_path_attribution"] = {"latency": critical_path}
    return {"schema": SCHEMA_ID, "created_unix": 1.0,
            "config": {}, "runs": [run]}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestTrajectories:
    def test_series_are_index_aligned(self):
        docs = [make_doc(wall=0.1), make_doc(wall=0.2)]
        cells = extract_trajectories(docs)
        assert len(cells) == 1
        series = next(iter(cells.values()))
        assert series["wall_seconds"] == [0.1, 0.2]
        assert series["total_bits"] == [1000.0, 1000.0]
        # No batched cell: bits_per_object stays empty.
        assert series["bits_per_object"] == [None, None]

    def test_missing_cell_leaves_none_holes(self):
        other = make_doc()
        other["runs"][0]["protocol"] = "srv"
        other["runs"][0]["scenario"] = "multi-writer-gossip"
        cells = extract_trajectories([make_doc(), other])
        for series in cells.values():
            assert None in series["wall_seconds"]

    def test_critical_path_tracked_when_present(self):
        docs = [make_doc(critical_path=0.5), make_doc(critical_path=0.5)]
        series = next(iter(extract_trajectories(docs).values()))
        assert series["critical_path_seconds"] == [0.5, 0.5]


class TestDetection:
    def test_injected_2x_wall_regression_flags(self):
        """ISSUE acceptance: a 2× wall-time slowdown must be flagged."""
        cells = extract_trajectories([make_doc(wall=0.1),
                                      make_doc(wall=0.2)])
        flags = detect_flags(cells)
        assert [flag.metric for flag in flags] == ["wall_seconds"]
        assert not flags[0].exact
        assert flags[0].ratio == 2.0

    def test_wall_noise_inside_band_is_quiet(self):
        cells = extract_trajectories([make_doc(wall=0.1),
                                      make_doc(wall=0.13)])
        assert detect_flags(cells) == []

    def test_wall_baseline_is_median_of_priors(self):
        # One slow outlier among the priors must not mask a regression.
        docs = [make_doc(wall=0.1), make_doc(wall=0.5),
                make_doc(wall=0.1), make_doc(wall=0.25)]
        flags = detect_flags(extract_trajectories(docs))
        assert [flag.metric for flag in flags] == ["wall_seconds"]

    def test_bits_change_flags_exactly(self):
        cells = extract_trajectories([make_doc(bits=1000),
                                      make_doc(bits=1001)])
        metrics = {flag.metric for flag in detect_flags(cells)}
        assert "total_bits" in metrics

    def test_goodput_drop_is_the_bad_direction(self):
        good = make_doc()
        good["runs"][0]["traffic"]["reliability"] = {"goodput_bits": 900}
        bad = copy.deepcopy(good)
        bad["runs"][0]["traffic"]["reliability"]["goodput_bits"] = 850
        flags = detect_flags(extract_trajectories([good, bad]))
        assert "goodput_bits" in {flag.metric for flag in flags}

    def test_critical_path_drift_flags(self):
        docs = [make_doc(critical_path=0.5), make_doc(critical_path=0.7)]
        flags = detect_flags(extract_trajectories(docs))
        assert "critical_path_seconds" in {flag.metric for flag in flags}

    def test_identical_documents_are_quiet(self):
        cells = extract_trajectories([make_doc(), make_doc()])
        assert detect_flags(cells) == []

    def test_consistency_drift_flags_exactly(self):
        def with_consistency(w_all_p99, violations):
            doc = make_doc()
            doc["runs"][0]["consistency"] = {
                "w_all_seconds": {"p99": w_all_p99},
                "w_k_seconds": {"p99": w_all_p99 / 2},
                "audit": {"violations": violations},
                "max_replication_lag_seconds": 0.0,
            }
            return doc
        quiet = extract_trajectories([with_consistency(0.5, 3),
                                      with_consistency(0.5, 3)])
        assert detect_flags(quiet) == []
        cells = extract_trajectories([with_consistency(0.5, 3),
                                      with_consistency(0.9, 7)])
        metrics = {flag.metric for flag in detect_flags(cells)}
        assert "w_all_p99_seconds" in metrics
        assert "consistency_violations" in metrics

    def test_health_score_drop_is_the_bad_direction(self):
        def with_health(score):
            doc = make_doc()
            doc["runs"][0]["health"] = {"min_final_score": score}
            return doc
        flags = detect_flags(extract_trajectories([with_health(1.0),
                                                   with_health(0.8)]))
        assert "min_final_score" in {flag.metric for flag in flags}

    def test_unmonitored_documents_have_no_consistency_series(self):
        series = next(iter(extract_trajectories([make_doc()]).values()))
        assert series["w_all_p99_seconds"] == [None]
        assert series["consistency_violations"] == [None]


class TestFormatting:
    def test_report_shows_sparklines_and_flags(self):
        cells = extract_trajectories([make_doc(wall=0.1),
                                      make_doc(wall=0.25)])
        flags = detect_flags(cells)
        text = format_history(cells, flags, n_documents=2)
        assert "bench history: 2 document(s), 1 cell(s)" in text
        assert "wall_seconds" in text
        assert "REGRESSION" in text
        assert "(stable)" in text  # bits did not move

    def test_flag_describe_names_the_cell(self):
        flag = Flag(("s", "brv", 8, None, None, None, None),
                    "wall_seconds", 0.1, 0.2, exact=False)
        assert "wall_seconds" in flag.describe()
        assert "+100.0%" in flag.describe()


class TestCli:
    def test_gate_exits_nonzero_on_regression(self, tmp_path, capsys):
        """ISSUE acceptance: ``--gate`` exits non-zero on the 2× doc."""
        old = write(tmp_path, "old.json", make_doc(wall=0.1))
        new = write(tmp_path, "new.json", make_doc(wall=0.2))
        assert history_main([old, new, "--gate"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "gate FAILED" in out

    def test_clean_history_exits_zero(self, tmp_path, capsys):
        old = write(tmp_path, "old.json", make_doc())
        new = write(tmp_path, "new.json", make_doc())
        assert history_main([old, new, "--gate"]) == 0
        assert "no movements beyond tolerance" in capsys.readouterr().out

    def test_without_gate_regressions_still_report_but_exit_zero(
            self, tmp_path, capsys):
        old = write(tmp_path, "old.json", make_doc(wall=0.1))
        new = write(tmp_path, "new.json", make_doc(wall=0.2))
        assert history_main([old, new]) == 0
        assert "REGRESSION" in capsys.readouterr().out

    def test_band_is_tunable(self, tmp_path):
        old = write(tmp_path, "old.json", make_doc(wall=0.1))
        new = write(tmp_path, "new.json", make_doc(wall=0.13))
        assert history_main([old, new, "--gate"]) == 0
        assert history_main([old, new, "--gate", "--band", "0.1"]) == 1

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        doc = write(tmp_path, "a.json", make_doc())
        for argv in ([], ["only-one.json"], [doc, doc, "--band", "x"],
                     [doc, doc, "--band", "0"], [doc, doc, "--frobnicate"]):
            with pytest.raises(SystemExit) as exit_info:
                history_main(argv)
            assert exit_info.value.code == 2
            assert "usage" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            history_main(["--help"])
        assert exit_info.value.code == 0
        assert "--gate" in capsys.readouterr().out

    def test_flags_may_precede_the_documents(self, tmp_path, capsys):
        old = write(tmp_path, "old.json", make_doc(wall=0.1))
        new = write(tmp_path, "new.json", make_doc(wall=0.2))
        assert history_main(["--gate", old, "--band", "0.5", new]) == 1

    def test_invalid_document_exits_two(self, tmp_path, capsys):
        good = write(tmp_path, "good.json", make_doc())
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        assert history_main([good, str(bad)]) == 2
        assert "not a valid bench document" in capsys.readouterr().out
