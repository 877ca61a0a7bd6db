"""Tests for the ``python -m repro`` demo dispatcher."""

import pytest

from repro.__main__ import DEMOS, main
from tests.helpers import run_fresh


class TestDispatch:
    def test_no_arguments_prints_usage(self, capsys):
        assert main([]) == 1
        out = capsys.readouterr().out
        assert "usage:" in out
        for name in DEMOS:
            assert name in out

    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_help_prints_usage_and_exits_zero(self, flag, capsys):
        assert main([flag]) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage:")
        assert "unknown demo" not in out
        for name in DEMOS:
            assert name in out

    def test_help_loads_only_the_entry_point(self):
        # The demos and subcommands import their machinery when they run.
        loaded = run_fresh(
            "import contextlib, io, json, sys\n"
            "from repro.__main__ import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['--help']) == 0\n"
            "print(json.dumps(sorted(name for name in sys.modules\n"
            "                        if name.startswith('repro'))))")
        assert loaded == ["repro", "repro.__main__"]

    def test_unknown_demo(self, capsys):
        assert main(["bogus"]) == 2
        assert "unknown demo" in capsys.readouterr().out

    @pytest.mark.parametrize("name", sorted(DEMOS))
    def test_each_demo_runs(self, name, capsys):
        assert main([name]) == 0
        out = capsys.readouterr().out
        assert f"=== {name} ===" in out
        assert len(out.splitlines()) >= 3

    def test_all_runs_everything(self, capsys):
        assert main(["all"]) == 0
        out = capsys.readouterr().out
        for name in DEMOS:
            assert f"=== {name} ===" in out


class TestSeedFlag:
    def test_seed_changes_fuzz_banner(self, capsys):
        assert main(["--seed", "7", "fuzz"]) == 0
        assert "seed 7" in capsys.readouterr().out

    def test_seed_requires_value(self, capsys):
        assert main(["fuzz", "--seed"]) == 2
        assert "--seed requires a value" in capsys.readouterr().out

    def test_seed_must_be_integer(self, capsys):
        assert main(["--seed", "xyz", "fuzz"]) == 2
        assert "integer" in capsys.readouterr().out


class TestTrace:
    def test_trace_renders_timeline(self, capsys):
        assert main(["trace", "fuzz"]) == 0
        out = capsys.readouterr().out
        assert "=== trace fuzz ===" in out
        assert "span_start" in out
        assert "message bits" in out

    def test_trace_writes_jsonl(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.jsonl"
        assert main(["trace", "fuzz", "--jsonl", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines
        first = json.loads(lines[0])
        assert first["kind"] == "span_start"

    def test_trace_without_demo_fails(self, capsys):
        assert main(["trace"]) == 2
        assert main(["trace", "bogus"]) == 2


class TestTraceFilter:
    def test_filter_narrows_the_timeline(self, capsys):
        assert main(["trace", "chaos", "--filter", "retry,timeout"]) == 0
        out = capsys.readouterr().out
        assert "retry" in out or "timeout" in out
        assert "delta_element" not in out

    def test_filter_requires_value(self, capsys):
        assert main(["trace", "fuzz", "--filter"]) == 2
        assert "--filter requires a value" in capsys.readouterr().out

    def test_usage_mentions_filter(self, capsys):
        main([])
        assert "--filter" in capsys.readouterr().out


class TestMonitorCommand:
    def test_tiny_clean_fleet_exits_zero(self, capsys):
        assert main(["monitor", "--protocols", "srv", "--sites", "3",
                     "--objects", "2", "--batch", "2", "--loss", "0",
                     "--rounds", "1", "--strict-invariants"]) == 0
        out = capsys.readouterr().out
        assert "=== monitor srv" in out
        assert "consistent=True" in out
        assert "all checks passed" in out

    def test_exports_are_written_and_valid(self, tmp_path, capsys):
        prom = tmp_path / "dump.prom"
        otlp = tmp_path / "export.json"
        html = tmp_path / "report.html"
        assert main(["monitor", "--protocols", "srv", "--sites", "3",
                     "--objects", "2", "--batch", "2", "--loss", "0",
                     "--rounds", "1", "--prom", str(prom),
                     "--otlp", str(otlp), "--html", str(html)]) == 0
        capsys.readouterr()
        assert "repro_monitor_convergence_score" in prom.read_text()
        assert html.read_text().startswith("<!DOCTYPE html>")
        # The written OTLP document must satisfy the checked-in schema
        # via the otlp-validate subcommand, exactly as CI consumes it.
        assert main(["otlp-validate", str(otlp)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_unknown_protocol_exits_2(self, capsys):
        assert main(["monitor", "--protocols", "vv"]) == 2
        assert "unknown protocol" in capsys.readouterr().out


class TestTraceStats:
    def test_stats_summarize_a_demo_trace(self, capsys):
        assert main(["trace", "fuzz", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "events across" in out
        assert "events by kind:" in out
        assert "longest spans:" in out
        # The stats view replaces, not appends to, the timeline.
        assert "message bits" not in out

    def test_stats_on_an_exported_jsonl_file(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(["trace", "fuzz", "--jsonl", str(path)]) == 0
        capsys.readouterr()
        assert main(["trace", str(path), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "events across" in out
        assert "span_start" in out

    def test_file_mode_renders_timeline_without_stats(self, tmp_path,
                                                      capsys):
        path = tmp_path / "trace.jsonl"
        assert main(["trace", "fuzz", "--jsonl", str(path)]) == 0
        capsys.readouterr()
        assert main(["trace", str(path)]) == 0
        assert "span_start" in capsys.readouterr().out

    def test_unreadable_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "garbage.jsonl"
        path.write_text("this is not json\n", encoding="utf-8")
        assert main(["trace", str(path), "--stats"]) == 2
        assert "cannot load trace" in capsys.readouterr().out

    def test_non_demo_non_file_still_usage_error(self, capsys):
        assert main(["trace", "bogus", "--stats"]) == 2
        assert "usage:" in capsys.readouterr().out


class TestAnalyzeCommand:
    FLEET = ["analyze", "--fleet", "--protocol", "srv", "--sites", "3",
             "--objects", "2", "--batch", "2", "--loss", "0",
             "--rounds", "2"]

    def test_needs_exactly_one_input(self, capsys):
        assert main(["analyze"]) == 2
        assert "exactly one input" in capsys.readouterr().out

    def test_fleet_analysis_prints_all_sections(self, capsys):
        assert main(self.FLEET) == 0
        out = capsys.readouterr().out
        assert "causal nodes" in out
        assert "converged=yes" in out
        assert "critical path" in out
        assert "attribution" in out

    def test_json_output_is_schema_valid(self, tmp_path, capsys):
        import json
        import pathlib

        out_path = tmp_path / "analysis.json"
        assert main(self.FLEET + ["--json", str(out_path)]) == 0
        capsys.readouterr()
        document = json.loads(out_path.read_text(encoding="utf-8"))
        assert document["schema"] == "repro.obs.causal/1"
        assert document["converged"] is True
        # The checked-in schema file validates it via otlp-validate.
        schema = (pathlib.Path(__file__).resolve().parents[1]
                  / "schemas" / "repro.obs.causal.schema.json")
        assert main(["otlp-validate", str(out_path),
                     "--schema", str(schema)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_html_waterfall_written(self, tmp_path, capsys):
        html = tmp_path / "waterfall.html"
        assert main(self.FLEET + ["--html", str(html)]) == 0
        capsys.readouterr()
        assert html.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")

    def test_file_mode_analyzes_an_exported_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(["trace", "chaos", "--jsonl", str(path)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(path), "--critical-path"]) == 0
        out = capsys.readouterr().out
        assert "causal nodes" in out
        assert "critical path" in out

    def test_missing_file_exits_two(self, capsys):
        assert main(["analyze", "no-such-trace.jsonl"]) == 2
        assert "cannot load trace" in capsys.readouterr().out


class TestSubcommands:
    def test_usage_mentions_the_new_subcommands(self, capsys):
        main([])
        out = capsys.readouterr().out
        assert "analyze" in out
        assert "otlp-validate" in out
        assert "--stats" in out

    def test_retired_history_subcommand_is_gone(self, capsys):
        # `python -m repro.perf.compare --require-same` is the one gate.
        assert main(["history"]) == 2
        assert "unknown demo" in capsys.readouterr().out


class TestOtlpValidateCommand:
    def test_invalid_document_exits_1(self, tmp_path, capsys):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"resourceSpans": []}))
        assert main(["otlp-validate", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_explicit_schema_file(self, tmp_path, capsys):
        import json
        import pathlib

        document = {"resourceSpans": [], "resourceMetrics": []}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(document))
        schema = (pathlib.Path(__file__).resolve().parents[1]
                  / "schemas" / "repro.obs.otlp.schema.json")
        assert main(["otlp-validate", str(path),
                     "--schema", str(schema)]) == 0
        assert "OK" in capsys.readouterr().out
