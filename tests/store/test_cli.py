"""The ``python -m repro store`` entry point."""

import pytest

from repro.__main__ import main as repro_main
from repro.store.cli import DEMO_CONFIG, store_main
from repro.workload.clients import StoreWorkloadConfig, run_store_workload

#: A tiny flag set so CLI tests stay fast.
FAST = ["--sites", "4", "--keys", "6", "--clients", "8", "--ops", "300",
        "--seed", "3"]


class TestStoreMain:
    def test_fast_run_converges_and_reports(self, capsys):
        assert store_main(FAST) == 0
        out = capsys.readouterr().out
        assert "4 sites × 6 keys" in out
        assert "converged: True" in out
        assert "state sha256:" in out

    def test_ops_line_counts_the_reads_repairs_barred(self, capsys):
        store_main(FAST)
        (line,) = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("  ops:")]
        store = run_store_workload(StoreWorkloadConfig(
            n_sites=4, n_keys=6, n_clients=8, ops=300, seed=3)).store
        assert 0 < store.reads_barred <= store.ops_deferred
        assert line.endswith(
            f"({store.ops_deferred} deferred behind busy keys, "
            f"{store.reads_barred} reads barred by repairs)")

    def test_output_is_byte_identical_per_seed(self, capsys):
        store_main(FAST)
        first = capsys.readouterr().out
        store_main(FAST)
        assert capsys.readouterr().out == first

    def test_seed_changes_the_digest(self, capsys):
        store_main(FAST)
        first = capsys.readouterr().out
        store_main(FAST[:-1] + ["4"])
        assert capsys.readouterr().out != first

    def test_chaos_flag_runs_faulted(self, capsys):
        assert store_main(FAST + ["--loss", "0.1"]) == 0
        assert "loss 0.1" in capsys.readouterr().out

    def test_demo_preset_is_sized_for_the_acceptance_run(self):
        assert DEMO_CONFIG.n_sites == 8
        assert DEMO_CONFIG.ops >= 10_000

    @pytest.mark.parametrize("argv", [
        ["--sites"],                 # missing value
        ["--sites", "many"],         # not an integer
        ["--frobnicate"],            # unknown flag
        ["--sites", "1"],            # rejected by config validation
        ["--protocol", "nope"],      # unknown protocol
        ["--visibility-k", "0"],     # rejected by monitor config
        ["--prom"],                  # missing export path
    ])
    def test_bad_arguments_exit_2(self, argv, capsys):
        # argparse exits with usage on stderr; a config the workload
        # itself rejects returns 2 after a "failed" line on stdout.
        try:
            code = store_main(argv)
        except SystemExit as exit_info:
            code = exit_info.code
        assert code == 2
        captured = capsys.readouterr()
        assert "usage" in captured.err or "failed" in captured.out

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            repro_main(["store", "--help"])
        assert exit_info.value.code == 0
        assert "--visibility-k" in capsys.readouterr().out

    def test_dispatch_through_module_main(self, capsys):
        assert repro_main(["store"] + FAST) == 0
        assert "store workload" in capsys.readouterr().out


class TestMonitorFlag:
    def test_monitor_report_section(self, capsys):
        assert store_main(FAST + ["--monitor"]) == 0
        out = capsys.readouterr().out
        assert "consistency observatory" in out
        assert "w_k visibility:" in out
        assert "w_all visibility:" in out
        assert "p999" in out
        assert "session audit:" in out
        assert "replication lag:" in out

    def test_monitor_does_not_change_the_store_report(self, capsys):
        store_main(FAST)
        baseline = capsys.readouterr().out
        store_main(FAST + ["--monitor"])
        monitored = capsys.readouterr().out
        assert monitored.startswith(baseline.rstrip("\n"))

    def test_export_flags_imply_monitoring(self, tmp_path, capsys):
        prom = tmp_path / "store.prom"
        otlp = tmp_path / "store.json"
        html = tmp_path / "store.html"
        digest = tmp_path / "consistency.json"
        trace = tmp_path / "trace.jsonl"
        assert store_main(FAST + ["--prom", str(prom),
                                  "--otlp", str(otlp),
                                  "--html", str(html),
                                  "--consistency", str(digest),
                                  "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "consistency observatory" in out
        assert "repro_consistency_replication_lag" in prom.read_text()
        assert '"resourceMetrics"' in otlp.read_text()
        assert html.read_text().startswith("<!DOCTYPE html>")
        assert '"schema": "repro.obs.consistency/1"' in digest.read_text()
        assert '"kind": "store_op"' in trace.read_text()

    def test_consistency_export_validates_against_the_schema(
            self, tmp_path):
        import json

        from repro.obs.consistency import validate_consistency
        digest = tmp_path / "consistency.json"
        assert store_main(FAST + ["--consistency", str(digest)]) == 0
        with open(digest, "r", encoding="utf-8") as handle:
            assert validate_consistency(json.load(handle)) == []

    def test_strict_flag_aborts_on_violation(self, capsys):
        # Seed 0 at this shape trips the documented union-resurrection
        # case, so strict mode must abort with the ABORTED banner.
        argv = ["--sites", "4", "--keys", "8", "--clients", "16",
                "--ops", "1500", "--seed", "0", "--strict-consistency"]
        assert store_main(argv) == 1
        assert "ABORTED" in capsys.readouterr().out
