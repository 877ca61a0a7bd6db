"""Tests for the cluster benchmark driver and its CLI."""

import dataclasses
import json
import pathlib

import pytest

from repro.__main__ import main as repro_main
from repro.obs.metrics import MetricsRegistry
from repro.net.simulator import to_ns
from repro.net.topology import LinkProfile, TopologySpec
from repro.obs.cli import run_monitored_fleet
from repro.perf.bench import (SCENARIOS, BenchConfig, _run_cell,
                              bench_fingerprint, bench_main,
                              format_bench_table, run_cluster_bench,
                              write_bench)
from repro.perf.schema import SCHEMA_ID, validate_bench, validate_file
from tests.helpers import linked_vectors

#: A deliberately tiny sweep so driver tests stay fast (no batched,
#: chaos, or multi-region scenario; those have their own tests below).
TINY = BenchConfig(site_counts=(4,), rounds=2, updates_per_site=1.0,
                   batched_sizes=(), chaos_loss_rates=(), store_ops=0,
                   topology=None)
#: The batched scenario alone, shrunk.
TINY_BATCHED = BenchConfig(site_counts=(), protocols=(), rounds=2,
                           updates_per_site=1.0, batched_site_count=4,
                           batched_objects=6, batched_sizes=(1, 4),
                           chaos_loss_rates=(), store_ops=0,
                           topology=None)
#: The chaos scenario alone, shrunk.
TINY_CHAOS = BenchConfig(site_counts=(), protocols=("srv",), rounds=2,
                         updates_per_site=1.0, batched_site_count=4,
                         batched_objects=4, batched_sizes=(),
                         chaos_batch_size=4, chaos_loss_rates=(0.05,),
                         store_ops=0, topology=None)
#: The store-workload scenario alone, shrunk.
TINY_STORE = BenchConfig(site_counts=(), protocols=(), rounds=2,
                         batched_sizes=(), chaos_loss_rates=(),
                         store_site_count=4, store_keys=6,
                         store_clients=8, store_ops=400, topology=None)
#: The multi-region sharded scenario alone, shrunk: 2 regions × 4 sites,
#: 12 objects replicated 2-way, 2% WAN loss.
TINY_MULTIREGION = BenchConfig(
    site_counts=(), protocols=(), rounds=2, updates_per_site=1.0,
    batched_sizes=(), chaos_loss_rates=(), store_ops=0,
    topology=TopologySpec.grid(
        2, 4,
        inter=LinkProfile(latency=0.01, bandwidth=500_000.0, loss=0.02),
        replication=2, chaos_seed=11),
    mr_objects=12, mr_rounds=2, mr_batch_size=4)


class TestRunClusterBench:
    def test_document_is_schema_valid(self):
        document = run_cluster_bench(TINY)
        assert document["schema"] == SCHEMA_ID
        assert validate_bench(document) == []
        assert len(document["runs"]) == 3  # one per protocol

    def test_runs_cover_the_requested_grid(self):
        config = BenchConfig(site_counts=(4, 6), protocols=("srv",),
                             rounds=2, batched_sizes=(),
                             chaos_loss_rates=(), store_ops=0,
                             topology=None)
        document = run_cluster_bench(config)
        grid = [(r["protocol"], r["n_sites"]) for r in document["runs"]]
        assert grid == [("srv", 4), ("srv", 6)]

    def test_config_is_embedded(self):
        document = run_cluster_bench(TINY)
        assert document["config"]["rounds"] == TINY.rounds
        assert tuple(document["config"]["site_counts"]) == TINY.site_counts

    def test_deterministic_measurements(self):
        first = run_cluster_bench(TINY)
        second = run_cluster_bench(TINY)
        stable = ("total_bits", "sessions", "reconciliations",
                  "sim_completion_seconds", "bits_per_session")
        for run_a, run_b in zip(first["runs"], second["runs"]):
            for key in stable:
                assert run_a[key] == run_b[key]

    def test_brv_runs_conflict_free(self):
        document = run_cluster_bench(TINY)
        brv = next(r for r in document["runs"] if r["protocol"] == "brv")
        assert brv["scenario"] == "single-writer-gossip"
        assert brv["reconciliations"] == 0

    def test_paired_replay_is_checked(self):
        # paired=True is the default; a run that completes has passed the
        # concurrent-equals-sequential accounting assertion.
        document = run_cluster_bench(TINY)
        assert all(run["consistent"] in (True, False)
                   for run in document["runs"])

    def test_every_run_moves_bits_in_simulated_time(self):
        """Gossip rounds are not meant to converge, so ``consistent`` is
        pinned only on the runs a closing sweep converges."""
        swept = [run for config in (TINY_STORE, TINY_MULTIREGION)
                 for run in run_cluster_bench(config)["runs"]]
        assert len(swept) == 2
        for run in run_cluster_bench(TINY)["runs"] + swept:
            assert run["total_bits"] > 0
            assert run["sim_completion_seconds"] > 0
        assert all(run["consistent"] is True for run in swept)

    def test_metrics_are_populated(self):
        metrics = MetricsRegistry()
        run_cluster_bench(BenchConfig(site_counts=(4,), protocols=("srv",),
                                      rounds=2, batched_sizes=(),
                                      chaos_loss_rates=(), store_ops=0,
                                      topology=None),
                          metrics=metrics)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["cluster.srv.sessions"] == 8
        assert not any("wall_seconds" in name
                       for name in snapshot["histograms"])


class TestBatchedScenario:
    def test_batched_runs_carry_their_extra_fields(self):
        document = run_cluster_bench(TINY_BATCHED)
        assert validate_bench(document) == []
        runs = document["runs"]
        assert [run["batch_size"] for run in runs] == [1, 4]
        for run in runs:
            assert run["scenario"] == "batched-many-objects"
            assert run["n_objects"] == 6
            assert run["wire_bits_per_object"] > 0
        assert runs[0]["traffic"]["frames"] == 0
        assert runs[1]["traffic"]["frames"] > 0
        assert runs[1]["total_bits"] < runs[0]["total_bits"]

    def test_framing_halves_the_wire_bits_per_object(self):
        # Same fleet and schedule: framing pays one header per pair
        # encounter and one ack per frame instead of one per object.
        unbatched, batched = run_cluster_bench(TINY_BATCHED)["runs"]
        assert unbatched["sessions"] == batched["sessions"]
        assert batched["wire_bits_per_object"] \
            < unbatched["wire_bits_per_object"] / 2

    def test_empty_batched_sizes_skips_the_scenario(self):
        document = run_cluster_bench(TINY)
        assert all(run["scenario"] != "batched-many-objects"
                   for run in document["runs"])


class TestChaosScenario:
    def test_chaos_runs_carry_reliability_fields(self):
        document = run_cluster_bench(TINY_CHAOS)
        assert validate_bench(document) == []
        (run,) = document["runs"]
        assert run["scenario"] == "chaos-loss"
        assert run["loss_rate"] == 0.05
        assert run["chaos_seed"] == TINY_CHAOS.chaos_seed
        assert run["goodput_bits"] + run["retransmitted_bits"] \
            == run["total_bits"]
        assert run["goodput_overhead_pct"] >= 0.0

    def test_chaos_cells_are_deterministic(self):
        first = run_cluster_bench(TINY_CHAOS)
        second = run_cluster_bench(TINY_CHAOS)
        stable = ("total_bits", "goodput_bits", "retransmitted_bits",
                  "retries", "timeouts", "resumes")
        for run_a, run_b in zip(first["runs"], second["runs"]):
            for key in stable:
                assert run_a[key] == run_b[key]

    def test_no_chaos_flag_skips_the_scenario(self, tmp_path, capsys):
        out = str(tmp_path / "bench.json")
        assert bench_main(["--sites", "4", "--rounds", "2",
                           "--protocols", "srv", "--no-chaos",
                           "--no-store", "--no-multiregion", "--out", out]) == 0
        with open(out) as handle:
            document = json.load(handle)
        assert all(run["scenario"] != "chaos-loss"
                   for run in document["runs"])
        capsys.readouterr()


class TestStoreScenario:
    def test_store_run_carries_client_fields(self):
        document = run_cluster_bench(TINY_STORE)
        assert validate_bench(document) == []
        (run,) = document["runs"]
        assert run["scenario"] == "store-workload"
        assert run["n_sites"] == TINY_STORE.store_site_count
        assert run["n_objects"] == TINY_STORE.store_keys
        assert run["consistent"] is True
        client = run["client"]
        assert client["ops"] == TINY_STORE.store_ops
        assert (client["reads"] + client["writes"] + client["deletes"]
                == client["ops"])
        for summary in ("get_latency_seconds", "put_latency_seconds",
                        "staleness_seconds"):
            for percentile in ("p50", "p90", "p99"):
                assert client[summary][percentile] >= 0.0

    def test_store_cells_are_deterministic(self):
        first = run_cluster_bench(TINY_STORE)
        second = run_cluster_bench(TINY_STORE)
        assert bench_fingerprint(first) == bench_fingerprint(second)

    def test_backends_fingerprint_identically(self):
        # The linked-list classes are the array vectors' oracle: the same
        # sweep over either must carry identical bits, sim times, and
        # fingerprints, store cell included.
        config = dataclasses.replace(
            TINY, store_site_count=4, store_keys=6, store_clients=8,
            store_ops=400)
        array_doc = run_cluster_bench(config)
        with linked_vectors():
            linked_doc = run_cluster_bench(config)
        assert "backend" not in array_doc["config"]
        for array_run, linked_run in zip(array_doc["runs"],
                                         linked_doc["runs"]):
            assert array_run["total_bits"] == linked_run["total_bits"]
            assert (array_run["sim_completion_seconds"]
                    == linked_run["sim_completion_seconds"])
        assert bench_fingerprint(array_doc) == bench_fingerprint(linked_doc)

    def test_zero_ops_skips_the_scenario(self):
        document = run_cluster_bench(TINY)
        assert all(run["scenario"] != "store-workload"
                   for run in document["runs"])

    def test_store_parallel_matches_serial(self):
        config = BenchConfig(site_counts=(4,), protocols=("srv",),
                             rounds=2, batched_sizes=(),
                             chaos_loss_rates=(), store_site_count=4,
                             store_keys=6, store_clients=8, store_ops=400,
                             topology=None)
        serial = run_cluster_bench(config)
        parallel = run_cluster_bench(config, workers=2)
        assert bench_fingerprint(serial) == bench_fingerprint(parallel)

    def test_analyzed_store_cell_has_critical_path(self):
        document = run_cluster_bench(TINY_STORE, analyze=True)
        assert validate_bench(document) == []
        (run,) = document["runs"]
        assert run["critical_path_seconds"] >= 0.0

    def test_monitored_store_cell_carries_the_consistency_digest(self):
        # The live health monitor's oracle assumes whole-state sessions,
        # so the per-key store cell opts out of health scoring — but a
        # monitored sweep attaches the consistency observatory instead.
        document = run_cluster_bench(TINY_STORE, monitor=True)
        assert validate_bench(document) == []
        (run,) = document["runs"]
        assert "health" not in run
        consistency = run["consistency"]
        assert consistency["schema"] == "repro.obs.consistency/1"
        assert (consistency["writes_tracked"]
                == run["client"]["writes"] + run["client"]["deletes"])
        assert consistency["audit"]["ops_audited"] == run["client"]["ops"]

    def test_unmonitored_store_cell_has_no_consistency_block(self):
        document = run_cluster_bench(TINY_STORE)
        (run,) = document["runs"]
        assert "consistency" not in run

    def test_monitored_store_cells_are_deterministic(self):
        first = run_cluster_bench(TINY_STORE,
                                  monitor=True)
        second = run_cluster_bench(TINY_STORE,
                                   monitor=True)
        assert bench_fingerprint(first) == bench_fingerprint(second)

    def test_monitor_does_not_perturb_the_store_fingerprint(self):
        # The observatory observes; the default document's bits must be
        # reproducible with the monitor attached once its own fields
        # are masked out.
        baseline = run_cluster_bench(TINY_STORE)
        monitored = run_cluster_bench(TINY_STORE,
                                      monitor=True)
        stripped = json.loads(json.dumps(monitored))
        for run in stripped["runs"]:
            run.pop("consistency", None)
        assert bench_fingerprint(stripped) == bench_fingerprint(baseline)

    def test_store_ops_flag_sizes_the_cell(self, tmp_path, capsys):
        out = str(tmp_path / "bench.json")
        assert bench_main(["--sites", "4", "--rounds", "2",
                           "--protocols", "srv", "--no-chaos",
                           "--store-ops", "300", "--no-multiregion",
                           "--out", out]) == 0
        with open(out) as handle:
            document = json.load(handle)
        (run,) = [r for r in document["runs"]
                  if r["scenario"] == "store-workload"]
        assert run["client"]["ops"] == 300
        capsys.readouterr()

    def test_no_store_flag_skips_the_scenario(self, tmp_path, capsys):
        out = str(tmp_path / "bench.json")
        assert bench_main(["--sites", "4", "--rounds", "2",
                           "--protocols", "srv", "--no-chaos",
                           "--no-store", "--no-multiregion", "--out", out]) == 0
        with open(out) as handle:
            document = json.load(handle)
        assert all(run["scenario"] != "store-workload"
                   for run in document["runs"])
        capsys.readouterr()


class TestMultiRegionScenario:
    def test_record_carries_fleet_and_shard_fields(self):
        document = run_cluster_bench(TINY_MULTIREGION)
        assert validate_bench(document) == []
        (run,) = document["runs"]
        assert run["scenario"] == "multi-region-sharded"
        assert run["protocol"] == "srv"
        assert run["n_sites"] == 8
        assert run["n_objects"] == TINY_MULTIREGION.mr_objects
        assert run["regions"] == 2
        assert run["replication"] == 2
        assert run["shard_groups"] >= 1
        assert run["shard_load"]["max"] >= run["shard_load"]["min"]
        assert run["loss_rate"] == 0.02
        assert run["goodput_bits"] + run["retransmitted_bits"] \
            == run["total_bits"]

    def test_cell_converges_and_is_always_monitored(self):
        # The closing sweep makes convergence structural, and the health
        # digest (per-region scores, shard load) rides along even
        # without the --monitor opt-in — it is the scenario's point.
        document = run_cluster_bench(TINY_MULTIREGION)
        (run,) = document["runs"]
        assert run["consistent"] is True
        assert run["invariant_violations"] == 0
        health = run["health"]
        assert health["min_final_score"] == 1.0
        assert set(health["per_region"]) == {"r0", "r1"}
        for stats in health["per_region"].values():
            assert stats["sites"] == 4
            assert stats["min_final_score"] == 1.0
        assert health["shards"]["objects"] == TINY_MULTIREGION.mr_objects

    def test_cells_are_deterministic(self):
        first = run_cluster_bench(TINY_MULTIREGION)
        second = run_cluster_bench(TINY_MULTIREGION)
        assert bench_fingerprint(first) == bench_fingerprint(second)
        assert first["runs"][0]["health"] == second["runs"][0]["health"]

    def test_no_topology_skips_the_scenario(self):
        document = run_cluster_bench(TINY)
        assert all(run["scenario"] != "multi-region-sharded"
                   for run in document["runs"])

    def test_parallel_matches_serial(self):
        serial = run_cluster_bench(TINY_MULTIREGION)
        parallel = run_cluster_bench(TINY_MULTIREGION,
                                     workers=2)
        assert bench_fingerprint(serial) == bench_fingerprint(parallel)

    def test_topology_is_embedded_in_the_document(self):
        document = run_cluster_bench(TINY_MULTIREGION)
        embedded = document["config"]["topology"]
        assert [region["name"] for region in embedded["regions"]] \
            == ["r0", "r1"]
        assert embedded["replication"] == 2
        assert embedded["inter"]["loss"] == 0.02

    def test_no_multiregion_flag_skips_the_scenario(self, tmp_path,
                                                    capsys):
        out = str(tmp_path / "bench.json")
        assert bench_main(["--sites", "4", "--rounds", "2",
                           "--protocols", "srv", "--no-chaos",
                           "--no-store", "--no-multiregion",
                           "--out", out]) == 0
        with open(out) as handle:
            document = json.load(handle)
        assert document["config"]["topology"] is None
        assert all(run["scenario"] != "multi-region-sharded"
                   for run in document["runs"])
        capsys.readouterr()

    def test_default_cli_includes_the_scenario(self, tmp_path, capsys):
        out = str(tmp_path / "bench.json")
        assert bench_main(["--sites", "4", "--rounds", "2",
                           "--protocols", "srv", "--no-chaos",
                           "--no-store", "--out", out]) == 0
        with open(out) as handle:
            document = json.load(handle)
        (run,) = [r for r in document["runs"]
                  if r["scenario"] == "multi-region-sharded"]
        assert run["n_sites"] == 48
        assert run["consistent"] is True
        capsys.readouterr()


class TestParallelDriver:
    def test_worker_fanout_is_an_accounting_noop(self):
        serial = run_cluster_bench(TINY_BATCHED)
        parallel = run_cluster_bench(TINY_BATCHED,
                                     workers=2)
        assert bench_fingerprint(serial) == bench_fingerprint(parallel)

    def test_parallel_metrics_merge_matches_serial(self):
        config = BenchConfig(site_counts=(4,), protocols=("crv", "srv"),
                             rounds=2, batched_sizes=(), store_ops=0,
                             topology=None)
        serial_metrics = MetricsRegistry()
        run_cluster_bench(config, metrics=serial_metrics)
        parallel_metrics = MetricsRegistry()
        run_cluster_bench(config, metrics=parallel_metrics, workers=2)
        serial_snap = serial_metrics.snapshot()
        parallel_snap = parallel_metrics.snapshot()
        assert serial_snap == parallel_snap

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_cluster_bench(TINY, workers=0)


class TestAnalyzedBench:
    def test_analyze_adds_critical_path_fields(self):
        document = run_cluster_bench(TINY, analyze=True)
        assert validate_bench(document) == []
        for run in document["runs"]:
            assert run["critical_path_seconds"] >= 0.0
            assert run["critical_path_hops"] >= 0
            total = sum(map(to_ns,
                            run["critical_path_attribution"].values()))
            assert total == to_ns(run["critical_path_seconds"])

    def test_default_runs_stay_unanalyzed(self):
        document = run_cluster_bench(TINY)
        assert all("critical_path_seconds" not in run
                   for run in document["runs"])

    def test_observation_does_not_perturb_results(self):
        plain = run_cluster_bench(TINY)
        analyzed = run_cluster_bench(TINY, analyze=True)
        assert bench_fingerprint(plain) != bench_fingerprint(analyzed)
        for run_a, run_b in zip(plain["runs"], analyzed["runs"]):
            for key in ("total_bits", "sessions", "traffic",
                        "sim_completion_seconds", "bits_per_session"):
                assert run_a[key] == run_b[key]

    def test_cli_flag(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert bench_main(["--sites", "4", "--protocols", "srv",
                           "--rounds", "2", "--no-chaos", "--no-store", "--no-multiregion",
                           "--analyze", "--out", str(out)]) == 0
        capsys.readouterr()
        document = json.loads(out.read_text(encoding="utf-8"))
        assert all("critical_path_seconds" in run
                   for run in document["runs"])


class TestBenchFingerprint:
    def test_hashes_the_whole_document(self):
        document = run_cluster_bench(TINY)
        reference = bench_fingerprint(document)
        assert bench_fingerprint(json.loads(json.dumps(document))) \
            == reference
        for mutate in (lambda doc: doc["config"].update(backend="array"),
                       lambda doc: doc["runs"][0].update(
                           sim_completion_seconds=99.0),
                       lambda doc: doc["runs"][0].update(
                           total_bits=doc["runs"][0]["total_bits"] + 1)):
            moved = json.loads(json.dumps(document))
            mutate(moved)
            assert bench_fingerprint(moved) != reference

    def test_document_carries_no_host_time(self):
        document = run_cluster_bench(TINY)
        assert "created_unix" not in document
        assert all("wall_seconds" not in run for run in document["runs"])


class TestWriteBench:
    def test_written_file_validates(self, tmp_path):
        path = str(tmp_path / "BENCH_cluster.json")
        document = run_cluster_bench(TINY)
        assert write_bench(document, path) == path
        assert validate_file(path) == []

    def test_output_is_stable_json(self, tmp_path):
        path = tmp_path / "bench.json"
        write_bench(run_cluster_bench(TINY), str(path))
        text = path.read_text()
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert list(parsed) == sorted(parsed)  # sort_keys for clean diffs


class TestFormatBenchTable:
    def test_one_row_per_run(self):
        document = run_cluster_bench(TINY)
        table = format_bench_table(document)
        lines = table.splitlines()
        assert len(lines) == 2 + len(document["runs"])
        assert "protocol" in lines[0]
        assert any("srv" in line for line in lines[2:])


class TestBenchCli:
    def test_bench_writes_and_reports(self, tmp_path, capsys):
        out = str(tmp_path / "BENCH_cluster.json")
        assert bench_main(["--sites", "4", "--rounds", "2",
                           "--store-ops", "300", "--no-multiregion",
                           "--out", out]) == 0
        assert validate_file(out) == []
        stdout = capsys.readouterr().out
        assert "wrote" in stdout and SCHEMA_ID in stdout

    def test_protocol_subset(self, tmp_path, capsys):
        out = str(tmp_path / "bench.json")
        assert bench_main(["--sites", "4", "--rounds", "2",
                           "--protocols", "srv", "--no-store",
                           "--no-multiregion", "--out", out]) == 0
        with open(out) as handle:
            document = json.load(handle)
        gossip = [r["protocol"] for r in document["runs"]
                  if r["scenario"] == "multi-writer-gossip"]
        assert gossip == ["srv"]
        chaos = {r["protocol"] for r in document["runs"]
                 if r["scenario"] == "chaos-loss"}
        assert chaos == {"srv"}

    def test_workers_flag(self, tmp_path, capsys):
        out = str(tmp_path / "bench.json")
        assert bench_main(["--sites", "4", "--rounds", "2",
                           "--protocols", "srv", "--workers", "2",
                           "--no-store", "--no-multiregion", "--out", out]) == 0
        assert validate_file(out) == []

    def test_serial_and_parallel_write_the_same_bytes(self, tmp_path,
                                                      capsys):
        argv = ["--sites", "4", "--rounds", "2", "--protocols", "srv",
                "--chaos-loss", "0.05", "--store-ops", "300",
                "--no-multiregion"]
        serial, parallel = tmp_path / "serial.json", tmp_path / "par.json"
        assert bench_main(argv + ["--out", str(serial)]) == 0
        assert bench_main(argv + ["--workers", "2",
                                  "--out", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["--sites"],                       # missing value
        ["--sites", "four"],               # not an integer
        ["--sites", "1"],                  # below minimum
        ["--rounds", "two"],
        ["--protocols", "vv"],
        ["--workers", "zero"],             # not an integer
        ["--workers", "0"],                # below minimum
        ["--chaos-loss", "1.5"],           # not a probability
        ["--store-ops", "-1"],             # below minimum
        ["--frobnicate"],                  # unknown flag
        ["--backend", "linked"],           # retired: one representation
        ["--profile"],                     # retired: bench/ owns host time
        ["--sites", "8,8"],                # repeated run identity
        ["--protocols", "srv,srv"],
        ["--chaos-loss", "0.1,0.1"],
    ])
    def test_bad_arguments_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            bench_main(argv)
        assert exit_info.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            repro_main(["bench", "--help"])
        assert exit_info.value.code == 0
        assert "--chaos-loss" in capsys.readouterr().out

    def test_dispatch_through_module_main(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert repro_main(["bench", "--sites", "4", "--rounds", "2",
                           "--no-store", "--no-multiregion"]) == 0
        assert (tmp_path / "BENCH_cluster.json").exists()
        capsys.readouterr()


class TestMonitoredBench:
    def test_monitored_runs_carry_health_fields(self):
        document = run_cluster_bench(TINY, monitor=True)
        assert validate_bench(document) == []
        for run in document["runs"]:
            assert run["invariant_violations"] == 0
            health = run["health"]
            assert health["sites"] == run["n_sites"]
            assert health["sessions_checked"] == run["sessions"]
            assert health["samples"] > 0
            assert len(health["final_scores"]) == run["n_sites"]

    def test_default_runs_stay_unmonitored(self):
        document = run_cluster_bench(TINY)
        for run in document["runs"]:
            assert "invariant_violations" not in run
            assert "health" not in run

    def test_monitor_does_not_move_measurements(self):
        # The monitor is an observer: deterministic fields must be
        # byte-identical with and without it.
        bare = run_cluster_bench(TINY)
        watched = run_cluster_bench(TINY, monitor=True)
        stable = ("total_bits", "sessions", "reconciliations",
                  "sim_completion_seconds", "traffic")
        for run_a, run_b in zip(bare["runs"], watched["runs"]):
            for key in stable:
                assert run_a[key] == run_b[key]

    def test_monitored_chaos_cells_pass_their_checkers(self):
        document = run_cluster_bench(TINY_CHAOS, monitor=True)
        assert validate_bench(document) == []
        for run in document["runs"]:
            assert run["invariant_violations"] == 0

    def test_monitor_flag_via_cli(self, tmp_path):
        out = str(tmp_path / "bench.json")
        assert bench_main(["--sites", "4", "--rounds", "2",
                           "--protocols", "srv", "--no-chaos",
                           "--no-store", "--no-multiregion",
                           "--monitor", "--out", out]) == 0
        with open(out) as handle:
            document = json.load(handle)
        assert validate_bench(document) == []
        assert all("health" in run for run in document["runs"])

    def test_monitored_parallel_matches_serial(self):
        serial = run_cluster_bench(TINY_BATCHED,
                                   monitor=True)
        parallel = run_cluster_bench(TINY_BATCHED,
                                     monitor=True, workers=2)
        assert bench_fingerprint(serial) == bench_fingerprint(parallel)
        for run_a, run_b in zip(serial["runs"], parallel["runs"]):
            assert run_a["health"] == run_b["health"]


#: Fields every record carries, whatever its scenario.
COMMON_KEYS = {
    "scenario", "protocol", "n_sites", "sessions", "updates",
    "updates_deferred", "reconciliations", "total_bits", "traffic",
    "bits_per_session", "sim_completion_seconds",
    "max_queue_wait_seconds", "consistent"}
GOODPUT_KEYS = {"goodput_bits", "retransmitted_bits", "retries", "timeouts",
                "resumes", "goodput_overhead_pct"}
HEALTH_KEYS = {"invariant_violations", "health"}
ANALYZE_KEYS = {"critical_path_seconds", "critical_path_hops",
                "critical_path_attribution"}


class TestScenarioTable:
    """One ``_run_cell`` over five rows: each row's record keeps exactly
    the key set its hand-written cell function emitted."""

    @pytest.mark.parametrize("task, config, own, observer", [
        (("gossip", "brv", 4), TINY, set(), HEALTH_KEYS),
        (("batched", 4), TINY_BATCHED,
         {"n_objects", "batch_size", "wire_bits_per_object"}, HEALTH_KEYS),
        (("chaos", "srv", 0.05), TINY_CHAOS,
         {"n_objects", "batch_size", "loss_rate", "chaos_seed"}
         | GOODPUT_KEYS, HEALTH_KEYS),
        (("store",), TINY_STORE, {"n_objects", "batch_size", "client"},
         {"consistency"}),
        (("multiregion",), TINY_MULTIREGION,
         {"n_objects", "batch_size", "regions", "replication",
          "shard_groups", "shard_load", "loss_rate", "chaos_seed",
          "skipped_sessions"} | GOODPUT_KEYS | HEALTH_KEYS, set()),
    ], ids=["gossip", "batched", "chaos", "store", "multiregion"])
    def test_record_key_sets(self, task, config, own, observer):
        record, _metrics = _run_cell(task[0], task[1:], config)
        assert set(record) == COMMON_KEYS | own
        record, _metrics = _run_cell(task[0], task[1:], config,
                                     monitor=True, analyze=True)
        assert set(record) == COMMON_KEYS | own | observer | ANALYZE_KEYS

    @pytest.mark.parametrize("config", [TINY, TINY_BATCHED, TINY_CHAOS,
                                        TINY_STORE, TINY_MULTIREGION],
                             ids=["gossip", "batched", "chaos", "store",
                                  "multiregion"])
    def test_monitored_analyzed_sweep_validates(self, config):
        document = run_cluster_bench(config, monitor=True, analyze=True)
        assert validate_bench(document) == []
        for run in document["runs"]:
            assert "critical_path_attribution" in run
            assert "health" in run or "consistency" in run

    def test_grid_order_is_the_table_order(self):
        config = BenchConfig(site_counts=(4,), protocols=("crv", "srv"))
        document_order = [name for name, scenario in SCENARIOS.items()
                          for _ in scenario.grid(config)]
        assert document_order == (["gossip"] * 2 + ["batched"] * 2
                                  + ["chaos"] * 4 + ["store", "multiregion"])

    @pytest.mark.parametrize("loss", [0.01, 0.1])
    def test_monitor_fleet_is_the_committed_chaos_cell(self, loss):
        # `repro monitor` / `repro analyze --fleet` build their fleet
        # from the chaos row: without the converge sweep they move
        # exactly the bits BENCH_cluster.json records for that cell.
        root = pathlib.Path(__file__).resolve().parents[2]
        with open(root / "BENCH_cluster.json", encoding="utf-8") as handle:
            committed = json.load(handle)
        (cell,) = [run for run in committed["runs"]
                   if (run["scenario"], run["protocol"],
                       run.get("loss_rate")) == ("chaos-loss", "srv", loss)]
        _monitor, _runner, result = run_monitored_fleet(
            "srv", loss=loss, converge_sweep=False)
        assert result.total_bits == cell["total_bits"]
        assert result.sessions == cell["sessions"]
        assert result.completion_time == cell["sim_completion_seconds"]
