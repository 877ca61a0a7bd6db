"""Tests for the BENCH_cluster.json schema validator."""

import copy
import json
import pathlib

from repro.perf.schema import (BENCH_SCHEMA, SCHEMA_ID, main, validate_bench,
                               validate_file)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

VALID_RUN = {
    "scenario": "multi-writer-gossip",
    "protocol": "srv",
    "n_sites": 8,
    "sessions": 24,
    "updates": 16,
    "updates_deferred": 0,
    "reconciliations": 3,
    "total_bits": 4242,
    "traffic": {
        "forward_bits": 4000, "backward_bits": 242, "total_bits": 4242,
        "forward_messages": 30, "backward_messages": 12,
        "by_type": {"forward": {"Element": 30}, "backward": {"Halt": 12}},
    },
    "bits_per_session": {"mean": 176.75, "p50": 170, "p90": 220, "max": 260},
    "sim_completion_seconds": 4.25,
    "max_queue_wait_seconds": 0.01,
    "consistent": True,
}

VALID_DOC = {
    "schema": SCHEMA_ID,
    "config": {"rounds": 3},
    "runs": [VALID_RUN],
}


def doc_with(**run_overrides):
    doc = copy.deepcopy(VALID_DOC)
    doc["runs"][0].update(run_overrides)
    return doc


class TestValidateBench:
    def test_valid_document_passes(self):
        assert validate_bench(VALID_DOC) == []

    def test_non_object_document(self):
        assert validate_bench([1, 2]) \
            == ["$: expected object, got list"]

    def test_wrong_schema_id(self):
        doc = dict(VALID_DOC, schema="repro.bench.cluster/0")
        assert any(".schema:" in e for e in validate_bench(doc))

    def test_missing_runs(self):
        doc = dict(VALID_DOC, runs=[])
        assert any("non-empty" in e for e in validate_bench(doc))

    def test_unknown_protocol(self):
        errors = validate_bench(doc_with(protocol="vv"))
        assert any(".protocol:" in e for e in errors)

    def test_missing_count_field(self):
        doc = doc_with()
        del doc["runs"][0]["total_bits"]
        assert any("total_bits" in e for e in validate_bench(doc))

    def test_float_where_integer_required(self):
        errors = validate_bench(doc_with(sessions=24.5))
        assert any("sessions" in e and "expected integer" in e
                   for e in errors)

    def test_negative_seconds(self):
        errors = validate_bench(doc_with(sim_completion_seconds=-0.1))
        assert any("sim_completion_seconds" in e and "< minimum 0" in e
                   for e in errors)

    def test_bool_is_not_a_number(self):
        errors = validate_bench(doc_with(total_bits=True))
        assert any("total_bits" in e for e in errors)

    def test_total_bits_cross_check(self):
        errors = validate_bench(doc_with(total_bits=1))
        assert any("disagrees" in e for e in errors)

    def test_missing_consistent_flag(self):
        doc = doc_with()
        del doc["runs"][0]["consistent"]
        assert any("consistent" in e for e in validate_bench(doc))

    def test_missing_traffic_by_type(self):
        doc = doc_with()
        del doc["runs"][0]["traffic"]["by_type"]
        assert any("by_type" in e for e in validate_bench(doc))

    def test_runs_sharing_an_identity_are_reported(self):
        doc = copy.deepcopy(VALID_DOC)
        doc["runs"] = [VALID_RUN, VALID_RUN, dict(VALID_RUN, n_sites=16)]
        (error,) = validate_bench(doc)
        assert error.startswith("$.runs[1]: same identity as $.runs[0]")
        assert "multi-writer-gossip" in error

    def test_unhashable_identity_field_is_reported_not_raised(self):
        errors = validate_bench(doc_with(n_objects=[6]))
        assert any("n_objects" in e for e in errors)

    def test_chaos_runs_differing_in_loss_are_distinct(self):
        chaos = dict(VALID_RUN, scenario="chaos-loss", loss_rate=0.01,
                     chaos_seed=11)
        doc = dict(VALID_DOC, runs=[chaos, dict(chaos, loss_rate=0.1)])
        assert validate_bench(doc) == []

    def test_all_errors_reported_at_once(self):
        doc = doc_with(protocol="vv", total_bits=-1, consistent="yes")
        assert len(validate_bench(doc)) >= 3


class TestValidateFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(VALID_DOC))
        assert validate_file(str(path)) == []

    def test_unreadable_file(self, tmp_path):
        errors = validate_file(str(tmp_path / "missing.json"))
        assert errors and "cannot read" in errors[0]

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        errors = validate_file(str(path))
        assert errors and "cannot read" in errors[0]


class TestCli:
    def test_ok_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(VALID_DOC))
        assert main([str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_invalid_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(dict(VALID_DOC, runs=[])))
        assert main([str(path)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_no_arguments(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out


HEALTH = {
    "samples": 18, "sites": 8, "invariant_violations": 0,
    "sessions_checked": 24,
    "final_scores": {"S000": 1.0, "S001": 0.9},
    "min_final_score": 0.9, "mean_final_score": 0.95,
}


CLIENT = {
    "ops": 400, "reads": 360, "writes": 31, "deletes": 9,
    "read_repairs": 12, "sessions_abandoned": 0,
    "get_latency_seconds": {"p50": 0.01, "p90": 0.02, "p99": 0.05},
    "put_latency_seconds": {"p50": 0.01, "p90": 0.03, "p99": 0.06},
    "staleness_seconds": {"p50": 0.08, "p90": 0.2, "p99": 0.4},
}


class TestClientRunFields:
    def test_valid_client_block(self):
        doc = doc_with(scenario="store-workload",
                       client=copy.deepcopy(CLIENT))
        assert validate_bench(doc) == []

    def test_client_must_be_an_object(self):
        errors = validate_bench(doc_with(client=7))
        assert any(".client: expected object" in e for e in errors)

    def test_non_integer_count_rejected(self):
        client = dict(copy.deepcopy(CLIENT), read_repairs=1.5)
        errors = validate_bench(doc_with(client=client))
        assert any("read_repairs" in e and "expected integer" in e
                   for e in errors)

    def test_op_mix_must_add_up(self):
        client = dict(copy.deepcopy(CLIENT), reads=359)
        errors = validate_bench(doc_with(client=client))
        assert any("must equal ops" in e for e in errors)

    def test_missing_percentile_map_rejected(self):
        client = {k: v for k, v in copy.deepcopy(CLIENT).items()
                  if k != "staleness_seconds"}
        errors = validate_bench(doc_with(client=client))
        assert any("staleness_seconds" in e for e in errors)

    def test_percentiles_must_be_numbers(self):
        client = copy.deepcopy(CLIENT)
        client["get_latency_seconds"]["p99"] = "slow"
        errors = validate_bench(doc_with(client=client))
        assert any("get_latency_seconds" in e and "p99" in e
                   for e in errors)


class TestMonitoredRunFields:
    def test_valid_monitored_run(self):
        doc = doc_with(invariant_violations=0,
                       health=copy.deepcopy(HEALTH))
        assert validate_bench(doc) == []

    def test_negative_violation_count_rejected(self):
        errors = validate_bench(doc_with(invariant_violations=-1))
        assert any("invariant_violations" in e for e in errors)

    def test_health_must_be_an_object(self):
        errors = validate_bench(doc_with(health=7))
        assert any(".health: expected object" in e for e in errors)

    def test_health_missing_scores_rejected(self):
        health = {k: v for k, v in HEALTH.items() if k != "final_scores"}
        errors = validate_bench(doc_with(health=health))
        assert any("final_scores" in e for e in errors)

    def test_run_and_health_counts_must_agree(self):
        health = dict(copy.deepcopy(HEALTH), invariant_violations=3)
        errors = validate_bench(doc_with(invariant_violations=0,
                                         health=health))
        assert any("disagrees with" in e for e in errors)


def _consistency_block():
    """A minimal valid consistency digest, matching the live shape."""
    from repro.obs.consistency import ConsistencyMonitor
    from repro.workload.clients import (StoreWorkloadConfig,
                                        run_store_workload)
    monitor = ConsistencyMonitor()
    result = run_store_workload(
        StoreWorkloadConfig(n_sites=3, n_keys=4, n_clients=4, ops=120,
                            seed=5),
        monitor=monitor)
    return result.consistency


class TestConsistencyRunFields:
    def test_p999_validated_when_present(self):
        client = copy.deepcopy(CLIENT)
        client["get_latency_seconds"]["p999"] = 0.09
        assert validate_bench(doc_with(client=client)) == []
        client["get_latency_seconds"]["p999"] = "slow"
        errors = validate_bench(doc_with(client=client))
        assert any("p999" in e for e in errors)

    def test_p999_not_required(self):
        # Committed baselines predate p999; they must stay valid.
        assert validate_bench(doc_with(client=copy.deepcopy(CLIENT))) == []

    def test_live_consistency_block_passes(self):
        doc = doc_with(scenario="store-workload",
                       client=copy.deepcopy(CLIENT),
                       consistency=_consistency_block())
        assert validate_bench(doc) == []

    def test_consistency_must_be_an_object(self):
        errors = validate_bench(doc_with(consistency=7))
        assert any(".consistency: expected object" in e for e in errors)

    def test_broken_consistency_block_is_rerooted(self):
        block = _consistency_block()
        block.pop("w_all_seconds")
        errors = validate_bench(doc_with(consistency=block))
        assert any(e.startswith("$.runs[0].consistency:")
                   and "w_all_seconds" in e for e in errors)


class TestOptionalRunFields:
    def test_loss_rate_is_a_probability(self):
        assert validate_bench(doc_with(loss_rate=1)) == []
        errors = validate_bench(doc_with(loss_rate=1.5))
        assert any("loss_rate" in e and "> maximum 1" in e for e in errors)

    def test_goodput_identity(self):
        errors = validate_bench(doc_with(goodput_bits=4000,
                                         retransmitted_bits=241))
        assert any("must equal total_bits" in e for e in errors)

    def test_attribution_values_are_nonnegative_seconds(self):
        assert validate_bench(doc_with(
            critical_path_attribution={"latency": 0.04, "queue": 0})) == []
        errors = validate_bench(doc_with(
            critical_path_attribution={"latency": -0.04, "queue": "long"}))
        assert any("critical_path_attribution.latency" in e for e in errors)
        assert any("critical_path_attribution.queue" in e for e in errors)

    def test_per_region_rollups_are_checked(self):
        region = {"sites": 4, "min_final_score": 1.0,
                  "mean_final_score": 1.0}
        health = dict(copy.deepcopy(HEALTH), per_region={"r0": region})
        assert validate_bench(doc_with(invariant_violations=0,
                                       health=health)) == []
        health["per_region"]["r1"] = {"sites": 4.5, "min_final_score": 1.0}
        errors = validate_bench(doc_with(invariant_violations=0,
                                         health=health))
        assert any("per_region.r1.sites" in e for e in errors)
        assert any("per_region.r1" in e and "mean_final_score" in e
                   for e in errors)


def _required_fields(record, schema, path=()):
    """Every (path, value) the schema requires of ``record``, nested."""
    for name in schema.get("required", ()):
        value = record[name]
        yield path + (name,), value
        if isinstance(value, dict):
            yield from _required_fields(value, schema["properties"][name],
                                        path + (name,))


def _mutants(value):
    """Ill-typed or out-of-range stand-ins for one required value."""
    if isinstance(value, bool) or isinstance(value, dict):
        return ["x"]
    if isinstance(value, (int, float)):
        return [-value - 1, "x"]
    return [7]


class TestCommittedDocument:
    """The validator swap, pinned against the committed trajectory."""

    def _document(self):
        with open(REPO_ROOT / "BENCH_cluster.json", encoding="utf-8") as f:
            return json.load(f)

    def test_committed_document_is_valid(self):
        assert validate_bench(self._document()) == []

    def test_every_required_field_of_every_run_is_guarded(self):
        document = self._document()
        run_schema = BENCH_SCHEMA["properties"]["runs"]["items"]
        checked = 0
        for index, run in enumerate(document["runs"]):
            for path, value in _required_fields(run, run_schema):
                for mutant in [None] + _mutants(value):
                    broken = copy.deepcopy(document)
                    holder = broken["runs"][index]
                    for name in path[:-1]:
                        holder = holder[name]
                    if mutant is None:
                        del holder[path[-1]]
                    else:
                        holder[path[-1]] = mutant
                    errors = validate_bench(broken)
                    assert any(f"runs[{index}]" in e and path[-1] in e
                               for e in errors), (index, path, mutant)
                    checked += 1
        # 14 required fields + the nested traffic/bits_per_session ones,
        # three mutations each for the numeric majority.
        assert checked > 60 * len(document["runs"])

    def test_schema_file_matches_the_source(self):
        path = REPO_ROOT / "schemas" / "repro.bench.cluster.schema.json"
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle) == BENCH_SCHEMA
