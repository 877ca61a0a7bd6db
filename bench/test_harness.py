"""Self-test of the benchmark harness (``pytest bench/ -q``, < 30 s).

Runs real passes at 1/20 of the issue's sizes.  Not collected by tier-1
(``testpaths = ["tests"]``).
"""

from __future__ import annotations

import copy
import json
import os
import re
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from bench import compare, run, trace  # noqa: E402

SCALE = 0.05
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*\Z")
#: One store and one fleet workload; together they own every observer pass
#: and so produce every declared metric.
WORKLOADS = ["store_hot", "fleet_sharded_lossy"]


@pytest.fixture(scope="module")
def declaration():
    return run.load_declaration()


@pytest.fixture(scope="module")
def results():
    return run.measure(dict.fromkeys(WORKLOADS, 3), seed=0,
                       want_end_to_end=True, want_layers=True, scale=SCALE)


def test_declaration_names_are_well_formed(declaration):
    names = [entry["name"] for kind in ("workloads", "end_to_end",
                                        "per_layer")
             for entry in declaration[kind]]
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in declaration["workloads"]] \
        == list(run.SCALES) == list(run.PASSES)
    assert any(e["name"] == "setup_s" and e["unit"] == "s"
               and e["better"] == "lower" for e in declaration["end_to_end"])


def test_emitted_metrics_equal_declared(declaration, results):
    declared_layers = {e["name"] for e in declaration["per_layer"]}
    emitted_layers = set()
    for workload in WORKLOADS:
        assert list(run.as_declared(declaration["end_to_end"],
                                    results[workload]["end_to_end"])) \
            == [e["name"] for e in declaration["end_to_end"]]
        emitted_layers |= set(results[workload]["per_layer"])
    assert emitted_layers == declared_layers
    assert results["store_hot"]["trace_warnings"] == []


def test_layer_self_times_add_up_to_the_traced_wall(results):
    for workload in WORKLOADS:
        traced = next(r for r in results[workload]["passes"]
                      if r["mode"] == "traced")
        layers = results[workload]["per_layer"]
        total = layers["bench.unattributed_s"] + sum(
            value for name, value in layers.items()
            if name.endswith(".self_s"))
        assert total == pytest.approx(traced["wall_s"], rel=0.01)
        assert layers["bench.unattributed_s"] <= 0.15 * traced["wall_s"]


def test_traced_and_observed_passes_do_not_perturb_the_simulation(results):
    for workload in WORKLOADS:
        base, *others = [r for r in results[workload]["passes"]
                         if r["seed"] == run.sub_seed(0, 0)]
        assert {r["observer"] or r["mode"] for r in others} \
            == {"traced"} | {o for o, _ in run.OBSERVER_PASSES[workload]}
        assert all(r["fingerprint"] == base["fingerprint"] for r in others)


def test_same_seed_same_fingerprint_other_seed_other_schedule(results):
    for workload in WORKLOADS:
        prints = results[workload]["fingerprints"]
        assert len(set(prints)) == len(prints) == 3
    again = run.run_pass("store_hot", run.sub_seed(0, 1), scale=SCALE)
    assert again["fingerprint"] == results["store_hot"]["fingerprints"][1]
    assert again["metrics"]["sim_completion_s"] == results["store_hot"][
        "end_to_end"]["sim_completion_s"]["values"][1]


def test_generator_proxy_forwards_the_generator_protocol():
    tracer = trace.LayerTracer()
    log = []

    def body():
        try:
            got = yield "first"
            log.append(got)
            try:
                yield "second"
            except KeyError:
                log.append("thrown")
                yield "third"
        finally:
            log.append("closed")
        return "never"

    def short():
        value = yield 1
        return value * 2

    with tracer.root("test") as root:
        proxy = tracer.proxy(body(), "protocols.sync", "toy")
        assert next(proxy) == "first"
        assert proxy.send("sent") == "second"
        assert proxy.throw(KeyError) == "third"
        proxy.close()
        assert iter(proxy) is proxy
        finishing = tracer.proxy(short(), "protocols.sync", "toy")
        next(finishing)
        with pytest.raises(StopIteration) as stop:
            finishing.send(21)
    assert stop.value.value == 42
    assert log == ["sent", "thrown", "closed"]
    self_s, calls = root.result.layers()["protocols.sync"]
    assert calls == 6 and 0 < self_s <= root.result.wall_s


def test_callbacks_are_billed_to_their_defining_module_once():
    from repro.workload.cluster import site_names

    tracer = trace.LayerTracer()
    wrapped = tracer.wrap_callback(site_names)
    assert tracer.wrap_callback(wrapped) is wrapped
    assert tracer.wrap_callback(None) is None
    assert tracer.wrap_callback(len) is len  # no layer: bill the caller
    with tracer.root("test") as root:
        assert wrapped(2) == ["S000", "S001"]
    assert root.result.layers()["workload"][1] == 1


def test_wrappers_are_removed_after_a_traced_pass():
    import repro.net.runner
    import repro.net.simulator
    import repro.protocols.registry
    import repro.store.cluster
    import repro.store.kv
    from bench import workloads

    def boundary():
        return (vars(repro.store.kv.SiteStore)["get"],
                repro.store.kv.merge_siblings,
                repro.store.cluster.merge_siblings,
                repro.store.cluster.launch,
                repro.net.runner.batch_party,
                vars(repro.net.simulator.Simulator)["call_at"],
                vars(repro.protocols.registry.ProtocolSpec)["build"],
                vars(repro.net.topology.TopologySpec)["grid"])

    originals = boundary()
    tracer = trace.LayerTracer()
    installed = trace.install(tracer)
    try:
        assert installed.warnings == []
        assert all(now is not before
                   for now, before in zip(boundary(), originals))
        with tracer.root("run"):
            workloads.prepare("store_writes", 3, 0.01).run()
    finally:
        installed.restore()
    assert all(now is before for now, before in zip(boundary(), originals))
    spans = sum(tracer.calls.values())
    assert spans > 1000
    workloads.prepare("store_writes", 3, 0.01).run()
    assert sum(tracer.calls.values()) == spans


def test_an_unresolvable_target_is_a_warning_not_an_error(monkeypatch):
    monkeypatch.setattr(trace, "FUNCTION_TARGETS", trace.FUNCTION_TARGETS
                        + (("repro.store.kv.renamed_away", "store.kv"),))
    installed = trace.install(trace.LayerTracer())
    installed.restore()
    assert installed.warnings == ["repro.store.kv.renamed_away"]


def test_contract_result_line(monkeypatch, capsys, declaration):
    monkeypatch.setattr(run, "SCALES", dict.fromkeys(run.SCALES, SCALE))
    for flag, kind in (("0", "end_to_end"), ("1", "per_layer")):
        assert run.main(["--workload", "fleet_gossip", "--seed", "1",
                         "--seconds", "1", "--trace", flag]) == 0
        line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        units = {e["name"]: e["unit"] for e in declaration[kind]}
        assert {name: m["unit"] for name, m in line["metrics"].items()} \
            == units
        if kind == "end_to_end":
            assert all(m["value"] != 0 for m in line["metrics"].values())


def test_an_incorrect_pass_fails_loudly(monkeypatch, capsys):
    record = run.run_pass("store_writes", 5, scale=0.01)
    bad = dict(record, checks=dict(record["checks"], converged=False))

    class Done:
        returncode, stderr, stdout = 0, "", json.dumps(bad)

    monkeypatch.setattr(run.subprocess, "run", lambda *a, **k: Done)
    assert run.main(["--workload", "store_writes", "--trace", "0"]) == 1
    captured = capsys.readouterr()
    assert "converged" in captured.err and captured.out == ""


def test_compare_verdicts(declaration, results):
    first = {"workloads": {
        workload: dict(result, per_layer=run.as_declared(
            declaration["per_layer"], result["per_layer"], fill=0.0))
        for workload, result in results.items()}}
    rows, regressed = compare.compare(first, first, declaration, layers=True)
    assert not regressed
    assert not any("unresolved" in row or "regression" in row
                   for row in rows)
    slower = copy.deepcopy(first)
    row = slower["workloads"]["store_hot"]["end_to_end"]["client_ops_per_s"]
    row["value"] *= 0.5
    row["values"] = [v * 0.5 for v in row["values"]]
    assert compare.compare(first, slower, declaration)[1]
    assert not compare.compare(slower, first, declaration)[1]
    failing = copy.deepcopy(first)
    failing["workloads"]["store_hot"]["failed"] = 1
    assert compare.compare(first, failing, declaration)[1]
    noisy = copy.deepcopy(first)
    row = noisy["workloads"]["store_hot"]["end_to_end"]["setup_s"]
    row["values"][0] *= 2  # one pass of three: the median stays put
    rows, regressed = compare.compare(first, noisy, declaration)
    assert not regressed
    assert [row for row in rows if "unresolved" in row] \
        == [row for row in rows if "store_hot" in row and "setup_s" in row]
