"""Schema of the ``BENCH_cluster.json`` regression document.

The benchmark trajectory only works if every PR emits the *same shape*:
a diff between two runs must be a field-by-field comparison, never a
parser archaeology session.  :data:`BENCH_SCHEMA` pins that shape in the
JSON-Schema subset :func:`repro.obs.otlp_schema.validate` checks — the
one validator that also checks the OTLP export, the causal analysis and
the consistency digest.  ``schemas/repro.bench.cluster.schema.json`` is
the same schema checked in for external tooling (a unit test pins file
== dict).

What the subset cannot say stays as code in :func:`validate_bench`, and
nothing else does: ``runs`` is non-empty; no two runs share one
:func:`run_key` (the identity :mod:`repro.perf.compare` pairs runs by);
four cross-field identities (``total_bits == traffic.total_bits``,
``goodput_bits + retransmitted_bits == total_bits``, ``reads + writes +
deletes == ops``, ``invariant_violations ==
health.invariant_violations``); and an embedded ``consistency`` block is
handed to its own schema
(:func:`repro.obs.consistency.validate_consistency`), so the bench
document and the standalone ``--consistency`` export cannot drift apart.

Every run carries the required fields; batched, chaos, store,
multi-region, ``--analyze`` and ``--monitor`` cells add optional ones,
validated when present.  Validate from the command line::

    PYTHONPATH=src python -m repro.perf.schema BENCH_cluster.json
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.consistency import validate_consistency
from repro.obs.otlp_schema import validate

SCHEMA_ID = "repro.bench.cluster/1"

PROTOCOLS = ("brv", "crv", "srv")

_COUNT = {"type": "integer", "minimum": 0}
_POSITIVE_COUNT = {"type": "integer", "minimum": 1}
_AMOUNT = {"type": "number", "minimum": 0}


def _record(required: Dict[str, Any],
            optional: Dict[str, Any] | None = None) -> Dict[str, Any]:
    """An object schema: ``required`` properties plus ``optional`` ones."""
    return {"type": "object", "required": list(required),
            "properties": {**required, **(optional or {})}}


#: ``p999`` is newer than the committed baselines: validated when
#: present, never required.
_PERCENTILES = _record({"p50": _AMOUNT, "p90": _AMOUNT, "p99": _AMOUNT},
                       {"p999": _AMOUNT})

_SCORES = {"min_final_score": _AMOUNT, "mean_final_score": _AMOUNT}

_RUN_SCHEMA = _record({
    "scenario": {"type": "string", "pattern": "."},
    "protocol": {"enum": list(PROTOCOLS)},
    "n_sites": _POSITIVE_COUNT,
    "sessions": _COUNT,
    "updates": _COUNT,
    "updates_deferred": _COUNT,
    "reconciliations": _COUNT,
    "total_bits": _COUNT,
    # TransferStats.summary()
    "traffic": _record({
        "forward_bits": _COUNT, "backward_bits": _COUNT,
        "total_bits": _COUNT, "forward_messages": _COUNT,
        "backward_messages": _COUNT, "by_type": {"type": "object"}}),
    "bits_per_session": _record({
        "mean": _AMOUNT, "p50": _AMOUNT, "p90": _AMOUNT, "max": _AMOUNT}),
    "sim_completion_seconds": _AMOUNT,   # simulated clock at drain
    "max_queue_wait_seconds": _AMOUNT,
    "consistent": {"type": "boolean"},
}, {
    # Batched many-objects cells:
    "n_objects": _POSITIVE_COUNT,        # replicated objects per site
    "batch_size": _POSITIVE_COUNT,       # objects per framed session
    "wire_bits_per_object": _AMOUNT,     # total_bits / synced objects
    # Chaos (faulted-channel) cells:
    "loss_rate": {"type": "number", "minimum": 0, "maximum": 1},
    "chaos_seed": _COUNT,                # fault-schedule seed
    "goodput_bits": _COUNT,              # first-transmission bits
    "retransmitted_bits": _COUNT,
    "retries": _COUNT,                   # data retransmissions
    "timeouts": _COUNT,                  # expired ARQ timers
    "resumes": _COUNT,                   # session re-handshakes
    "goodput_overhead_pct": _AMOUNT,     # retransmitted/goodput * 100
    # Multi-region sharded cells:
    "regions": _COUNT,
    "replication": _COUNT,               # replicas per object
    "shard_groups": _COUNT,              # distinct replica groups
    "skipped_sessions": _COUNT,          # gossip pairs sharing no object
    "shard_load": _record({"min": _AMOUNT, "mean": _AMOUNT,
                           "max": _AMOUNT}),
    # Store-workload cells, the client-felt digest:
    "client": _record({
        "ops": _COUNT, "reads": _COUNT, "writes": _COUNT,
        "deletes": _COUNT, "read_repairs": _COUNT,
        "sessions_abandoned": _COUNT,
        "get_latency_seconds": _PERCENTILES,
        "put_latency_seconds": _PERCENTILES,
        "staleness_seconds": _PERCENTILES}),
    # Monitored store cells (checked against repro.obs.consistency/1):
    "consistency": {"type": "object"},
    # Analyzed cells (``--analyze``), the repro.obs.causal digest:
    "critical_path_seconds": _AMOUNT,
    "critical_path_hops": _COUNT,
    "critical_path_attribution": {       # category → simulated seconds
        "type": "object", "additionalProperties": _AMOUNT},
    # Monitored cells (``--monitor``), ClusterMonitor.health_summary():
    "invariant_violations": _COUNT,
    "health": _record({
        "samples": _COUNT, "sites": _COUNT,
        "invariant_violations": _COUNT, "sessions_checked": _COUNT,
        "final_scores": {"type": "object"}, **_SCORES,
    }, {
        "per_region": {
            "type": "object",
            "additionalProperties": _record({"sites": _COUNT, **_SCORES})},
        "shards": _record({"groups": _COUNT, "objects": _COUNT,
                           "load": {"type": "object"}}),
    }),
})

#: The ``BENCH_cluster.json`` document :func:`repro.perf.bench.
#: run_cluster_bench` emits.
BENCH_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "$id": "repro.bench.cluster.schema.json",
    "title": "repro cluster bench document",
    **_record({
        "schema": {"enum": [SCHEMA_ID]},
        "config": {"type": "object"},    # BenchConfig fields
        "runs": {"type": "array", "items": _RUN_SCHEMA},
    }),
}


#: Identity of one run within a document (None fields when absent).
#: Chaos cells add their loss rate and fault seed so two chaos runs of
#: the same protocol/fleet never collide.
RunKey = Tuple[str, str, int, Optional[int], Optional[int],
               Optional[float], Optional[int]]


def run_key(run: Dict[str, Any]) -> RunKey:
    """The pairing identity of one run record."""
    return (run.get("scenario", "?"), run.get("protocol", "?"),
            run.get("n_sites", 0), run.get("n_objects"),
            run.get("batch_size"), run.get("loss_rate"),
            run.get("chaos_seed"))


def _sum_identity(errors: List[str], where: str, record: Dict[str, Any],
                  parts: List[str], total: str) -> None:
    """``sum(record[parts]) == record[total]`` when all are integers."""
    names = parts + [total]
    if all(isinstance(record.get(name), int) for name in names) \
            and sum(record[name] for name in parts) != record[total]:
        terms = " + ".join(f"{name} ({record[name]})" for name in parts)
        errors.append(f"{where}: {terms} must equal {total} "
                      f"({record[total]})")


def _check_identities(errors: List[str], where: str,
                      run: Dict[str, Any]) -> None:
    """The cross-field rules of one run a schema cannot express."""
    for field, block in (("total_bits", "traffic"),
                         ("invariant_violations", "health")):
        inner = run.get(block)
        if isinstance(inner, dict) and isinstance(run.get(field), int) \
                and isinstance(inner.get(field), int) \
                and run[field] != inner[field]:
            errors.append(f"{where}: {field} ({run[field]}) disagrees with "
                          f"{block}.{field} ({inner[field]})")
    _sum_identity(errors, where, run,
                  ["goodput_bits", "retransmitted_bits"], "total_bits")
    if isinstance(run.get("client"), dict):
        _sum_identity(errors, f"{where}.client", run["client"],
                      ["reads", "writes", "deletes"], "ops")
    if isinstance(run.get("consistency"), dict):
        errors.extend(f"{where}.consistency: {error}"
                      for error in validate_consistency(run["consistency"]))


def validate_bench(doc: Any) -> List[str]:
    """All schema violations in ``doc`` (empty list == valid)."""
    errors = validate(doc, BENCH_SCHEMA)
    runs = doc.get("runs") if isinstance(doc, dict) else None
    if runs == []:
        errors.append("$.runs: must be a non-empty array")
    if isinstance(runs, list):
        first_index: Dict[RunKey, int] = {}
        for index, run in enumerate(runs):
            if not isinstance(run, dict):
                continue
            _check_identities(errors, f"$.runs[{index}]", run)
            key = run_key(run)
            try:
                earlier = first_index.setdefault(key, index)
            except TypeError:  # an unhashable field, reported above
                continue
            if earlier != index:
                errors.append(f"$.runs[{index}]: same identity as "
                              f"$.runs[{earlier}] {key}")
    return errors


def load_bench(path: str) -> Dict[str, Any]:
    """The validated document at ``path``.

    Raises ``OSError``/``json.JSONDecodeError`` when it cannot be read
    and ``ValueError`` when it is not a valid bench document.
    """
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    errors = validate_bench(document)
    if errors:
        raise ValueError(f"{path} is not a valid bench document: "
                         f"{'; '.join(errors)}")
    return document


def validate_file(path: str) -> List[str]:
    """Validate a JSON document on disk; parse errors are violations too."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        return [f"cannot read {path}: {error}"]
    return validate_bench(doc)


def main(argv: List[str] | None = None) -> int:
    """``python -m repro.perf.schema FILE [FILE...]`` — exit 1 on errors."""
    paths = list(sys.argv[1:] if argv is None else argv)
    if not paths:
        print("usage: python -m repro.perf.schema BENCH_cluster.json [...]")
        return 2
    status = 0
    for path in paths:
        errors = validate_file(path)
        if errors:
            status = 1
            print(f"{path}: INVALID")
            for error in errors:
                print(f"  - {error}")
        else:
            print(f"{path}: ok ({SCHEMA_ID})")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
