"""Performance harness: cluster-scale benchmark regression.

* :mod:`repro.perf.bench` — one cell runner over a scenario table
  (:data:`~repro.perf.bench.SCENARIOS`: gossip, batched, chaos, store,
  multi-region) emitting the machine-readable ``BENCH_cluster.json``;
  ``repro monitor`` / ``repro analyze --fleet`` build their fleets from
  the same rows.
* :mod:`repro.perf.schema` — the document's schema as a dict checked by
  the repo's one JSON-Schema-subset validator, plus the cross-field
  identities a schema cannot say (``python -m repro.perf.schema FILE``).
* :mod:`repro.perf.compare` / :mod:`repro.perf.history` — diff two
  documents, trend and gate a sequence of them.

The CLI entry point is ``python -m repro bench`` (or ``repro bench`` for
an installed distribution).
"""

from repro.perf.bench import (BenchConfig, bench_main, format_bench_table,
                              run_cluster_bench, write_bench)
from repro.perf.schema import SCHEMA_ID, validate_bench, validate_file

__all__ = [
    "BenchConfig",
    "SCHEMA_ID",
    "bench_main",
    "format_bench_table",
    "run_cluster_bench",
    "validate_bench",
    "validate_file",
    "write_bench",
]
