"""Performance harness: cluster-scale benchmark regression.

* :mod:`repro.perf.bench` — one cell runner over a scenario table
  (:data:`~repro.perf.bench.SCENARIOS`: gossip, batched, chaos, store,
  multi-region) emitting the machine-readable ``BENCH_cluster.json``,
  a pure function of its config; ``repro monitor`` /
  ``repro analyze --fleet`` build their fleets from the same rows.
* :mod:`repro.perf.schema` — the document's schema as a dict checked by
  the repo's one JSON-Schema-subset validator, plus the cross-field
  identities a schema cannot say (``python -m repro.perf.schema FILE``).
* :mod:`repro.perf.compare` — diff two documents run by run;
  ``--require-same`` gates on their fingerprints.
* :mod:`repro.perf.microbench` — timing floors of the optimized paths
  against their oracles.

The CLI entry point is ``python -m repro bench`` (or ``repro bench`` for
an installed distribution).
"""
