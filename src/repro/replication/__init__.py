"""Replication systems built on the paper's concurrency-control schemes.

* :class:`~repro.replication.statesystem.StateTransferSystem` — whole-object
  synchronization with pluggable vector metadata (VV / BRV / CRV / SRV).
* :class:`~repro.replication.opsystem.OpTransferSystem` — operation logs
  with causal graphs and incremental SYNCG exchange.
* :mod:`~repro.replication.resolver` — manual and automatic conflict
  resolution policies.
* :class:`~repro.replication.membership.SiteRegistry` — the membership
  manager that fixes wire field widths.
"""

from repro import _lazy_surface

__getattr__, __dir__ = _lazy_surface(__name__, {
    "antientropy": ("AntiEntropyConfig", "AntiEntropyResult",
                    "AntiEntropySimulation", "OpAntiEntropySimulation",
                    "compare_schemes"),
    "hybrid": ("HybridOpSystem",),
    "membership": ("SiteRegistry",),
    "opreplica": ("Operation", "OpReplica", "kv_applier", "log_applier"),
    "opsystem": ("OpSyncOutcome", "OpTransferSystem"),
    "replica": ("METADATA_KINDS", "StateReplica", "make_metadata"),
    "resolver": ("AutomaticResolution", "ManualResolution",
                 "deterministic_pick", "union_merge"),
    "statesystem": ("StateTransferSystem", "SyncOutcome",
                    "default_payload_size"),
    "threeway": ("MergeResult", "merge3", "merge_heads", "snapshot_applier"),
})

__all__ = [
    "AntiEntropyConfig",
    "AntiEntropyResult",
    "AntiEntropySimulation",
    "AutomaticResolution",
    "HybridOpSystem",
    "METADATA_KINDS",
    "ManualResolution",
    "MergeResult",
    "OpAntiEntropySimulation",
    "OpReplica",
    "OpSyncOutcome",
    "OpTransferSystem",
    "Operation",
    "SiteRegistry",
    "StateReplica",
    "StateTransferSystem",
    "SyncOutcome",
    "compare_schemes",
    "default_payload_size",
    "deterministic_pick",
    "kv_applier",
    "log_applier",
    "make_metadata",
    "merge3",
    "merge_heads",
    "snapshot_applier",
    "union_merge",
]
