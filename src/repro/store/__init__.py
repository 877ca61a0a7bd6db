"""The replicated key-value store served by rotating version vectors.

``repro.store`` is the layer the paper's metadata exists to serve: every
key carries its own rotating vector (any scheme from the protocol
registry), client writes thread causal contexts, concurrent writes
surface as siblings, divergent reads trigger read-repair, and background
anti-entropy drives per-key SYNC* sessions over the fault-tolerant
session transport.  See ``docs/STORE.md`` for the full semantics.
"""

from repro import _lazy_surface

__getattr__, __dir__ = _lazy_surface(__name__, {
    "cluster": ("ClientOp", "OpOutcome", "StoreCluster", "StoreConfig",
                "StoreRunResult", "StoreSessionRecord", "gossip_peers"),
    "kv": ("TOMBSTONE", "CausalContext", "KeyRecord", "ReadResult",
           "SiteStore", "context_covers", "merge_siblings"),
})

__all__ = [
    "TOMBSTONE",
    "CausalContext",
    "ClientOp",
    "KeyRecord",
    "OpOutcome",
    "ReadResult",
    "SiteStore",
    "StoreCluster",
    "StoreConfig",
    "StoreRunResult",
    "StoreSessionRecord",
    "context_covers",
    "gossip_peers",
    "merge_siblings",
]
