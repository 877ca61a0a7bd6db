"""Wire protocols: the paper's SYNC* algorithms plus baselines.

Every protocol is a pair of driver-agnostic coroutines (see
:mod:`repro.protocols.effects`) with a convenience wrapper that runs them
under the deterministic instant driver:

* :func:`~repro.protocols.syncb.sync_brv` — SYNCB, Algorithm 2.
* :func:`~repro.protocols.syncc.sync_crv` — SYNCC, Algorithm 3.
* :func:`~repro.protocols.syncs.sync_srv` — SYNCS, Algorithm 4.
* :func:`~repro.protocols.syncg.sync_graph` — SYNCG, Algorithm 5.
* :func:`~repro.protocols.comparep.compare_remote` — distributed COMPARE.
* :mod:`~repro.protocols.fullsync` — the traditional full-transfer baselines.
"""

from repro import _lazy_surface

__getattr__, __dir__ = _lazy_surface(__name__, {
    "comparep": ("compare_remote", "relationship"),
    "fullsync": ("sync_full_graph", "sync_full_vector"),
    "session": ("SessionResult", "run_session", "run_session_randomized"),
    "syncb": ("sync_brv", "syncb_receiver", "syncb_sender"),
    "syncc": ("sync_crv", "syncc_receiver", "syncc_sender"),
    "syncg": ("sync_graph", "syncg_receiver", "syncg_sender"),
    "syncs": ("sync_srv", "syncs_receiver", "syncs_sender"),
})

__all__ = [
    "SessionResult",
    "compare_remote",
    "relationship",
    "run_session",
    "run_session_randomized",
    "sync_brv",
    "sync_crv",
    "sync_srv",
    "sync_graph",
    "sync_full_graph",
    "sync_full_vector",
    "syncb_sender",
    "syncb_receiver",
    "syncc_sender",
    "syncc_receiver",
    "syncs_sender",
    "syncs_receiver",
    "syncg_sender",
    "syncg_receiver",
]
