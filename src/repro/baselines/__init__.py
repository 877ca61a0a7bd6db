"""Comparison schemes from the paper's related work (§2.2, §7).

* :mod:`repro.baselines.hashhistory` — hash histories (Kang et al. 2003).
* :mod:`repro.baselines.predecessor` — predecessor sets (§2.2).
* :mod:`repro.baselines.singhal` — Singhal–Kshemkalyani differential
  vector timestamps (1992), in their native message-passing setting.

The *traditional* full-vector and full-graph transfer baselines live with
the protocols in :mod:`repro.protocols.fullsync`.
"""

from repro import _lazy_surface

__getattr__, __dir__ = _lazy_surface(__name__, {
    "hashhistory": ("HASH_BITS", "HashHistory", "exchange_hash_histories"),
    "predecessor": ("PredecessorSet",),
    "singhal": ("SKMessage", "SKProcess"),
})

__all__ = [
    "HASH_BITS",
    "HashHistory",
    "exchange_hash_histories",
    "PredecessorSet",
    "SKMessage",
    "SKProcess",
]
