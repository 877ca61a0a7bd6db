"""Orthogonal extensions the paper points at (§7).

* :mod:`repro.extensions.pruning` — inactive-site removal for rotating
  vectors, with the membership-manager retirement log.
* :mod:`repro.extensions.varint` — adaptive (Elias-γ) value fields on the
  wire, the simplest answer to unbounded counter growth.

Hybrid transfer — bounded op logs with snapshot fallback (§6) — lives with
the replication systems in :mod:`repro.replication.hybrid`.
"""

from repro import _lazy_surface

__getattr__, __dir__ = _lazy_surface(__name__, {
    "pruning": ("Retirement", "RetirementLog", "is_prunable", "prune",
                "prune_all"),
    "varint": ("AdaptiveEncoding", "elias_gamma_bits"),
})

__all__ = [
    "AdaptiveEncoding",
    "Retirement",
    "RetirementLog",
    "elias_gamma_bits",
    "is_prunable",
    "prune",
    "prune_all",
]
