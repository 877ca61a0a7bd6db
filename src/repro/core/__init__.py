"""Core concurrency-control metadata: version vectors and rotating variants.

This subpackage implements the paper's primary data structures:

* :class:`~repro.core.versionvector.VersionVector` — the classic scheme
  (Parker et al. 1986), used as the correctness oracle and as the
  "traditional" baseline that ships whole vectors.
* :class:`~repro.core.rotating.BasicRotatingVector` (BRV, §3.1),
  :class:`~repro.core.conflict.ConflictRotatingVector` (CRV, §3.2), and
  :class:`~repro.core.skip.SkipRotatingVector` (SRV, §4) — the paper's three
  incremental-synchronization vector implementations.
* :class:`~repro.core.order.Ordering` — the shared comparison verdict type.

The wire protocols that synchronize these structures live in
:mod:`repro.protocols`.
"""

from repro import _lazy_surface

__getattr__, __dir__ = _lazy_surface(__name__, {
    "conflict": ("ConflictRotatingVector",),
    "linkedorder": ("Element", "ElementOrder"),
    "order": ("Ordering",),
    "rotating": ("BasicRotatingVector",),
    "skip": ("SkipRotatingVector",),
    "versionvector": ("VersionVector",),
})

__all__ = [
    "Element",
    "ElementOrder",
    "Ordering",
    "VersionVector",
    "BasicRotatingVector",
    "ConflictRotatingVector",
    "SkipRotatingVector",
]
