"""The protocol registry: one place that knows every sync scheme.

Historically each layer that needed "which vector class, which coroutine
pair, does it reconcile?" re-answered the question with its own
``if protocol == "brv" ... elif`` ladder.  This module replaces the
ladders with a declarative table: a :class:`ProtocolSpec` per scheme,
bundling the metadata-vector class, the sender/receiver coroutine
factories, and the scheme's traits (can it reconcile concurrent vectors
automatically?).  :class:`~repro.net.cluster.ClusterRunner` and
:func:`~repro.net.cluster.replay_sequential` dispatch exclusively through
:func:`get`; new schemes plug in with :func:`register` and immediately
work everywhere — cluster runs, benchmarks, replays — without touching
any dispatch site.

The registry is intentionally tiny and import-time populated with the
paper's three schemes (BRV/SYNCB, CRV/SYNCC, SRV/SYNCS); it is a lookup
table, not a plugin system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.arrayvec import (ArrayBasicRotatingVector,
                                 ArrayConflictRotatingVector,
                                 ArraySkipRotatingVector)
from repro.core.order import Ordering
from repro.core.rotating import BasicRotatingVector
from repro.errors import ConcurrentVectorsError
from repro.obs.trace import Tracer
from repro.protocols.session import ProtocolCoroutine
from repro.protocols.syncb import syncb_receiver, syncb_sender
from repro.protocols.syncc import syncc_receiver, syncc_sender
from repro.protocols.syncs import syncs_receiver, syncs_sender

#: ``(b, tracer=...) -> sender coroutine`` — the forward/bulk side.
SenderFactory = Callable[..., ProtocolCoroutine]
#: ``(a, reconcile=..., tracer=...) -> receiver coroutine``.
ReceiverFactory = Callable[..., ProtocolCoroutine]


@dataclass(frozen=True)
class ProtocolSpec:
    """Everything the drivers need to know about one sync scheme.

    Attributes:
        name: the scheme's registry key (``"brv"``, ``"crv"``, ``"srv"``).
        vector_cls: the metadata-vector class each site instantiates.
        flag_bits: per-element flag bits that class stores beside site
            and value: none for BRV, the conflict bit for CRV, the
            conflict and segment bits for SRV.
        reconciles: whether the receiver can merge *concurrent* vectors
            automatically.  A scheme with ``reconciles=False`` (BRV)
            raises :class:`~repro.errors.ConcurrentVectorsError` when
            asked to synchronize concurrent inputs — Algorithm 2's
            ``Require: a ∦ b``.
        make_sender: factory for the sending coroutine (``b``'s side of
            ``SYNC*_b(a)``); called as ``make_sender(b, tracer=...)``.
        make_receiver: factory for the receiving coroutine; called as
            ``make_receiver(a, reconcile=..., tracer=...)`` when the
            scheme reconciles, ``make_receiver(a, tracer=...)`` when not.
    """

    name: str
    vector_cls: type
    flag_bits: int
    reconciles: bool
    make_sender: SenderFactory
    make_receiver: ReceiverFactory

    def build(self, b: BasicRotatingVector, a: BasicRotatingVector,
              verdict: Ordering, *, tracer: Optional[Tracer] = None
              ) -> Tuple[ProtocolCoroutine, ProtocolCoroutine, bool]:
        """(sender, receiver, reconciled) for ``SYNC*_b(a)`` under ``verdict``.

        ``reconciled`` reports whether the receiver will perform an
        automatic merge (always False for non-reconciling schemes).
        """
        concurrent = verdict.is_concurrent
        if not self.reconciles:
            if concurrent:
                raise ConcurrentVectorsError(
                    f"{self.name.upper()} cannot synchronize concurrent "
                    f"vectors (use a reconciling scheme, or a "
                    f"single-writer workload)")
            return (self.make_sender(b, tracer=tracer),
                    self.make_receiver(a, tracer=tracer), False)
        return (self.make_sender(b, tracer=tracer),
                self.make_receiver(a, reconcile=concurrent, tracer=tracer),
                concurrent)


_REGISTRY: Dict[str, ProtocolSpec] = {}


def register(spec: ProtocolSpec) -> ProtocolSpec:
    """Add ``spec`` to the registry; re-registering a name replaces it."""
    _REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> ProtocolSpec:
    """The spec registered under ``name``; raises ``ValueError`` otherwise."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown protocol {name!r}; "
                         f"expected one of {names()}") from None


def names() -> List[str]:
    """Registered scheme names, sorted."""
    return sorted(_REGISTRY)


register(ProtocolSpec(
    name="brv", vector_cls=ArrayBasicRotatingVector, flag_bits=0,
    reconciles=False, make_sender=syncb_sender,
    make_receiver=syncb_receiver))
register(ProtocolSpec(
    name="crv", vector_cls=ArrayConflictRotatingVector, flag_bits=1,
    reconciles=True, make_sender=syncc_sender,
    make_receiver=syncc_receiver))
register(ProtocolSpec(
    name="srv", vector_cls=ArraySkipRotatingVector, flag_bits=2,
    reconciles=True, make_sender=syncs_sender,
    make_receiver=syncs_receiver))
