"""Transfer statistics collected by protocol session drivers.

Every synchronization session yields one :class:`TransferStats` describing
exactly what crossed the (simulated) wire, in both directions, priced by the
session's :class:`~repro.net.wire.Encoding`.  The paper's quantities Δ, Γ,
and γ are reported by the protocol coroutines themselves (they are semantic,
not syntactic) and surface in each protocol's result object; this class
covers the syntactic layer: bits, messages, and message-type histograms.

A histogram (:attr:`DirectionStats.by_type`) is a plain ``dict`` from
message type name to count, not a :class:`collections.Counter`: a
str→int dict is never tracked by the cyclic garbage collector, and a
fleet run keeps one per direction per session.  Read a type that may be
absent with ``by_type.get(name, 0)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict


@dataclass
class DirectionStats:
    """Traffic counters for one direction of a session.

    ``bits`` counts everything that crossed the wire — including every
    retransmitted copy under the reliable ARQ transport.
    ``retransmitted_bits`` isolates the copies beyond each message's
    first transmission, so ``goodput_bits`` (the derived difference) is
    exactly what a fault-free run of the same message sequence would have
    spent.  Fault-free sessions never call :meth:`record_retransmit`, so
    their counters are bit-for-bit the historical accounting.
    ``by_type`` maps each message type name to its count, in a plain
    ``dict``.
    """

    bits: int = 0
    messages: int = 0
    by_type: Dict[str, int] = field(default_factory=dict)
    retransmitted_bits: int = 0
    retransmitted_messages: int = 0

    def record(self, type_name: str, bits: int) -> None:
        """Account one message of ``bits`` size."""
        self.bits += bits
        self.messages += 1
        by_type = self.by_type
        by_type[type_name] = by_type.get(type_name, 0) + 1

    def record_retransmit(self, type_name: str, bits: int) -> None:
        """Account one *retransmitted* copy: wire bits, but not goodput."""
        self.record(type_name, bits)
        self.retransmitted_bits += bits
        self.retransmitted_messages += 1

    @property
    def goodput_bits(self) -> int:
        """First-transmission bits: ``bits - retransmitted_bits``."""
        return self.bits - self.retransmitted_bits

    def merge(self, other: "DirectionStats") -> None:
        """Accumulate another direction's counters into this one."""
        self.bits += other.bits
        self.messages += other.messages
        by_type = self.by_type
        for type_name, count in other.by_type.items():
            by_type[type_name] = by_type.get(type_name, 0) + count
        self.retransmitted_bits += other.retransmitted_bits
        self.retransmitted_messages += other.retransmitted_messages

    @property
    def bytes(self) -> int:
        """Wire bytes: bits rounded up to whole octets (what a NIC ships)."""
        return math.ceil(self.bits / 8)

    @property
    def bytes_exact(self) -> float:
        """The exact fractional byte count, for analytical comparisons."""
        return self.bits / 8


@dataclass
class TransferStats:
    """Bidirectional traffic counters for one protocol session.

    ``forward`` is the direction that carries the bulk data (sender → receiver
    in the paper's ``SYNC*b(a)`` notation, i.e. *b*'s site to *a*'s site);
    ``backward`` carries control messages (HALT, SKIP, skip-to).

    ``frames``/``framed_objects`` count batched multi-object framing
    (:mod:`repro.protocols.batch`): each
    :class:`~repro.protocols.batch.BatchFrame` that crossed the wire is one
    frame carrying one entry per multiplexed object.  Unbatched sessions
    leave both at zero.

    ``retries``/``timeouts``/``resumes`` are filled only by the reliable
    ARQ transport (:mod:`repro.net.runner` under a faulted channel):
    retransmission attempts, expired per-message timers, and session
    re-handshakes after an abort.  Together with the per-direction
    ``retransmitted_bits`` they make the chaos invariant checkable:
    ``total_retransmitted_bits == total_bits - total_goodput_bits``
    exactly, on every completed session.
    """

    forward: DirectionStats = field(default_factory=DirectionStats)
    backward: DirectionStats = field(default_factory=DirectionStats)
    frames: int = 0
    framed_objects: int = 0
    retries: int = 0
    timeouts: int = 0
    resumes: int = 0

    @property
    def total_bits(self) -> int:
        return self.forward.bits + self.backward.bits

    @property
    def total_messages(self) -> int:
        return self.forward.messages + self.backward.messages

    @property
    def total_bytes(self) -> int:
        """Wire bytes across both directions, rounded up to whole octets."""
        return math.ceil(self.total_bits / 8)

    @property
    def total_bytes_exact(self) -> float:
        """The exact fractional byte count, for analytical comparisons."""
        return self.total_bits / 8

    @property
    def total_goodput_bits(self) -> int:
        """First-transmission bits across both directions."""
        return self.forward.goodput_bits + self.backward.goodput_bits

    @property
    def total_retransmitted_bits(self) -> int:
        """Retransmitted-copy bits across both directions."""
        return (self.forward.retransmitted_bits
                + self.backward.retransmitted_bits)

    def note_frame(self, object_count: int) -> None:
        """Account one batch frame multiplexing ``object_count`` objects.

        The frame's *bits* are recorded by the driver like any other send;
        this only tracks the framing structure so amortization (objects
        per frame, bits per framed object) is reportable.
        """
        self.frames += 1
        self.framed_objects += object_count

    def merge(self, other: "TransferStats") -> None:
        """Accumulate another session's counters into this one."""
        self.forward.merge(other.forward)
        self.backward.merge(other.backward)
        self.frames += other.frames
        self.framed_objects += other.framed_objects
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.resumes += other.resumes

    def as_dict(self) -> Dict[str, int]:
        """A flat summary convenient for tables and asserts."""
        return {
            "forward_bits": self.forward.bits,
            "backward_bits": self.backward.bits,
            "total_bits": self.total_bits,
            "forward_messages": self.forward.messages,
            "backward_messages": self.backward.messages,
        }

    def summary(self) -> Dict[str, object]:
        """The flat counters plus per-direction message-type histograms.

        Everything is JSON-serializable (plain dicts, ints, floats);
        benchmark documents embed this verbatim.  The ``amortized`` block
        reports per-message and per-frame averages; a session that moved
        no messages (or no frames) reports 0.0 for the corresponding
        ratios rather than dividing by zero.
        """
        flat: Dict[str, object] = dict(self.as_dict())
        flat["by_type"] = {
            "forward": dict(sorted(self.forward.by_type.items())),
            "backward": dict(sorted(self.backward.by_type.items())),
        }
        flat["frames"] = self.frames
        flat["framed_objects"] = self.framed_objects
        messages = self.total_messages
        flat["amortized"] = {
            "bits_per_message": (self.total_bits / messages
                                 if messages else 0.0),
            "objects_per_frame": (self.framed_objects / self.frames
                                  if self.frames else 0.0),
            "bits_per_framed_object": (self.total_bits / self.framed_objects
                                       if self.framed_objects else 0.0),
        }
        flat["reliability"] = {
            "goodput_bits": self.total_goodput_bits,
            "retransmitted_bits": self.total_retransmitted_bits,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "resumes": self.resumes,
        }
        return flat

    def __repr__(self) -> str:
        return (f"TransferStats(fwd={self.forward.bits}b/"
                f"{self.forward.messages}msg, "
                f"bwd={self.backward.bits}b/{self.backward.messages}msg)")
