"""Simulated network links: latency, bandwidth, the β product, and faults.

The paper's pipelining analysis (§3.1) is parameterized by the network
round-trip time and the bandwidth–delay product ``β = bandwidth · rtt``:
pipelining shaves ``(k−1)·rtt`` off a k-item exchange and wastes at most
``β`` bytes of in-flight excess once the receiver has answered.  This
module defines the link model those quantities come from; the timed runner
(:mod:`repro.net.runner`) interprets protocol effects against it.

A spec keeps float seconds and bits per second; the simulator reads its
latency in ns, converted once, and a message's serialization as
``ceil(bits · 10⁹ / bandwidth)`` ns, exact on the bench's links.

A link may additionally carry a :class:`~repro.net.faults.FaultSpec`
describing loss, duplication, reordering, and transient partitions; the
timed runner switches to its reliable ARQ transport whenever the spec can
actually produce a fault (``faults.enabled``), and stays byte-for-byte on
the historical code path otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ValidationError
from repro.net.faults import FaultSpec
from repro.net.simulator import to_ns


def serialization_ns(bits: int, bandwidth: float) -> int:
    """Whole nanoseconds ``bits`` occupy a link of ``bandwidth`` bit/s:
    the one pricing the transport and the causal analyzer share."""
    return math.ceil(bits * 1e9 / bandwidth)


@dataclass(frozen=True)
class ChannelSpec:
    """A symmetric duplex link.

    Attributes:
        latency: one-way propagation delay in seconds
            (``latency_ns`` in the simulator's unit).
        bandwidth: link rate in bits per second, possibly infinite
            (:func:`serialization_ns` prices a message on it).
        ack_bits: size of the per-item acknowledgment used by the
            stop-and-wait baseline (pipelining "suppresses (k−1) reply
            messages as they now become implicit", §3.1) and by the
            reliable ARQ transport's explicit acks.
        faults: loss/duplication/reordering/partition model; the default
            (no faults) keeps the link perfectly reliable and in-order.

    Construction validates every field and raises
    :class:`~repro.errors.ValidationError` on nonsense — a negative
    latency or an out-of-range fault probability would silently corrupt
    every measurement built on the link.
    """

    latency: float = 0.05
    bandwidth: float = 1_000_000.0
    ack_bits: int = 8
    faults: FaultSpec = field(default_factory=FaultSpec)

    def __post_init__(self) -> None:
        # An infinite latency schedules deliveries at t = inf; an infinite
        # bandwidth is a zero serialization delay and stays allowed.
        if not math.isfinite(self.latency):
            raise ValidationError(
                f"latency must be finite, got {self.latency}")
        if not self.latency >= 0:
            raise ValidationError(
                f"latency must be >= 0, got {self.latency}")
        if not self.bandwidth > 0:
            raise ValidationError(
                f"bandwidth must be > 0, got {self.bandwidth}")
        if not self.ack_bits >= 1:
            raise ValidationError(
                f"ack_bits must be >= 1, got {self.ack_bits}")
        if not isinstance(self.faults, FaultSpec):
            raise ValidationError(
                f"faults must be a FaultSpec, got {self.faults!r}")
        # Derived once; not a field, so equality, hashing and asdict see
        # the float inputs only.
        object.__setattr__(self, "latency_ns", to_ns(self.latency))

    @property
    def rtt(self) -> float:
        """Round-trip propagation time in seconds."""
        return 2 * self.latency

    @property
    def beta_bits(self) -> float:
        """The bandwidth–delay product β in bits (§3.1's excess bound)."""
        return self.bandwidth * self.rtt

    def stop_and_wait_ns(self) -> int:
        """Extra nanoseconds per item paid by the stop-and-wait baseline.

        The sender idles for the propagation out, the ack serialization,
        and the propagation back before the next item may start.
        """
        return 2 * self.latency_ns + serialization_ns(self.ack_bits,
                                                      self.bandwidth)
