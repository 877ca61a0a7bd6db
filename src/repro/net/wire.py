"""Bit-exact wire encoding for metadata-exchange messages.

The paper's Table 2 states communication upper bounds in *bits*:

===== ==========================================
BRV   ``n·log(2mn) + 2``
CRV   ``n·log(4mn) + 2``
SRV   ``n·log(8mn) + n·log(2n) + 1``
===== ==========================================

Those bounds decompose element records into ``log n`` bits of site name,
``log m`` bits of value, and one, two, or three flag bits (a framing bit
that distinguishes element records from control messages, plus the conflict
bit for CRV/SRV and the segment bit for SRV); a BRV/CRV ``HALT`` costs 2
bits, an SRV ``HALT`` 1 bit, and an SRV ``SKIP`` carries a segment counter
of ``log n`` bits plus a framing bit (``log 2n``).  This module implements
exactly that encoding so benchmarks can compare measured traffic against
the table's bounds (assumption (ii) in §3.3: site names and values have
fixed length, so ``log n`` and ``log m`` are constants per system).

The encoding never serializes real byte strings — protocol sessions move
Python objects — it only *prices* each message, which is what the paper's
communication-complexity claims are about.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.errors import ValidationError


def bits_for(count: int) -> int:
    """The fixed field width needed to name ``count`` distinct things.

    ``⌈log₂(count + 1)⌉`` computed as ``count.bit_length()`` — exact
    integer arithmetic with no float rounding at power-of-two boundaries.
    """
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    return max(1, count.bit_length())


@dataclass(frozen=True)
class Encoding:
    """Fixed field widths for one replication system.

    Attributes:
        site_bits: width of a site name field (``log n``).
        value_bits: width of an element value field (``log m``).
        node_id_bits: width of a causal-graph node identifier.
        session_header_bits: fixed per-session overhead (transport setup,
            object naming, authentication — everything a real deployment
            pays before the first metadata bit).  Charged once per session
            by every driver, to the forward direction, as a
            ``SessionHeader`` record; the default of 0 keeps the paper's
            pure-metadata accounting.  Batched multi-object sessions
            (:mod:`repro.protocols.batch`) share one header across a whole
            batch, which is exactly the amortization the batching
            benchmarks measure.  The header is priced but not timed — it
            models connection state, not a serialized message.
    """

    site_bits: int
    value_bits: int
    node_id_bits: int = 32
    session_header_bits: int = 0

    def __post_init__(self) -> None:
        # A zero or negative width would price messages at 0 bits (or
        # less) and silently void every measurement downstream.
        for name in ("site_bits", "value_bits", "node_id_bits"):
            if not getattr(self, name) >= 1:
                raise ValidationError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.session_header_bits >= 0:
            raise ValidationError(
                f"session_header_bits must be >= 0, "
                f"got {self.session_header_bits}")

    @classmethod
    def for_system(cls, n_sites: int, max_updates_per_site: int,
                   n_graph_nodes: int = 0) -> "Encoding":
        """Derive field widths from system parameters ``n`` and ``m``."""
        node_bits = bits_for(n_graph_nodes) if n_graph_nodes else 32
        return cls(
            site_bits=bits_for(n_sites),
            value_bits=bits_for(max_updates_per_site),
            node_id_bits=node_bits,
        )

    # -- field hooks -----------------------------------------------------------

    def value_field_bits(self, value: int) -> int:
        """Width of one value field; fixed at ``log m`` here.

        Subclasses may price by magnitude instead (see
        :class:`repro.extensions.varint.AdaptiveEncoding`); message classes
        route every transmitted value through this hook.
        """
        return self.value_bits

    # -- element records -------------------------------------------------------
    #
    # Field widths are memoized: every message prices itself through these
    # sums, so per-message recomputation is pure overhead on the hot path.
    # ``cached_property`` writes straight into ``__dict__`` and therefore
    # coexists with the frozen dataclass (fields stay immutable).

    @cached_property
    def brv_element_bits(self) -> int:
        """``log(2mn)``: site + value + framing bit."""
        return self.site_bits + self.value_bits + 1

    @cached_property
    def crv_element_bits(self) -> int:
        """``log(4mn)``: site + value + framing + conflict bit."""
        return self.site_bits + self.value_bits + 2

    @cached_property
    def srv_element_bits(self) -> int:
        """``log(8mn)``: site + value + framing + conflict + segment bits."""
        return self.site_bits + self.value_bits + 3

    @cached_property
    def compare_element_bits(self) -> int:
        """``log(mn)``: the bare least element exchanged by COMPARE."""
        return self.site_bits + self.value_bits

    @cached_property
    def skip_bits(self) -> int:
        """``log(2n)``: an SRV SKIP message (framing + segment counter)."""
        return self.site_bits + 1

    # -- Table 2 upper bounds ---------------------------------------------------

    def brv_sync_bound(self, n_sites: int) -> int:
        """Worst-case SYNCB traffic: ``n·log(2mn) + 2`` bits."""
        return n_sites * self.brv_element_bits + 2

    def crv_sync_bound(self, n_sites: int) -> int:
        """Worst-case SYNCC traffic: ``n·log(4mn) + 2`` bits."""
        return n_sites * self.crv_element_bits + 2

    def srv_sync_bound(self, n_sites: int) -> int:
        """Worst-case SYNCS traffic: ``n·log(8mn) + n·log(2n) + 1`` bits."""
        return n_sites * self.srv_element_bits + n_sites * self.skip_bits + 1

    def full_vector_bits(self, n_elements: int) -> int:
        """Traditional whole-vector transfer: length prefix + n elements."""
        return self.site_bits + n_elements * (self.site_bits + self.value_bits)

    # -- causal graphs -----------------------------------------------------------

    @cached_property
    def graph_node_bits(self) -> int:
        """One SYNCG node record: id + two parent ids + framing bit."""
        return 3 * self.node_id_bits + 1

    @cached_property
    def skipto_bits(self) -> int:
        """A SYNCG skip-to redirection: node id + framing bit."""
        return self.node_id_bits + 1

    def full_graph_bits(self, n_nodes: int) -> int:
        """Traditional whole-graph transfer: count prefix + node records."""
        return self.node_id_bits + n_nodes * (3 * self.node_id_bits)


#: A generous default for ad-hoc use: 16-bit site names (65k sites),
#: 32-bit values, 32-bit graph node ids.
DEFAULT_ENCODING = Encoding(site_bits=16, value_bits=32, node_id_bits=32)
