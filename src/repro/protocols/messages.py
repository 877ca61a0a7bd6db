"""Message types exchanged by the synchronization protocols.

Each message knows its own wire price in bits under a given
:class:`~repro.net.wire.Encoding`; see that module for how the prices add
up to the paper's Table 2 bounds.  Messages are immutable value objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.net.wire import Encoding


class Message:
    """Base class for all protocol messages."""

    __slots__ = ()

    def bits(self, encoding: Encoding) -> int:
        """Wire size of this message in bits under ``encoding``."""
        raise NotImplementedError

    @property
    def type_name(self) -> str:
        return type(self).__name__


# -- vector synchronization ------------------------------------------------------


@dataclass(frozen=True)
class ElementMsg(Message):
    """A BRV element record ``(i, v[i])`` — ``log(2mn)`` bits."""

    site: str
    value: int

    def bits(self, encoding: Encoding) -> int:
        """Wire size in bits (see the class docstring)."""
        return encoding.site_bits + encoding.value_field_bits(self.value) + 1


@dataclass(frozen=True)
class ElementCMsg(Message):
    """A CRV element triple ``(i, v[i], c[i])`` — ``log(4mn)`` bits."""

    site: str
    value: int
    conflict: bool

    def bits(self, encoding: Encoding) -> int:
        """Wire size in bits (see the class docstring)."""
        return encoding.site_bits + encoding.value_field_bits(self.value) + 2


@dataclass(frozen=True)
class ElementSMsg(Message):
    """An SRV element quadruple ``(i, v[i], c[i], s[i])`` — ``log(8mn)`` bits."""

    site: str
    value: int
    conflict: bool
    segment: bool

    def bits(self, encoding: Encoding) -> int:
        """Wire size in bits (see the class docstring)."""
        return encoding.site_bits + encoding.value_field_bits(self.value) + 3


@dataclass(frozen=True)
class Halt(Message):
    """Terminates a session, in either direction.

    Table 2 prices HALT at 2 bits for BRV/CRV and 1 bit for SRV (where the
    framing space is shared with SKIP); the constructing protocol passes the
    applicable price.
    """

    cost_bits: int = 2

    def bits(self, encoding: Encoding) -> int:
        """Wire size in bits (see the class docstring)."""
        return self.cost_bits


@dataclass(frozen=True)
class Skip(Message):
    """``(SKIP, segs)`` — asks the SRV sender to skip segment ``segs``."""

    segs: int

    def bits(self, encoding: Encoding) -> int:
        """Wire size in bits (see the class docstring)."""
        return encoding.skip_bits


@dataclass(frozen=True)
class FullVectorMsg(Message):
    """The traditional baseline: an entire version vector in one message."""

    pairs: Tuple[Tuple[str, int], ...]

    def bits(self, encoding: Encoding) -> int:
        """Wire size in bits (see the class docstring)."""
        return encoding.site_bits + sum(
            encoding.site_bits + encoding.value_field_bits(value)
            for _, value in self.pairs)


@dataclass(frozen=True)
class KnowledgeMsg(FullVectorMsg):
    """A store site's knowledge vector ``{origin: events seen}``.

    Opens an anti-entropy pull (receiver → sender, the *advert*) and
    rides back on the reply; it is a whole vector and is priced as one.
    Key *names* are not priced anywhere in the store — frames carry
    γ(object index), as read-repair sessions always have.
    """


# -- COMPARE -----------------------------------------------------------------------


@dataclass(frozen=True)
class CompareLeast(Message):
    """The least element ``⌊v⌋`` exchanged by distributed COMPARE.

    ``log(mn)`` bits; an empty vector is announced with ``site=None`` (the
    all-zero element record, same width).
    """

    site: Optional[str]
    value: int = 0

    def bits(self, encoding: Encoding) -> int:
        """Wire size in bits (see the class docstring)."""
        return encoding.site_bits + encoding.value_field_bits(self.value)


@dataclass(frozen=True)
class VerdictBit(Message):
    """One predicate bit closing the distributed COMPARE exchange."""

    dominated: bool

    def bits(self, encoding: Encoding) -> int:
        """Wire size in bits (see the class docstring)."""
        return 1


# -- causal graph synchronization -----------------------------------------------


@dataclass(frozen=True)
class GraphNodeMsg(Message):
    """A SYNCG node record: ``(i, LP(i), RP(i))``."""

    node: int
    left_parent: Optional[int]
    right_parent: Optional[int]

    def bits(self, encoding: Encoding) -> int:
        """Wire size in bits (see the class docstring)."""
        return encoding.graph_node_bits


@dataclass(frozen=True)
class SkipToMsg(Message):
    """A SYNCG redirection: resume the DFS from this stack node."""

    node: int

    def bits(self, encoding: Encoding) -> int:
        """Wire size in bits (see the class docstring)."""
        return encoding.skipto_bits


@dataclass(frozen=True)
class AbortMsg(Message):
    """SYNCG receiver's "nothing left that I need" signal (see DESIGN.md)."""

    def bits(self, encoding: Encoding) -> int:
        """Wire size in bits (see the class docstring)."""
        return 1


@dataclass(frozen=True)
class FullGraphMsg(Message):
    """The traditional baseline: an entire causal graph in one message."""

    nodes: Tuple[Tuple[int, Optional[int], Optional[int]], ...]

    def bits(self, encoding: Encoding) -> int:
        """Wire size in bits (see the class docstring)."""
        return encoding.full_graph_bits(len(self.nodes))


# -- replica payloads ---------------------------------------------------------------


@dataclass(frozen=True)
class PayloadMsg(Message):
    """Opaque replica content (state transfer) or operation bodies.

    Metadata experiments usually exclude payload bits; the replication layer
    accounts for them separately so both views are available.
    """

    size_bytes: int

    def bits(self, encoding: Encoding) -> int:
        """Wire size in bits (see the class docstring)."""
        return 8 * self.size_bytes
