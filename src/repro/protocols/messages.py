"""Message types exchanged by the synchronization protocols.

Each message knows its own wire price in bits under a given
:class:`~repro.net.wire.Encoding`; see that module for how the prices add
up to the paper's Table 2 bounds.  Messages are immutable value objects.

Wire values are tuples
----------------------

Every message here, :class:`~repro.protocols.batch.BatchFrame` and every
effect in :mod:`repro.protocols.effects` is declared with
:func:`wire_value`: a frozen dataclass *stored as the tuple of its
fields*.  It keeps the dataclass contract — ``dataclasses.fields``,
``replace`` and ``asdict``, the dataclass ``repr``,
``FrozenInstanceError`` on assignment, class-checked ``==`` and the
field-tuple hash — and adds nothing the old values lacked except the
read path below.  Instances carry no ``__dict__``, every instance is
truthy (zero-field values included), ``<`` raises ``TypeError``, and
``copy``/``deepcopy``/``pickle`` round-trip.

The representation is the fast path.  ``tuple.__new__(ElementSMsg, row)``
builds a message from a ``(site, value, conflict, segment)`` row in one C
call, with no Python ``__init__`` frame and no instance dict; the SYNC*
senders and the codec's decoder build every element that way.  The tuple
passed must hold exactly the class's fields, in declaration order.  Reading
back, ``len()``, iteration and unpacking (``site, value, conflict,
segment = message``) are the fast read path beside the named fields.
"""

from __future__ import annotations

from _collections import _tuplegetter  # namedtuple's C field descriptor
from dataclasses import MISSING, dataclass, fields
from typing import Any, Optional, Tuple, TypeVar

from repro.net.wire import Encoding

_W = TypeVar("_W", bound="WireValue")


class WireValue(tuple):
    """Base of every :func:`wire_value` class: a tuple of its fields.

    Restores what the plain dataclass had and a bare tuple would lose:
    truthiness, class-checked equality and no ordering.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return True

    def __eq__(self, other: object) -> Any:
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        # Another tuple (a plain one, or another wire type with the same
        # field values) is never equal; anything else gets its own say.
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> Any:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = tuple.__hash__

    def __lt__(self, other: object) -> Any:
        # Raise rather than return NotImplemented: a plain tuple on the
        # other side would answer with a lexicographic comparison.
        raise TypeError(f"{type(self).__name__} values are unordered")

    __le__ = __gt__ = __ge__ = __lt__

    def __getnewargs__(self) -> Tuple[Any, ...]:
        # copy and pickle rebuild through __new__(cls, *fields).
        return tuple(self)


def wire_value(cls: type[_W]) -> type[_W]:
    """Declare a message or effect: a frozen dataclass held as a tuple.

    ``cls`` must derive from :class:`WireValue` (through :class:`Message`
    or :class:`~repro.protocols.effects.Effect`).  The class is rebuilt
    with ``__slots__ = ()`` — no instance dict — and given the frozen
    dataclass machinery, one C field descriptor per field and a
    ``__new__`` taking the fields (with their defaults) like the
    dataclass ``__init__`` did.
    """
    if not issubclass(cls, WireValue):
        raise TypeError(f"{cls.__name__} must derive from WireValue")
    namespace = {name: value for name, value in vars(cls).items()
                 if name not in ("__dict__", "__weakref__")}
    namespace["__slots__"] = ()
    cls = type(cls)(cls.__name__, cls.__bases__, namespace)
    dataclass(frozen=True, eq=False, init=False)(cls)
    declared = fields(cls)
    names = [field.name for field in declared]
    for index, name in enumerate(names):
        setattr(cls, name, _tuplegetter(index, f"Field {index}: {name}"))
    params = "".join(f", {name}" for name in names)
    items = ", ".join(names) + ("," if len(names) == 1 else "")
    new = eval(f"lambda _cls{params}: _new(_cls, ({items}))",
               {"_new": tuple.__new__, "__builtins__": {}})
    new.__defaults__ = tuple(field.default for field in declared
                             if field.default is not MISSING) or None
    new.__name__ = "__new__"
    new.__qualname__ = f"{cls.__qualname__}.__new__"
    cls.__new__ = staticmethod(new)  # type: ignore[assignment]
    return cls


class Message(WireValue):
    """Base class for all protocol messages."""

    __slots__ = ()

    def bits(self, encoding: Encoding) -> int:
        """Wire size of this message in bits under ``encoding``."""
        raise NotImplementedError

    @property
    def type_name(self) -> str:
        return type(self).__name__


# -- vector synchronization ------------------------------------------------------


@wire_value
class ElementMsg(Message):
    """A BRV element record ``(i, v[i])`` — ``log(2mn)`` bits."""

    site: str
    value: int

    def bits(self, encoding: Encoding) -> int:
        """Wire size in bits (see the class docstring)."""
        return encoding.site_bits + encoding.value_field_bits(self.value) + 1


@wire_value
class ElementCMsg(Message):
    """A CRV element triple ``(i, v[i], c[i])`` — ``log(4mn)`` bits."""

    site: str
    value: int
    conflict: bool

    def bits(self, encoding: Encoding) -> int:
        """Wire size in bits (see the class docstring)."""
        return encoding.site_bits + encoding.value_field_bits(self.value) + 2


@wire_value
class ElementSMsg(Message):
    """An SRV element quadruple ``(i, v[i], c[i], s[i])`` — ``log(8mn)`` bits."""

    site: str
    value: int
    conflict: bool
    segment: bool

    def bits(self, encoding: Encoding) -> int:
        """Wire size in bits (see the class docstring)."""
        return encoding.site_bits + encoding.value_field_bits(self.value) + 3


@wire_value
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


@wire_value
class Skip(Message):
    """``(SKIP, segs)`` — asks the SRV sender to skip segment ``segs``."""

    segs: int

    def bits(self, encoding: Encoding) -> int:
        """Wire size in bits (see the class docstring)."""
        return encoding.skip_bits


@wire_value
class FullVectorMsg(Message):
    """The traditional baseline: an entire version vector in one message."""

    pairs: Tuple[Tuple[str, int], ...]

    def bits(self, encoding: Encoding) -> int:
        """Wire size in bits (see the class docstring)."""
        return encoding.site_bits + sum(
            encoding.site_bits + encoding.value_field_bits(value)
            for _, value in self.pairs)


@wire_value
class KnowledgeMsg(FullVectorMsg):
    """A store site's knowledge vector ``{origin: events seen}``.

    Opens an anti-entropy pull (receiver → sender, the *advert*) and
    rides back on the reply; it is a whole vector and is priced as one.
    Key *names* are not priced anywhere in the store — frames carry
    each key's γ-coded index gap, as read-repair sessions always have.
    """


# -- COMPARE -----------------------------------------------------------------------


@wire_value
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


@wire_value
class VerdictBit(Message):
    """One predicate bit closing the distributed COMPARE exchange."""

    dominated: bool

    def bits(self, encoding: Encoding) -> int:
        """Wire size in bits (see the class docstring)."""
        return 1


# -- causal graph synchronization -----------------------------------------------


@wire_value
class GraphNodeMsg(Message):
    """A SYNCG node record: ``(i, LP(i), RP(i))``."""

    node: int
    left_parent: Optional[int]
    right_parent: Optional[int]

    def bits(self, encoding: Encoding) -> int:
        """Wire size in bits (see the class docstring)."""
        return encoding.graph_node_bits


@wire_value
class SkipToMsg(Message):
    """A SYNCG redirection: resume the DFS from this stack node."""

    node: int

    def bits(self, encoding: Encoding) -> int:
        """Wire size in bits (see the class docstring)."""
        return encoding.skipto_bits


@wire_value
class AbortMsg(Message):
    """SYNCG receiver's "nothing left that I need" signal (see DESIGN.md)."""

    def bits(self, encoding: Encoding) -> int:
        """Wire size in bits (see the class docstring)."""
        return 1


@wire_value
class FullGraphMsg(Message):
    """The traditional baseline: an entire causal graph in one message."""

    nodes: Tuple[Tuple[int, Optional[int], Optional[int]], ...]

    def bits(self, encoding: Encoding) -> int:
        """Wire size in bits (see the class docstring)."""
        return encoding.full_graph_bits(len(self.nodes))


# -- replica payloads ---------------------------------------------------------------


@wire_value
class PayloadMsg(Message):
    """Opaque replica content (state transfer) or operation bodies.

    Metadata experiments usually exclude payload bits; the replication layer
    accounts for them separately so both views are available.
    """

    size_bytes: int

    def bits(self, encoding: Encoding) -> int:
        """Wire size in bits (see the class docstring)."""
        return 8 * self.size_bytes
