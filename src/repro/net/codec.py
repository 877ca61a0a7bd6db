"""Bit-exact serialization of protocol messages.

Everywhere else in the library, messages are Python objects *priced* in
bits; this module makes the pricing honest by actually encoding every
message into Table 2's layouts and decoding it back.  The serialized
session driver (:func:`run_session_serialized`) routes every transmission
through encode→bits→decode and asserts the measured bit length equals the
priced one, so the communication numbers reported by the benchmarks are
realizable wire formats, not estimates.

Layouts (first bit = frame tag; widths from the session's
:class:`~repro.net.wire.Encoding`):

====================== =============================================
BRV forward            ``0 site value`` · HALT ``1 0``
CRV forward            ``0 site value c`` · HALT ``1 0``
SRV forward            ``0 site value c s`` · HALT ``1``
SRV backward           ``0 segs`` (SKIP) · HALT ``1``
graph forward          ``0 node lp rp`` · HALT ``1``
graph backward         ``0 node`` (skip-to) · ABORT ``1``
COMPARE                ``site value`` then ``bit`` (verdict)
full vector            ``count (site value)×count``
full graph             ``count (node lp rp)×count``
batch frame            ``(γ(index − prev − 1) γ(count) msg×count)×entries``
====================== =============================================

Sites ride as registry ids; graph node ids must be integers (real systems
use integer or hash identifiers — the tuple ids of the simulation layer
are a convenience above this layer).  Value fields honor the encoding's
:meth:`~repro.net.wire.Encoding.value_field_bits` hook, so the adaptive
Elias-γ extension serializes too.

Two bit-I/O implementations coexist.  :class:`BitWriter`/:class:`BitReader`
are the production fast path: an integer accumulator flushed bytes at a
time, a table-driven γ writer, and an O(1) γ reader via ``bit_length`` —
whole segments and batched frames encode in one pass instead of a Python
loop per bit.  :class:`BitByBitWriter`/:class:`BitByBitReader` keep the
original bit-at-a-time code as the equivalence oracle: both pairs must
produce byte-identical streams on every message, which the codec test
suite and the ``repro.perf.microbench`` E4/E11 cells enforce.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.errors import ProtocolError
from repro.extensions.varint import AdaptiveEncoding
from repro.net.stats import TransferStats
from repro.net.wire import Encoding
from repro.protocols.batch import BatchFrame
from repro.protocols.messages import (AbortMsg, CompareLeast, ElementCMsg,
                                      ElementMsg, ElementSMsg, FullGraphMsg,
                                      FullVectorMsg, GraphNodeMsg, Halt,
                                      Message, Skip, SkipToMsg, VerdictBit)
from repro.protocols.session import (ProtocolCoroutine, SessionResult, Wire,
                                     LocalParty, run_parties)
from repro.replication.membership import SiteRegistry

#: γ(value + 1) widths for small values, precomputed once.  Element
#: values, object indices, and per-entry message counts are almost
#: always < 1024, so the table turns the common γ write into one lookup.
_GAMMA_WIDTH = tuple(2 * (value + 1).bit_length() - 1
                     for value in range(1024))

#: Flush the writer's accumulator once it holds this many bits, keeping
#: big-int shifts short while still batching ``to_bytes`` conversions.
_FLUSH_BITS = 4096


class BitWriter:
    """Append-only big-endian bit buffer (accumulator fast path).

    Bits accumulate in one Python int — ``write`` is a shift and an OR —
    and spill to a bytearray in whole-byte chunks whenever the
    accumulator passes :data:`_FLUSH_BITS`, so the cost per field is
    O(1) amortized instead of O(width) list appends.  Byte-identical to
    :class:`BitByBitWriter` on every input.
    """

    __slots__ = ("_chunks", "_acc", "_nacc", "_emitted")

    def __init__(self) -> None:
        self._chunks = bytearray()
        self._acc = 0
        self._nacc = 0
        self._emitted = 0

    def write(self, value: int, width: int) -> None:
        """Append ``value`` as a fixed ``width``-bit big-endian field."""
        if value < 0 or (width < 64 and value >= (1 << width)):
            raise ProtocolError(f"value {value} does not fit in {width} bits")
        self._acc = (self._acc << width) | (value & ((1 << width) - 1))
        self._nacc += width
        if self._nacc >= _FLUSH_BITS:
            self._spill()

    def write_gamma(self, value: int) -> None:
        """Append Elias-γ(value + 1): self-delimiting, 1 bit for zero."""
        shifted = value + 1
        width = (_GAMMA_WIDTH[value] if 0 <= value < 1024
                 else 2 * shifted.bit_length() - 1)
        # γ is `width//2` zeros then `shifted` (whose top bit is 1) in
        # `width//2 + 1` bits — exactly `shifted` written `width` wide.
        self._acc = (self._acc << width) | shifted
        self._nacc += width
        if self._nacc >= _FLUSH_BITS:
            self._spill()

    def _spill(self) -> None:
        """Move the accumulator's whole bytes into the chunk buffer."""
        keep = self._nacc & 7
        nbytes = (self._nacc - keep) >> 3
        self._chunks += (self._acc >> keep).to_bytes(nbytes, "big")
        self._acc &= (1 << keep) - 1
        self._nacc = keep
        self._emitted += nbytes << 3

    @property
    def bit_length(self) -> int:
        """Bits written so far."""
        return self._emitted + self._nacc

    def getvalue(self) -> bytes:
        """The buffer as bytes, zero-padded to a byte boundary."""
        pad = (-self._nacc) & 7
        tail = ((self._acc << pad).to_bytes((self._nacc + pad) >> 3, "big")
                if self._nacc else b"")
        return bytes(self._chunks) + tail


class BitReader:
    """Sequential reader over a :class:`BitWriter`'s output.

    Fields are served from a small int accumulator refilled eight bytes
    at a time, so every read costs O(1) *in the stream length*: decoding
    an n-element segment walk is O(n).  (Converting the whole buffer to
    one big int up front looks elegant but makes every shift O(total
    bits) and the walk quadratic.)  γ fields still decode without a
    bit-at-a-time zero scan: the accumulator's ``int.bit_length`` finds
    the marker inside the current window directly.
    """

    __slots__ = ("_data", "_bit_length", "_position", "_byte_pos",
                 "_acc", "_nacc")

    def __init__(self, data: bytes, bit_length: int) -> None:
        self._data = data
        self._bit_length = bit_length
        self._position = 0
        self._byte_pos = 0
        #: Accumulator invariant: ``_acc`` holds exactly the next
        #: ``_nacc`` unconsumed bits (no stale high bits).
        self._acc = 0
        self._nacc = 0

    def _refill(self, need: int) -> None:
        """Pull bytes into the accumulator until it holds ``need`` bits."""
        acc, nacc = self._acc, self._nacc
        data, pos = self._data, self._byte_pos
        while nacc < need:
            chunk = data[pos:pos + 8]
            if not chunk:
                raise ProtocolError("bitstream underrun")
            bits = len(chunk) * 8
            acc = (acc << bits) | int.from_bytes(chunk, "big")
            nacc += bits
            pos += len(chunk)
        self._acc, self._nacc, self._byte_pos = acc, nacc, pos

    def read(self, width: int) -> int:
        """Read a fixed ``width``-bit big-endian field."""
        position = self._position
        if position + width > self._bit_length:
            raise ProtocolError("bitstream underrun")
        if self._nacc < width:
            self._refill(width)
        self._position = position + width
        nacc = self._nacc - width
        value = self._acc >> nacc
        self._acc &= (1 << nacc) - 1
        self._nacc = nacc
        return value

    def read_gamma(self) -> int:
        """Read an Elias-γ field written by :meth:`BitWriter.write_gamma`."""
        position = self._position
        acc, nacc = self._acc, self._nacc
        data, pos = self._data, self._byte_pos
        zeros = 0
        while acc == 0:
            # The current window is all zeros: consume it and refill.
            # Running out of bytes means the zero run crosses the end of
            # the stream (padding is zero-filled) — an underrun.
            zeros += nacc
            chunk = data[pos:pos + 8]
            if not chunk:
                raise ProtocolError("bitstream underrun")
            acc = int.from_bytes(chunk, "big")
            nacc = len(chunk) * 8
            pos += len(chunk)
        zeros += nacc - acc.bit_length()
        end = position + 2 * zeros + 1
        if end > self._bit_length:
            raise ProtocolError("bitstream underrun")
        # Commit the zero-skip, then read marker + payload as one field.
        self._acc, self._nacc, self._byte_pos = acc, acc.bit_length(), pos
        need = zeros + 1
        if self._nacc < need:
            self._refill(need)
        nacc = self._nacc - need
        value = self._acc >> nacc
        self._acc &= (1 << nacc) - 1
        self._nacc = nacc
        self._position = end
        return value - 1

    @property
    def remaining(self) -> int:
        """Unread bits."""
        return self._bit_length - self._position


class BitByBitWriter:
    """The original one-bit-at-a-time writer, kept as the oracle.

    :class:`BitWriter` must produce byte-identical output; the codec
    tests and microbench cells drive both over the same streams.
    """

    def __init__(self) -> None:
        self._bits: List[int] = []

    def write(self, value: int, width: int) -> None:
        """Append ``value`` as a fixed ``width``-bit big-endian field."""
        if value < 0 or (width < 64 and value >= (1 << width)):
            raise ProtocolError(f"value {value} does not fit in {width} bits")
        for position in range(width - 1, -1, -1):
            self._bits.append((value >> position) & 1)

    def write_gamma(self, value: int) -> None:
        """Append Elias-γ(value + 1): self-delimiting, 1 bit for zero."""
        shifted = value + 1
        length = shifted.bit_length() - 1
        for _ in range(length):
            self._bits.append(0)
        self.write(shifted, length + 1)

    @property
    def bit_length(self) -> int:
        """Bits written so far."""
        return len(self._bits)

    def getvalue(self) -> bytes:
        """The buffer as bytes, zero-padded to a byte boundary."""
        padded = self._bits + [0] * (-len(self._bits) % 8)
        out = bytearray()
        for index in range(0, len(padded), 8):
            byte = 0
            for bit in padded[index:index + 8]:
                byte = (byte << 1) | bit
            out.append(byte)
        return bytes(out)


class BitByBitReader:
    """The original one-bit-at-a-time reader, kept as the oracle."""

    def __init__(self, data: bytes, bit_length: int) -> None:
        self._data = data
        self._bit_length = bit_length
        self._position = 0

    def read(self, width: int) -> int:
        """Read a fixed ``width``-bit big-endian field."""
        if self._position + width > self._bit_length:
            raise ProtocolError("bitstream underrun")
        value = 0
        for _ in range(width):
            byte = self._data[self._position // 8]
            bit = (byte >> (7 - self._position % 8)) & 1
            value = (value << 1) | bit
            self._position += 1
        return value

    def read_gamma(self) -> int:
        """Read an Elias-γ field written by ``write_gamma``."""
        length = 0
        while self.read(1) == 0:
            length += 1
        value = 1
        for _ in range(length):
            value = (value << 1) | self.read(1)
        return value - 1

    @property
    def remaining(self) -> int:
        """Unread bits."""
        return self._bit_length - self._position


#: Channel identifiers: (protocol kind, direction).
CHANNELS = ("brv_fwd", "brv_bwd", "crv_fwd", "crv_bwd", "srv_fwd",
            "srv_bwd", "graph_fwd", "graph_bwd", "compare",
            "full_vector", "full_graph")

#: Reserved graph-id code for "no parent" (ids are shifted by one).
_NIL = 0


class NodeInterner:
    """Bijective mapping between arbitrary graph node ids and wire ints.

    Operation identifiers in the simulation layer are ``(site, seq)``
    tuples; on a real wire they would be integers or content hashes that
    both parties compute identically.  The interner stands in for that:
    one instance is shared by both endpoints of a session (like the site
    registry), assigning dense integer codes on first sight.
    """

    def __init__(self) -> None:
        self._codes: dict = {}
        self._nodes: list = []

    def encode(self, node: Any) -> int:
        """The wire integer for ``node``, assigned on first use."""
        code = self._codes.get(node)
        if code is None:
            code = len(self._nodes)
            self._codes[node] = code
            self._nodes.append(node)
        return code

    def decode(self, code: int) -> Any:
        """The node id behind a wire integer."""
        try:
            return self._nodes[code]
        except IndexError:
            raise ProtocolError(f"unknown node code {code}") from None

    def __len__(self) -> int:
        return len(self._nodes)


class _IdentityInterner:
    """Default interner: node ids are already integers."""

    def encode(self, node: Any) -> int:
        """Pass an int through, rejecting anything else."""
        if not isinstance(node, int) or node < 0:
            raise ProtocolError(
                f"graph node id {node!r} is not a non-negative int; "
                f"pass a NodeInterner to the codec")
        return node

    def decode(self, code: int) -> Any:
        """Pass the wire int through unchanged."""
        return code


class Codec:
    """Encode/decode every protocol message under one system's encoding.

    Args:
        encoding: field widths (and value-field pricing policy).
        registry: site-name ↔ id mapping shared by both parties (the
            membership manager's responsibility in a deployment).  Site id
            0 is reserved to announce an empty vector in COMPARE, so the
            wire id of site *k* is *k + 1* — which is why
            :func:`~repro.net.wire.bits_for` sizes fields for ``count + 1``.
        interner: graph node-id mapping (defaults to integer ids).
        bit_io: the ``(writer class, reader class)`` pair — the default
            fast pair, or ``(BitByBitWriter, BitByBitReader)`` to run the
            codec over the oracle implementation for equivalence checks.
    """

    def __init__(self, encoding: Encoding, registry: SiteRegistry,
                 interner: Any = None,
                 bit_io: Optional[Tuple[type, type]] = None) -> None:
        self.encoding = encoding
        self.registry = registry
        self.interner = interner if interner is not None else _IdentityInterner()
        self._adaptive = isinstance(encoding, AdaptiveEncoding)
        self._writer_cls, self._reader_cls = bit_io or (BitWriter, BitReader)

    # -- field helpers -----------------------------------------------------------

    def _write_site(self, writer: Any, site: Optional[str]) -> None:
        code = 0 if site is None else self.registry.id_of(site) + 1
        writer.write(code, self.encoding.site_bits)

    def _read_site(self, reader: Any) -> Optional[str]:
        code = reader.read(self.encoding.site_bits)
        return None if code == 0 else self.registry.name_of(code - 1)

    def _write_value(self, writer: Any, value: int) -> None:
        if self._adaptive:
            writer.write_gamma(value)
        else:
            writer.write(value, self.encoding.value_bits)

    def _read_value(self, reader: Any) -> int:
        if self._adaptive:
            return reader.read_gamma()
        return reader.read(self.encoding.value_bits)

    def _write_node(self, writer: Any, node: Optional[Any]) -> None:
        code = _NIL if node is None else self.interner.encode(node) + 1
        writer.write(code, self.encoding.node_id_bits)

    def _read_node(self, reader: Any) -> Optional[Any]:
        code = reader.read(self.encoding.node_id_bits)
        return None if code == _NIL else self.interner.decode(code - 1)

    # -- encoding -------------------------------------------------------------------

    def encode(self, message: Message, channel: str) -> Tuple[bytes, int]:
        """Serialize ``message`` for ``channel``; returns (bytes, bit length)."""
        writer = self._writer_cls()
        self._encode_one(writer, message, channel)
        return writer.getvalue(), writer.bit_length

    def encode_elements(self, messages: Sequence[Message],
                        channel: str) -> Tuple[bytes, int]:
        """Serialize a whole message stream for ``channel`` in one pass.

        The segment-at-once fast path: one writer accumulates every
        message (an entire SYNCS segment, a full element walk) without
        the per-message buffer and byte-assembly overhead of calling
        :meth:`encode` in a loop.  Sync-channel messages are
        self-delimiting, so :meth:`decode_elements` recovers the stream
        from the concatenated bits alone.  Not valid for ``compare``,
        whose verdict bit is only delimited by the message boundary.
        """
        if channel == "compare":
            raise ProtocolError(
                "compare messages are not self-delimiting; "
                "encode them individually")
        writer = self._writer_cls()
        if (type(writer) is BitWriter
                and channel in ("brv_fwd", "crv_fwd", "srv_fwd")):
            self._encode_element_stream(writer, messages, channel)
        else:
            encode_one = self._encode_one
            for message in messages:
                encode_one(writer, message, channel)
        return writer.getvalue(), writer.bit_length

    def decode_elements(self, data: bytes, bit_length: int,
                        channel: str) -> List[Message]:
        """Reconstruct the stream serialized by :meth:`encode_elements`."""
        if channel == "compare":
            raise ProtocolError(
                "compare messages are not self-delimiting; "
                "decode them individually")
        reader = self._reader_cls(data, bit_length)
        if (type(reader) is BitReader
                and channel in ("brv_fwd", "crv_fwd", "srv_fwd")):
            return self._decode_element_stream(reader, channel)
        decode_one = self._decode_one
        messages: List[Message] = []
        while reader.remaining:
            messages.append(decode_one(reader, channel))
        return messages

    def encode_batch(self, frame: BatchFrame,
                     channel: str) -> Tuple[bytes, int]:
        """Serialize a whole :class:`~repro.protocols.batch.BatchFrame`.

        One pass over every entry: γ(gap to the previous entry's index),
        γ(message count), then the entry's payload messages back to back
        — exactly the layout :meth:`BatchFrame.bits` prices, so the
        serialized length always equals the priced length.
        """
        if channel == "compare":
            raise ProtocolError("compare messages never ride batch frames")
        writer = self._writer_cls()
        if (type(writer) is BitWriter
                and channel in ("brv_fwd", "crv_fwd", "srv_fwd")):
            self._encode_element_stream(writer, (), channel,
                                        entries=frame.entries)
            return writer.getvalue(), writer.bit_length
        encode_one = self._encode_one
        prev = -1
        for index, messages in frame.entries:
            if index <= prev:
                raise ProtocolError(
                    f"batch frame indices must strictly increase: {frame!r}")
            writer.write_gamma(index - prev - 1)
            writer.write_gamma(len(messages))
            prev = index
            for message in messages:
                encode_one(writer, message, channel)
        return writer.getvalue(), writer.bit_length

    def decode_batch(self, data: bytes, bit_length: int,
                     channel: str) -> BatchFrame:
        """Reconstruct the frame serialized by :meth:`encode_batch`."""
        if channel == "compare":
            raise ProtocolError("compare messages never ride batch frames")
        reader = self._reader_cls(data, bit_length)
        if (type(reader) is BitReader
                and channel in ("brv_fwd", "crv_fwd", "srv_fwd")):
            return BatchFrame(tuple(
                self._decode_element_stream(reader, channel, frame=True)))
        entries: List[Tuple[int, Tuple[Message, ...]]] = []
        decode_one = self._decode_one
        index = -1
        while reader.remaining:
            index += reader.read_gamma() + 1
            count = reader.read_gamma()
            entries.append((index, tuple(decode_one(reader, channel)
                                         for _ in range(count))))
        return BatchFrame(tuple(entries))

    def _encode_one(self, writer: Any, message: Message,
                    channel: str) -> None:
        """Append one message's bits to ``writer`` (any bit-IO impl)."""
        if channel in ("brv_fwd", "crv_fwd", "srv_fwd"):
            self._encode_forward_element(writer, message, channel)
        elif channel in ("brv_bwd", "crv_bwd"):
            if not isinstance(message, Halt):
                raise ProtocolError(f"{channel} carries HALT only")
            writer.write(0b10, 2)
        elif channel == "srv_bwd":
            if isinstance(message, Halt):
                writer.write(1, 1)
            elif isinstance(message, Skip):
                writer.write(0, 1)
                writer.write(message.segs, self.encoding.site_bits)
            else:
                raise ProtocolError(f"srv_bwd cannot carry {message!r}")
        elif channel == "graph_fwd":
            if isinstance(message, Halt):
                writer.write(1, 1)
            elif isinstance(message, GraphNodeMsg):
                writer.write(0, 1)
                self._write_node(writer, message.node)
                self._write_node(writer, message.left_parent)
                self._write_node(writer, message.right_parent)
            else:
                raise ProtocolError(f"graph_fwd cannot carry {message!r}")
        elif channel == "graph_bwd":
            if isinstance(message, AbortMsg):
                writer.write(1, 1)
            elif isinstance(message, SkipToMsg):
                writer.write(0, 1)
                self._write_node(writer, message.node)
            else:
                raise ProtocolError(f"graph_bwd cannot carry {message!r}")
        elif channel == "compare":
            if isinstance(message, CompareLeast):
                self._write_site(writer, message.site)
                self._write_value(writer, message.value)
            elif isinstance(message, VerdictBit):
                writer.write(1 if message.dominated else 0, 1)
            else:
                raise ProtocolError(f"compare cannot carry {message!r}")
        elif channel == "full_vector":
            if not isinstance(message, FullVectorMsg):
                raise ProtocolError(f"full_vector cannot carry {message!r}")
            writer.write(len(message.pairs), self.encoding.site_bits)
            for site, value in message.pairs:
                self._write_site(writer, site)
                self._write_value(writer, value)
        elif channel == "full_graph":
            if not isinstance(message, FullGraphMsg):
                raise ProtocolError(f"full_graph cannot carry {message!r}")
            writer.write(len(message.nodes), self.encoding.node_id_bits)
            for node, left, right in message.nodes:
                self._write_node(writer, node)
                self._write_node(writer, left)
                self._write_node(writer, right)
        else:
            raise ProtocolError(f"unknown channel {channel!r}")

    def _encode_forward_element(self, writer: Any, message: Message,
                                channel: str) -> None:
        if isinstance(message, Halt):
            if channel == "srv_fwd":
                writer.write(1, 1)
            else:
                writer.write(0b10, 2)
            return
        writer.write(0, 1)
        if channel == "brv_fwd":
            assert isinstance(message, ElementMsg)
            self._write_site(writer, message.site)
            self._write_value(writer, message.value)
        elif channel == "crv_fwd":
            assert isinstance(message, ElementCMsg)
            self._write_site(writer, message.site)
            self._write_value(writer, message.value)
            writer.write(1 if message.conflict else 0, 1)
        else:
            assert isinstance(message, ElementSMsg)
            self._write_site(writer, message.site)
            self._write_value(writer, message.value)
            writer.write(1 if message.conflict else 0, 1)
            writer.write(1 if message.segment else 0, 1)

    def _encode_element_stream(self, writer: "BitWriter",
                               messages: Sequence[Message],
                               channel: str,
                               entries: Optional[Sequence[
                                   Tuple[int, Sequence[Message]]]] = None
                               ) -> None:
        """Append a forward-element stream straight into the accumulator.

        The specialized hot path behind :meth:`encode_elements` and
        :meth:`encode_batch` for the three element channels: field
        widths, the site-id map, and the γ table are hoisted into locals
        and each message folds into the writer's int accumulator with a
        couple of shift-or operations instead of per-field method
        dispatch.  Bit-for-bit identical to looping
        :meth:`_encode_forward_element` — the oracle equivalence tests
        check exactly that.

        With ``entries`` this writes a whole :class:`BatchFrame` body —
        each entry's γ(index gap) γ(count) header followed by its
        messages — in the same single pass (``messages`` is ignored); one
        call per frame keeps the hoisting prologue off the per-entry cost.
        """
        encoding = self.encoding
        site_bits = encoding.site_bits
        site_limit = (1 << site_bits) if site_bits < 64 else 0
        adaptive = self._adaptive
        value_bits = 0 if adaptive else encoding.value_bits
        value_limit = ((1 << value_bits)
                       if not adaptive and value_bits < 64 else 0)
        id_of = self.registry.id_of
        gamma_width = _GAMMA_WIDTH
        srv = channel == "srv_fwd"
        if srv:
            element_cls: type = ElementSMsg
        elif channel == "crv_fwd":
            element_cls = ElementCMsg
        else:
            element_cls = ElementMsg
        acc = writer._acc
        nacc = writer._nacc
        groups = (((-1, messages),) if entries is None else entries)
        prev = -1
        for group_index, group_messages in groups:
            if group_index >= 0:
                if group_index <= prev:
                    writer._acc, writer._nacc = acc, nacc
                    raise ProtocolError(
                        f"batch frame indices must strictly increase: "
                        f"{[index for index, _ in groups]}")
                # Batch-entry header: γ(index − prev − 1) then γ(count).
                for header in (group_index - prev - 1, len(group_messages)):
                    shifted = header + 1
                    width = (gamma_width[header] if 0 <= header < 1024
                             else 2 * shifted.bit_length() - 1)
                    acc = (acc << width) | shifted
                    nacc += width
                prev = group_index
                if nacc >= _FLUSH_BITS:
                    writer._acc, writer._nacc = acc, nacc
                    writer._spill()
                    acc, nacc = writer._acc, writer._nacc
            for message in group_messages:
                if type(message) is element_cls:
                    code = id_of(message.site) + 1
                    if site_limit and code >= site_limit:
                        writer._acc, writer._nacc = acc, nacc
                        raise ProtocolError(
                            f"value {code} does not fit in {site_bits} bits")
                    value = message.value
                    # Tag bit 0 and the site id land in one shift-or.
                    acc = (acc << (1 + site_bits)) | code
                    nacc += 1 + site_bits
                    if adaptive:
                        shifted = value + 1
                        width = (gamma_width[value] if 0 <= value < 1024
                                 else 2 * shifted.bit_length() - 1)
                        acc = (acc << width) | shifted
                        nacc += width
                    else:
                        if value < 0 or (value_limit
                                         and value >= value_limit):
                            writer._acc, writer._nacc = acc, nacc
                            raise ProtocolError(
                                f"value {value} does not fit in "
                                f"{value_bits} bits")
                        acc = ((acc << value_bits)
                               | (value & ((1 << value_bits) - 1)))
                        nacc += value_bits
                    if srv:
                        acc = ((acc << 2) | (2 if message.conflict else 0)
                               | (1 if message.segment else 0))
                        nacc += 2
                    elif element_cls is ElementCMsg:
                        acc = (acc << 1) | (1 if message.conflict else 0)
                        nacc += 1
                elif type(message) is Halt:
                    if srv:
                        acc = (acc << 1) | 1
                        nacc += 1
                    else:
                        acc = (acc << 2) | 0b10
                        nacc += 2
                else:
                    # Subclasses and wrong types take the generic path so
                    # the historical isinstance semantics and errors
                    # survive.
                    writer._acc, writer._nacc = acc, nacc
                    self._encode_forward_element(writer, message, channel)
                    acc, nacc = writer._acc, writer._nacc
                    continue
                if nacc >= _FLUSH_BITS:
                    writer._acc, writer._nacc = acc, nacc
                    writer._spill()
                    acc, nacc = writer._acc, writer._nacc
        writer._acc, writer._nacc = acc, nacc

    # -- decoding --------------------------------------------------------------------

    def decode(self, data: bytes, bit_length: int, channel: str) -> Message:
        """Reconstruct the message serialized by :meth:`encode`."""
        reader = self._reader_cls(data, bit_length)
        if channel == "compare":
            # COMPARE is the one channel whose messages are delimited by
            # the message boundary itself, not self-describing bits.
            if bit_length == 1:
                return VerdictBit(bool(reader.read(1)))
            site = self._read_site(reader)
            return CompareLeast(site, self._read_value(reader))
        return self._decode_one(reader, channel)

    def _decode_one(self, reader: Any, channel: str) -> Message:
        """Read one self-delimiting message off ``reader``."""
        if channel in ("brv_fwd", "crv_fwd", "srv_fwd"):
            if reader.read(1) == 1:
                if channel != "srv_fwd":
                    reader.read(1)
                    return Halt(2)
                return Halt(1)
            site = self._read_site(reader)
            assert site is not None
            value = self._read_value(reader)
            if channel == "brv_fwd":
                return ElementMsg(site, value)
            if channel == "crv_fwd":
                return ElementCMsg(site, value, bool(reader.read(1)))
            return ElementSMsg(site, value, bool(reader.read(1)),
                               bool(reader.read(1)))
        if channel in ("brv_bwd", "crv_bwd"):
            reader.read(2)
            return Halt(2)
        if channel == "srv_bwd":
            if reader.read(1) == 1:
                return Halt(1)
            return Skip(reader.read(self.encoding.site_bits))
        if channel == "graph_fwd":
            if reader.read(1) == 1:
                return Halt(1)
            node = self._read_node(reader)
            assert node is not None
            return GraphNodeMsg(node, self._read_node(reader),
                                self._read_node(reader))
        if channel == "graph_bwd":
            if reader.read(1) == 1:
                return AbortMsg()
            node = self._read_node(reader)
            assert node is not None
            return SkipToMsg(node)
        if channel == "full_vector":
            count = reader.read(self.encoding.site_bits)
            pairs = []
            for _ in range(count):
                site = self._read_site(reader)
                assert site is not None
                pairs.append((site, self._read_value(reader)))
            return FullVectorMsg(tuple(pairs))
        if channel == "full_graph":
            count = reader.read(self.encoding.node_id_bits)
            rows = []
            for _ in range(count):
                node = self._read_node(reader)
                assert node is not None
                rows.append((node, self._read_node(reader),
                             self._read_node(reader)))
            return FullGraphMsg(tuple(rows))
        if channel == "compare":
            raise ProtocolError(
                "compare messages are not self-delimiting; "
                "decode them individually")
        raise ProtocolError(f"unknown channel {channel!r}")

    def _decode_element_stream(self, reader: "BitReader", channel: str,
                               frame: bool = False) -> List[Any]:
        """Read forward-element messages straight off the reader's buffer.

        Specialized counterpart of :meth:`_encode_element_stream`:
        decodes everything up to the declared bit length with hoisted
        locals and inline shift/mask field extraction.  Equivalent to
        looping :meth:`_decode_one`, including every underrun error.

        With ``frame=True`` the stream is a :class:`BatchFrame` body —
        γ(index gap) γ(count) headers followed by ``count`` messages, back
        to back — and the return value is the entry list
        ``[(index, (messages...)), ...]`` instead of a flat message
        list.  Decoding the whole frame in one call keeps the per-entry
        cost at the per-message level instead of paying the hoisting
        prologue once per entry.
        """
        data = reader._data
        bit_length = reader._bit_length
        position = reader._position
        byte_pos = reader._byte_pos
        acc = reader._acc
        nacc = reader._nacc
        encoding = self.encoding
        site_bits = encoding.site_bits
        adaptive = self._adaptive
        value_bits = 0 if adaptive else encoding.value_bits
        name_of = self.registry.name_of
        srv = channel == "srv_fwd"
        crv = channel == "crv_fwd"
        #: Bits a non-γ message prefix needs (tag + site + fixed value +
        #: flags); one refill check per message covers every fixed field.
        fixed_need = 1 + site_bits + value_bits + (2 if srv else
                                                   1 if crv else 0)
        out: List[Message] = []
        append = out.append
        entries: List[Tuple[int, Tuple[Message, ...]]] = []
        group_index = -1
        remaining_msgs: Optional[int] = 0 if frame else None
        # Messages are tuples of their fields (repro.protocols.messages),
        # so each decoded element is built from its fields in one C call,
        # with no Python-level constructor.  The oracle equivalence tests
        # compare these against normally constructed messages.
        msg_cls: type = (ElementSMsg if srv else ElementCMsg if crv
                         else ElementMsg)

        def refill(need: int) -> None:
            """Top up the local accumulator to ``need`` bits."""
            nonlocal acc, nacc, byte_pos
            while nacc < need:
                chunk = data[byte_pos:byte_pos + 8]
                if not chunk:
                    raise ProtocolError("bitstream underrun")
                bits = len(chunk) * 8
                acc = (acc << bits) | int.from_bytes(chunk, "big")
                nacc += bits
                byte_pos += len(chunk)

        while True:
            if frame:
                if remaining_msgs:
                    remaining_msgs -= 1
                else:
                    # Between groups: flush the finished one, stop at the
                    # end of the stream, or read the next γ(index gap)
                    # γ(count) header pair inline.
                    if group_index >= 0:
                        entries.append((group_index, tuple(out)))
                        out = []
                        append = out.append
                    if position >= bit_length:
                        break
                    for header_slot in (0, 1):
                        zeros = 0
                        while acc == 0:
                            zeros += nacc
                            chunk = data[byte_pos:byte_pos + 8]
                            if not chunk:
                                raise ProtocolError("bitstream underrun")
                            acc = int.from_bytes(chunk, "big")
                            nacc = len(chunk) * 8
                            byte_pos += len(chunk)
                        zeros += nacc - acc.bit_length()
                        end = position + 2 * zeros + 1
                        if end > bit_length:
                            raise ProtocolError("bitstream underrun")
                        nacc = acc.bit_length()
                        need = zeros + 1
                        if nacc < need:
                            refill(need)
                        nacc -= need
                        header = (acc >> nacc) - 1
                        acc &= (1 << nacc) - 1
                        position = end
                        if header_slot == 0:
                            group_index += header + 1
                        else:
                            remaining_msgs = header
                    continue
            elif position >= bit_length:
                break
            if position >= bit_length:
                raise ProtocolError("bitstream underrun")
            if nacc < fixed_need:
                # Best-effort: near the stream tail fewer bits may exist
                # than a full element needs (HALT is 1–2 bits).
                try:
                    refill(fixed_need)
                except ProtocolError:
                    refill(1)
            nacc -= 1
            if acc >> nacc:  # tag bit 1: HALT
                acc &= (1 << nacc) - 1
                if srv:
                    append(Halt(1))
                else:
                    if position + 2 > bit_length:
                        raise ProtocolError("bitstream underrun")
                    if nacc < 1:
                        refill(1)
                    nacc -= 1
                    acc &= (1 << nacc) - 1
                    position += 2
                    append(Halt(2))
                    continue
                position += 1
                continue
            if position + 1 + site_bits > bit_length:
                raise ProtocolError("bitstream underrun")
            if nacc < site_bits:
                refill(site_bits)
            nacc -= site_bits
            code = acc >> nacc
            acc &= (1 << nacc) - 1
            position += 1 + site_bits
            site = None if code == 0 else name_of(code - 1)
            assert site is not None
            if adaptive:
                zeros = 0
                while acc == 0:
                    zeros += nacc
                    chunk = data[byte_pos:byte_pos + 8]
                    if not chunk:
                        raise ProtocolError("bitstream underrun")
                    acc = int.from_bytes(chunk, "big")
                    nacc = len(chunk) * 8
                    byte_pos += len(chunk)
                zeros += nacc - acc.bit_length()
                end = position + 2 * zeros + 1
                if end > bit_length:
                    raise ProtocolError("bitstream underrun")
                nacc = acc.bit_length()
                need = zeros + 1
                if nacc < need:
                    refill(need)
                nacc -= need
                value = (acc >> nacc) - 1
                acc &= (1 << nacc) - 1
                position = end
            else:
                if position + value_bits > bit_length:
                    raise ProtocolError("bitstream underrun")
                if nacc < value_bits:
                    refill(value_bits)
                nacc -= value_bits
                value = acc >> nacc
                acc &= (1 << nacc) - 1
                position += value_bits
            if srv:
                if position + 2 > bit_length:
                    raise ProtocolError("bitstream underrun")
                if nacc < 2:
                    refill(2)
                nacc -= 2
                two = acc >> nacc
                acc &= (1 << nacc) - 1
                position += 2
                append(tuple.__new__(msg_cls, (site, value, two >= 2,
                                               (two & 1) == 1)))
            elif crv:
                if position >= bit_length:
                    raise ProtocolError("bitstream underrun")
                if nacc < 1:
                    refill(1)
                nacc -= 1
                bit = acc >> nacc
                acc &= (1 << nacc) - 1
                position += 1
                append(tuple.__new__(msg_cls, (site, value, bit == 1)))
            else:
                append(tuple.__new__(msg_cls, (site, value)))
        reader._position = position
        reader._byte_pos = byte_pos
        reader._acc = acc
        reader._nacc = nacc
        return entries if frame else out

    def roundtrip(self, message: Message, channel: str) -> Tuple[Message, int]:
        """Encode then decode; returns (reconstructed message, bit length)."""
        data, bit_length = self.encode(message, channel)
        return self.decode(data, bit_length, channel), bit_length

    def roundtrip_batch(self, frame: BatchFrame,
                        channel: str) -> Tuple[BatchFrame, int]:
        """Encode then decode a whole frame; (reconstructed, bit length)."""
        data, bit_length = self.encode_batch(frame, channel)
        return self.decode_batch(data, bit_length, channel), bit_length


class _Serialized(LocalParty):
    """The instant policy with every message physically serialized: the
    peer receives the encode→decode copy, once its bit length is checked
    against the priced ``bits()`` — the property that keeps every
    benchmark honest.  A :class:`~repro.protocols.batch.BatchFrame` goes
    through the one-pass batch codec, under the same check."""

    __slots__ = ("codec", "channel")

    def transmit(self, message: Message) -> bool:
        """Round-trip ``message``, check its price, send the decoded copy."""
        codec, channel = self.codec, self.channel
        if isinstance(message, BatchFrame):
            decoded, bit_length = codec.roundtrip_batch(message, channel)
        else:
            decoded, bit_length = codec.roundtrip(message, channel)
        priced = message.bits(codec.encoding)
        if bit_length != priced:
            raise ProtocolError(
                f"pricing mismatch on {channel}: serialized "
                f"{bit_length} bits, priced {priced} for {message!r}")
        return super().transmit(decoded)


def run_session_serialized(sender: ProtocolCoroutine,
                           receiver: ProtocolCoroutine, *,
                           codec: Codec, forward_channel: str,
                           backward_channel: str) -> SessionResult:
    """Run a session with every message physically serialized both ways."""
    wire = Wire(TransferStats(), codec.encoding, 10_000_000)
    first = _Serialized(wire, "sender", sender, True)
    second = _Serialized(wire, "receiver", receiver, False)
    first.codec = second.codec = codec
    first.channel, second.channel = forward_channel, backward_channel
    return run_parties(wire, first, second)
