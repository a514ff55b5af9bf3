"""Packet-descriptor extraction.

The paper's flow processor does not hash raw packets: a *packet descriptor*
with ``n`` selected tuple fields is extracted from the header and fed to the
sequencer (Section III-B).  :class:`DescriptorExtractor` performs that field
selection, so the Flow LUT can be configured for anything from a 2-tuple
(address pair) up to the standard 5-tuple; the paper's scalability claim
("scalable with respect to ... number of tuples") is exercised by varying the
field set.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.net.fivetuple import FlowKey
from repro.net.packet import Packet


class TupleField(enum.Enum):
    """Header fields that can participate in flow identification."""

    SRC_IP = "src_ip"
    DST_IP = "dst_ip"
    SRC_PORT = "src_port"
    DST_PORT = "dst_port"
    PROTOCOL = "protocol"


FIELD_WIDTHS_BITS = {
    TupleField.SRC_IP: 32,
    TupleField.DST_IP: 32,
    TupleField.SRC_PORT: 16,
    TupleField.DST_PORT: 16,
    TupleField.PROTOCOL: 8,
}

FIVE_TUPLE: Tuple[TupleField, ...] = (
    TupleField.DST_IP,
    TupleField.SRC_IP,
    TupleField.DST_PORT,
    TupleField.SRC_PORT,
    TupleField.PROTOCOL,
)
"""The standard 5-tuple in the order the paper lists it."""

FIVE_TUPLE_STRUCT = struct.Struct(">IIHHB")
"""The 13-byte engine key a :data:`FIVE_TUPLE` extractor produces — dst_ip,
src_ip, dst_port, src_port, protocol — which is what the table stores."""


def flow_key_from_engine_key(key_bytes: bytes) -> FlowKey:
    """The :class:`FlowKey` a 13-byte engine key stands for.

    The fields come out of a fixed-width unpack, so they are in range by
    construction and the key is built with :meth:`FlowKey.unchecked`.
    """
    dst_ip, src_ip, dst_port, src_port, protocol = FIVE_TUPLE_STRUCT.unpack(key_bytes)
    return FlowKey.unchecked(src_ip, dst_ip, src_port, dst_port, protocol)


def engine_key_from_flow_key(key: FlowKey) -> bytes:
    """The 13-byte engine key of a :class:`FlowKey` (the inverse of
    :func:`flow_key_from_engine_key`)."""
    return FIVE_TUPLE_STRUCT.pack(key.dst_ip, key.src_ip, key.dst_port, key.src_port, key.protocol)


@dataclass(frozen=True)
class PacketDescriptor:
    """What the header parser hands to the sequencer.

    ``key_bytes`` is the concatenation of the selected tuple fields; ``key``
    keeps the originating :class:`FlowKey` for bookkeeping, and
    ``length_bytes`` / ``timestamp_ps`` carry the per-packet data the flow
    state block accumulates.
    """

    key_bytes: bytes
    key: FlowKey
    length_bytes: int
    timestamp_ps: int
    tcp_flags: int = 0

    @property
    def key_bits(self) -> int:
        return len(self.key_bytes) * 8

    def as_int(self) -> int:
        return int.from_bytes(self.key_bytes, "big")


class DescriptorExtractor:
    """Extracts n-tuple descriptors from packets.

    Parameters
    ----------
    fields: which header fields form the flow identity; defaults to the
        standard 5-tuple.
    bidirectional: when ``True`` the two directions of a connection map to
        the same descriptor (useful for stateful inspection applications).
    """

    def __init__(
        self,
        fields: Optional[Sequence[TupleField]] = None,
        bidirectional: bool = False,
    ) -> None:
        selected = tuple(fields) if fields is not None else FIVE_TUPLE
        if not selected:
            raise ValueError("at least one tuple field is required")
        if len(set(selected)) != len(selected):
            raise ValueError("duplicate tuple fields")
        self.fields = selected
        self.bidirectional = bidirectional
        self.packets_parsed = 0

    @property
    def key_bits(self) -> int:
        """Width of the extracted descriptor key in bits."""
        return sum(FIELD_WIDTHS_BITS[field] for field in self.fields)

    @property
    def key_bytes(self) -> int:
        return (self.key_bits + 7) // 8

    def _field_value(self, key: FlowKey, field: TupleField) -> Tuple[int, int]:
        width = FIELD_WIDTHS_BITS[field]
        return getattr(key, field.value), width

    def extract(self, packet: Packet) -> PacketDescriptor:
        """Build the descriptor for ``packet``."""
        self.packets_parsed += 1
        key = packet.key.bidirectional() if self.bidirectional else packet.key
        value = 0
        total_bits = 0
        for field in self.fields:
            field_value, width = self._field_value(key, field)
            value = (value << width) | field_value
            total_bits += width
        key_bytes = value.to_bytes((total_bits + 7) // 8, "big")
        return PacketDescriptor(
            key_bytes=key_bytes,
            key=key,
            length_bytes=packet.length_bytes,
            timestamp_ps=packet.timestamp_ps,
            tcp_flags=packet.tcp_flags,
        )

    def extract_many(self, packets: Sequence[Packet]) -> list:
        """Descriptors for a sequence of packets (in order)."""
        return [self.extract(packet) for packet in packets]
