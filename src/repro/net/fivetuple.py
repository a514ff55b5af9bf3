"""The 5-tuple flow key.

Packets sharing destination/source address, destination/source port and
protocol belong to the same flow (paper Section III-B).  :class:`FlowKey`
is the canonical, hashable representation used throughout the repository;
its :meth:`pack` form (13 bytes / 104 bits) is what the hardware hash
functions and the DDR3-resident table entries operate on.
"""

from __future__ import annotations

import ipaddress
import struct
from dataclasses import dataclass
from typing import Union

IPLike = Union[int, str]

PROTO_TCP = 6
PROTO_UDP = 17
PROTO_ICMP = 1

FLOW_KEY_BITS = 104
FLOW_KEY_BYTES = 13

_PACKED = struct.Struct(">IIHHB")
"""The :meth:`FlowKey.pack` layout: src_ip, dst_ip, src_port, dst_port, protocol."""


def _ip_to_int(value: IPLike) -> int:
    if isinstance(value, int):
        if not 0 <= value <= 0xFFFFFFFF:
            raise ValueError(f"IPv4 address out of range: {value}")
        return value
    return int(ipaddress.IPv4Address(value))


@dataclass(frozen=True, order=True)
class FlowKey:
    """An IPv4 5-tuple.

    Addresses may be given as dotted strings or integers; they are stored as
    integers so the key is cheap to hash and pack.
    """

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    protocol: int

    def __post_init__(self) -> None:
        # In-range ints (what every unpacker hands over) are stored as given;
        # only strings and out-of-range values go through the converter.
        for name in ("src_ip", "dst_ip"):
            value = getattr(self, name)
            if type(value) is not int or not 0 <= value <= 0xFFFFFFFF:
                object.__setattr__(self, name, _ip_to_int(value))
        if not 0 <= self.src_port <= 0xFFFF:
            raise ValueError(f"src_port out of range: {self.src_port}")
        if not 0 <= self.dst_port <= 0xFFFF:
            raise ValueError(f"dst_port out of range: {self.dst_port}")
        if not 0 <= self.protocol <= 0xFF:
            raise ValueError(f"protocol out of range: {self.protocol}")

    def pack(self) -> bytes:
        """13-byte wire representation: src_ip, dst_ip, src_port, dst_port, proto."""
        return _PACKED.pack(
            self.src_ip, self.dst_ip, self.src_port, self.dst_port, self.protocol
        )

    @classmethod
    def unpack(cls, data: bytes) -> "FlowKey":
        """Inverse of :meth:`pack`."""
        if len(data) != FLOW_KEY_BYTES:
            raise ValueError(f"expected {FLOW_KEY_BYTES} bytes, got {len(data)}")
        return cls(
            src_ip=int.from_bytes(data[0:4], "big"),
            dst_ip=int.from_bytes(data[4:8], "big"),
            src_port=int.from_bytes(data[8:10], "big"),
            dst_port=int.from_bytes(data[10:12], "big"),
            protocol=data[12],
        )

    def as_int(self) -> int:
        """The key as a 104-bit integer (convenient for H3 hashing)."""
        return int.from_bytes(self.pack(), "big")

    def reversed(self) -> "FlowKey":
        """The key of the reverse direction of this flow."""
        return FlowKey(
            src_ip=self.dst_ip,
            dst_ip=self.src_ip,
            src_port=self.dst_port,
            dst_port=self.src_port,
            protocol=self.protocol,
        )

    def bidirectional(self) -> "FlowKey":
        """A direction-independent canonical key (smaller endpoint first)."""
        forward = (self.src_ip, self.src_port)
        backward = (self.dst_ip, self.dst_port)
        return self if forward <= backward else self.reversed()

    @property
    def src_ip_str(self) -> str:
        return str(ipaddress.IPv4Address(self.src_ip))

    @property
    def dst_ip_str(self) -> str:
        return str(ipaddress.IPv4Address(self.dst_ip))

    def __str__(self) -> str:
        return (
            f"{self.src_ip_str}:{self.src_port} -> "
            f"{self.dst_ip_str}:{self.dst_port} proto={self.protocol}"
        )
