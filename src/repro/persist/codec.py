"""Binary framing primitives for durable snapshots.

Every snapshot the :mod:`repro.persist` package produces is one *frame*:

    +--------+---------+-----------+-----------+--------...--------+
    | magic  | version | body_len  | body_crc  |       body        |
    | 4 byte |  u16    |   u32     |   u32     |  body_len bytes   |
    +--------+---------+-----------+-----------+--------...--------+

The magic identifies the codec (one four-byte tag per structure), the
version lets a codec evolve its body layout without breaking old
snapshots, and the CRC-32 over the body catches torn or corrupted files
before a decoder misreads them as plausible state.  All integers are
little-endian and fixed-width — a snapshot written on one host restores
bit-identically on any other.

:class:`ByteWriter` / :class:`ByteReader` are the field-level primitives
the codecs in :mod:`repro.persist.snapshots` build bodies with; framing
itself is :func:`pack_frame` / :func:`unpack_frame`.
"""

from __future__ import annotations

import struct
import zlib
from typing import Hashable, List, Optional, Tuple

FRAME_HEADER = struct.Struct("<4sHII")
"""magic, codec version, body length, CRC-32 of the body."""


class SnapshotError(ValueError):
    """A snapshot cannot be produced or restored (semantic mismatch)."""


class SnapshotFormatError(SnapshotError):
    """The snapshot bytes themselves are unreadable: wrong magic, an
    unsupported codec version, a CRC mismatch, or a truncated body."""


class ByteWriter:
    """Accumulates the little-endian fields of one snapshot body."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def u8(self, value: int) -> "ByteWriter":
        self._buffer += struct.pack("<B", value)
        return self

    def u16(self, value: int) -> "ByteWriter":
        self._buffer += struct.pack("<H", value)
        return self

    def u32(self, value: int) -> "ByteWriter":
        self._buffer += struct.pack("<I", value)
        return self

    def u64(self, value: int) -> "ByteWriter":
        self._buffer += struct.pack("<Q", value)
        return self

    def u64s(self, values) -> "ByteWriter":
        """A run of u64 values packed in one call (counter-grid rows)."""
        values = list(values)
        self._buffer += struct.pack(f"<{len(values)}Q", *values)
        return self

    def i64(self, value: int) -> "ByteWriter":
        self._buffer += struct.pack("<q", value)
        return self

    def f64(self, value: float) -> "ByteWriter":
        self._buffer += struct.pack("<d", value)
        return self

    def raw(self, data: bytes) -> "ByteWriter":
        """Bytes a codec packed itself (several fixed fields in one ``Struct``)."""
        self._buffer += data
        return self

    def blob(self, data: bytes) -> "ByteWriter":
        """A length-prefixed byte string (u32 length + raw bytes)."""
        self.u32(len(data))
        self._buffer += data
        return self

    def text(self, value: str) -> "ByteWriter":
        return self.blob(value.encode("utf-8"))

    def bigint(self, value: int) -> "ByteWriter":
        """An arbitrary-precision signed integer (sign byte + magnitude blob)."""
        self.u8(1 if value < 0 else 0)
        magnitude = abs(value)
        return self.blob(magnitude.to_bytes((magnitude.bit_length() + 7) // 8 or 1, "big"))

    def key(self, value: Hashable) -> "ByteWriter":
        """A summary key: ``bytes`` (tag 0), ``int`` (tag 1) or ``str`` (tag 2).

        These are the key types the telemetry plane actually tracks
        (packed 5-tuples, integer addresses, labels); anything else has no
        canonical wire form and raises :class:`SnapshotError`.
        """
        if isinstance(value, bytes):
            return self.u8(0).blob(value)
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise SnapshotError(
                f"cannot snapshot summary key of type {type(value).__name__!r}; "
                "only bytes, int and str keys are serialisable"
            )
        if isinstance(value, int):
            return self.u8(1).bigint(value)
        return self.u8(2).text(value)

    def getvalue(self) -> bytes:
        return bytes(self._buffer)


class ByteReader:
    """Reads back the fields a :class:`ByteWriter` wrote, guarding truncation."""

    def __init__(self, data: bytes) -> None:
        self._data = bytes(data)
        self._offset = 0

    def _take(self, count: int) -> bytes:
        end = self._offset + count
        if end > len(self._data):
            raise SnapshotFormatError(
                f"snapshot body truncated: needed {count} more bytes at offset "
                f"{self._offset}, only {len(self._data) - self._offset} remain"
            )
        chunk = self._data[self._offset : end]
        self._offset = end
        return chunk

    def u8(self) -> int:
        return struct.unpack("<B", self._take(1))[0]

    def u16(self) -> int:
        return struct.unpack("<H", self._take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def u64s(self, count: int) -> List[int]:
        """A run of ``count`` u64 values unpacked in one call."""
        return list(struct.unpack(f"<{count}Q", self._take(8 * count)))

    def peek(self, layout: struct.Struct) -> Optional[tuple]:
        """``layout``'s fields at the read position, without consuming them;
        ``None`` when fewer than ``layout.size`` bytes remain."""
        if self._offset + layout.size > len(self._data):
            return None
        return layout.unpack_from(self._data, self._offset)

    def skip(self, count: int) -> None:
        """Consume ``count`` bytes already read with :meth:`peek`."""
        self._take(count)

    def i64(self) -> int:
        return struct.unpack("<q", self._take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self._take(8))[0]

    def blob(self) -> bytes:
        return self._take(self.u32())

    def text(self) -> str:
        return self.blob().decode("utf-8")

    def bigint(self) -> int:
        negative = self.u8()
        value = int.from_bytes(self.blob(), "big")
        return -value if negative else value

    def key(self) -> Hashable:
        tag = self.u8()
        if tag == 0:
            return self.blob()
        if tag == 1:
            return self.bigint()
        if tag == 2:
            return self.text()
        raise SnapshotFormatError(f"unknown summary-key tag {tag}")

    def expect_end(self) -> None:
        """Assert the body was consumed exactly (layout drift detector)."""
        if self._offset != len(self._data):
            raise SnapshotFormatError(
                f"snapshot body has {len(self._data) - self._offset} trailing "
                "bytes the codec did not consume"
            )


def pack_frame(magic: bytes, version: int, body: bytes) -> bytes:
    """Wrap a codec body in the magic/version/length/CRC frame."""
    if len(magic) != 4:
        raise SnapshotError("frame magic must be exactly 4 bytes")
    return FRAME_HEADER.pack(magic, version, len(body), zlib.crc32(body)) + body


def unpack_frame(
    data: bytes, expected_magic: Optional[bytes] = None, max_version: Optional[int] = None
) -> Tuple[bytes, int, bytes]:
    """Validate a frame and return ``(magic, version, body)``.

    Raises :class:`SnapshotFormatError` on a short header, a magic or
    version mismatch, a body length that disagrees with the data, or a
    CRC failure — *before* any codec interprets the body.
    """
    if len(data) < FRAME_HEADER.size:
        raise SnapshotFormatError(
            f"snapshot too short for a frame header ({len(data)} bytes)"
        )
    magic, version, body_len, body_crc = FRAME_HEADER.unpack_from(data)
    if expected_magic is not None and magic != expected_magic:
        raise SnapshotFormatError(
            f"snapshot magic {magic!r} does not match expected {expected_magic!r}"
        )
    if max_version is not None and version > max_version:
        raise SnapshotFormatError(
            f"snapshot codec version {version} is newer than the supported {max_version}"
        )
    body = data[FRAME_HEADER.size : FRAME_HEADER.size + body_len]
    if len(body) != body_len:
        raise SnapshotFormatError(
            f"snapshot body truncated: header declares {body_len} bytes, "
            f"{len(body)} present"
        )
    if len(data) != FRAME_HEADER.size + body_len:
        raise SnapshotFormatError(
            f"snapshot has {len(data) - FRAME_HEADER.size - body_len} bytes "
            "beyond the declared body (concatenated or corrupted frame)"
        )
    if zlib.crc32(body) != body_crc:
        raise SnapshotFormatError("snapshot body CRC mismatch (corrupted data)")
    return magic, version, body
