"""Vectorised column-level hashing (CRC-32 and H3) over packed key columns.

The per-object hot path hashes one key at a time; this module hashes a whole
*column* — ``count`` fixed-width keys packed contiguously — in one pass:

* :func:`crc32_column` runs the table-driven CRC byte recurrence over the
  key-length dimension (13 steps for a 5-tuple column, each a whole-column
  gather), instead of per key.
* :class:`H3ColumnHasher` gathers an H3 function's per-byte-position tables
  (:attr:`repro.hashing.h3.H3Hash.tables`, the ones the scalar hash walks)
  over a column, so a column hash is ``width`` table gathers XOR-reduced.
  :func:`column_hasher` hands out one shared hasher per distinct function.
* :func:`tabulation_column` gathers a :class:`TabulationHash`'s own per-byte
  tables over a column of integer keys.

All reproduce the scalar functions (:data:`repro.hashing.crc.CRC32`,
:class:`repro.hashing.h3.H3Hash`,
:class:`repro.hashing.tabulation.TabulationHash`) bit-for-bit — the property
tests in ``tests/test_columns.py`` hold them to that across seeds and
geometries.  Without numpy (see :mod:`repro.columns.backend`) every function
falls back to a stdlib per-key loop with identical results.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Sequence, Union

from repro.columns import backend
from repro.hashing.crc import CRC32, CRCHash
from repro.hashing.h3 import H3Hash
from repro.hashing.tabulation import TabulationHash

ByteColumn = Union[bytes, bytearray, memoryview]


def _numpy_crc_table(crc: CRCHash, np):
    table = getattr(crc, "_column_gather_table", None)
    if table is None:
        table = np.array(crc.remainder_table, dtype=np.uint32)
        crc._column_gather_table = table
    return table


def crc32_column(key_data: ByteColumn, count: int, width: int, crc: CRCHash = CRC32):
    """CRC of every fixed-width key in a packed column, in one pass.

    ``key_data`` holds ``count`` keys of ``width`` bytes back to back.
    Returns a sequence of ``count`` hash values equal to ``crc.hash`` of
    each key (a ``numpy.uint32`` array on the numpy backend, a list
    otherwise).  Only reflected 32-bit CRCs vectorise this way.
    """
    if not (crc.reflected and crc.width == 32):
        raise ValueError("column hashing supports reflected 32-bit CRCs only")
    if len(key_data) != count * width:
        raise ValueError(
            f"key column holds {len(key_data)} bytes, expected {count}x{width}"
        )
    np = backend.np
    if np is not None:
        arr = np.frombuffer(bytes(key_data), dtype=np.uint8).reshape(count, width)
        remainder = np.full(count, crc.initial & 0xFFFFFFFF, dtype=np.uint32)
        table = _numpy_crc_table(crc, np)
        for position in range(width):
            remainder = (remainder >> np.uint32(8)) ^ table[
                (remainder ^ arr[:, position]) & np.uint32(0xFF)
            ]
        return remainder ^ np.uint32(crc.final_xor & 0xFFFFFFFF)
    view = memoryview(key_data)
    hash_one = crc.hash
    return [hash_one(view[index * width : (index + 1) * width]) for index in range(count)]


class H3ColumnHasher:
    """One H3 function's byte-position tables, gathered a column at a time.

    The tables are the function's own (:attr:`~repro.hashing.h3.H3Hash.tables`,
    shared with every scalar instance of it); this class adds their numpy
    form.  Callers on a hot path share one instance per function through
    :func:`column_hasher` instead of converting their own.

    Parameters
    ----------
    h3: the hash function (its ``key_bits`` must cover the keys).
    width: key width in bytes of the columns this hasher will see.
    """

    def __init__(self, h3: H3Hash, width: int) -> None:
        if width <= 0:
            raise ValueError("width must be positive")
        if 8 * width > h3.key_bits:
            raise ValueError(
                f"{width}-byte keys exceed the hash function's {h3.key_bits} key bits"
            )
        self.width = width
        self.output_bits = h3.output_bits
        # Position p counts from the LSB end of the big-endian key, so byte
        # p of the key integer is key_bytes[width - 1 - p].
        self._tables = h3.tables
        self._np_tables = None

    def _numpy_tables(self, np):
        if self._np_tables is None:
            tables = self._tables[: self.width]
            self._np_tables = [np.array(table, dtype=np.uint64) for table in tables]
        return self._np_tables

    def hash_column(self, key_data: ByteColumn, count: int):
        """Hash every key of a packed column; equals ``h3.hash`` per key."""
        width = self.width
        if len(key_data) != count * width:
            raise ValueError(
                f"key column holds {len(key_data)} bytes, expected {count}x{width}"
            )
        np = backend.np
        if np is not None and self.output_bits <= 64:
            arr = np.frombuffer(bytes(key_data), dtype=np.uint8).reshape(count, width)
            tables = self._numpy_tables(np)
            out = np.zeros(count, dtype=np.uint64)
            for position in range(width):
                out ^= tables[position][arr[:, width - 1 - position]]
            return out
        view = memoryview(key_data)
        tables = self._tables
        out_list: List[int] = []
        for index in range(count):
            value = 0
            for table, byte in zip(tables, reversed(view[index * width : (index + 1) * width])):
                value ^= table[byte]
            out_list.append(value)
        return out_list


# One hasher per distinct H3 function and key width, so the numpy tables are
# converted once however many Count-Min rows and Hash-CAM shards sit on one
# seed.  A function is identified by its shared table tuple; every hasher
# here keeps its tuple alive, so a memoised ``id`` is never a recycled one.
# Hashers are immutable once built, which makes sharing them across the
# thread executor's workers safe; the lock only keeps two first callers from
# both building.  Bounded; eviction only costs a rebuild.
_HASHER_CACHE: Dict[tuple, H3ColumnHasher] = {}
_HASHER_CACHE_MAX = 64
_HASHER_CACHE_LOCK = threading.Lock()


def column_hasher(h3: H3Hash, width: int) -> H3ColumnHasher:
    """The shared :class:`H3ColumnHasher` of ``h3`` for ``width``-byte keys."""
    key = (id(h3.tables), width)
    hasher = _HASHER_CACHE.get(key)
    if hasher is None:
        with _HASHER_CACHE_LOCK:
            hasher = _HASHER_CACHE.get(key)
            if hasher is None:
                hasher = H3ColumnHasher(h3, width)
                if len(_HASHER_CACHE) >= _HASHER_CACHE_MAX:
                    _HASHER_CACHE.pop(next(iter(_HASHER_CACHE)))
                _HASHER_CACHE[key] = hasher
    return hasher


def tabulation_column(tab: TabulationHash, values: Sequence[int]):
    """``tab.hash`` of every integer key of a column, in one pass.

    ``values`` are non-negative integers that fit ``tab.key_bytes`` bytes
    (the scalar hash raises :class:`OverflowError` beyond that, and so does
    this).  Returns a list of Python integers on either backend: the one
    consumer walks it row by row.
    """
    np = backend.np
    key_bytes = tab.key_bytes
    if np is None or key_bytes > 8 or tab.output_bits > 64:
        hash_one = tab.hash
        return [hash_one(value) for value in values]
    tables = getattr(tab, "_column_gather_tables", None)
    if tables is None:
        tables = np.array(tab.tables, dtype=np.uint64)
        tab._column_gather_tables = tables
    keys = np.array(values, dtype=np.uint64)
    if key_bytes < 8 and len(keys) and int(keys.max()) >> (8 * key_bytes):
        raise OverflowError("int too big to convert")
    out = np.zeros(len(keys), dtype=np.uint64)
    for position in range(key_bytes):
        shift = np.uint64(8 * (key_bytes - 1 - position))
        out ^= tables[position][(keys >> shift) & np.uint64(0xFF)]
    return out.tolist()


def crc32_partition(
    key_data: ByteColumn, count: int, width: int, buckets: int
) -> List[Sequence[int]]:
    """Row indices per bucket of ``CRC32(key) % buckets``, column-at-a-time.

    This is the sharded engine's steering function vectorised: bucket ``b``
    receives exactly the rows whose key satisfies
    ``ShardedFlowLUT.shard_of(key) == b``, with the original row order kept
    inside each bucket.
    """
    if buckets <= 0:
        raise ValueError("buckets must be positive")
    if buckets == 1:
        return [range(count)]
    np = backend.np
    hashes = crc32_column(key_data, count, width)
    if np is not None:
        owners = hashes % np.uint32(buckets)
        return [np.nonzero(owners == np.uint32(bucket))[0] for bucket in range(buckets)]
    groups: List[List[int]] = [[] for _ in range(buckets)]
    for index, value in enumerate(hashes):
        groups[value % buckets].append(index)
    return groups
