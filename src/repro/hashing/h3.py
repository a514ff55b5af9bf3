"""The H3 universal hash family.

An H3 hash of an ``n``-bit key to an ``m``-bit value is defined by an
``n x m`` random binary matrix ``Q``: the output is the XOR of the rows of
``Q`` selected by the set bits of the key.  In hardware this is a tree of XOR
gates, which is why H3 is the de-facto hash family in FPGA packet-processing
designs (and a natural choice for the paper's two pre-selected hash
functions).

In software the rows are grouped eight at a time into one 256-entry table per
key byte (:func:`_build_tables`), so a hash is ``key_bytes`` lookups however
many bits are set; :meth:`H3Hash.hash` and the column hasher
(:class:`repro.columns.hashing.H3ColumnHasher`) run on the same tables.
"""

from __future__ import annotations

import threading
from typing import Tuple, Union

from repro.sim.rng import SeedLike, make_rng

KeyLike = Union[int, bytes, bytearray]

# One table set per distinct function, process-wide (the idiom of
# ``repro.hashing.tabulation._TABLE_CACHE``): a cluster holds one Count-Min
# per primary *and* per backup pipeline on one telemetry seed and one
# Hash-CAM table per shard on one config seed, at ~120 KB of tables per
# 104-bit function.  Tables are never written after the build, so sharing
# them across the thread executor's workers is safe; the lock only keeps two
# first callers from both building.  Bounded; eviction only costs a rebuild.
_TABLE_CACHE: dict = {}
_TABLE_CACHE_MAX = 64
_TABLE_CACHE_LOCK = threading.Lock()


def _build_tables(rows: Tuple[int, ...]) -> tuple:
    """Fold matrix ``rows`` into per-byte-position lookup tables.

    ``tables[p][b]`` is the XOR of the rows byte value ``b`` selects at byte
    position ``p``, counted from the LSB end of the big-endian key: rows
    ``8p .. 8p+7`` (zero past ``key_bits``).  Built by doubling.
    """
    key_bytes = (len(rows) + 7) // 8
    rows = rows + (0,) * (8 * key_bytes - len(rows))
    tables = []
    for position in range(key_bytes):
        table = [0] * 256
        for bit in range(8):
            row = rows[8 * position + bit]
            span = 1 << bit
            for byte in range(span, 2 * span):
                table[byte] = table[byte - span] ^ row
        tables.append(table)
    return tuple(tables)


class H3Hash:
    """One member of the H3 family.

    Parameters
    ----------
    key_bits: width of the input keys in bits.  Longer inputs raise.
    output_bits: width of the hash value.
    seed: seed (or shared :class:`random.Random`) selecting the member.
    """

    def __init__(self, key_bits: int, output_bits: int, seed: SeedLike = None) -> None:
        if key_bits <= 0:
            raise ValueError("key_bits must be positive")
        if output_bits <= 0:
            raise ValueError("output_bits must be positive")
        self.key_bits = key_bits
        self.output_bits = output_bits
        rng = make_rng(seed)
        mask = (1 << output_bits) - 1
        self._rows = tuple(rng.getrandbits(output_bits) & mask for _ in range(key_bits))
        self._key_bytes = (key_bits + 7) // 8
        self._tables = None

    def __getstate__(self) -> dict:
        # Shared per process, not shipped: a pickled copy (process executor)
        # resolves the tables again instead of owning a private set.
        return {**self.__dict__, "_tables": None}

    @property
    def tables(self) -> tuple:
        """The byte-position tables (see :func:`_build_tables`), compiled on
        first use and shared, read-only, by every instance of this function."""
        tables = self._tables
        if tables is None:
            key = (self._rows, self.output_bits)
            tables = _TABLE_CACHE.get(key)
            if tables is None:
                with _TABLE_CACHE_LOCK:
                    tables = _TABLE_CACHE.get(key)
                    if tables is None:
                        tables = _build_tables(self._rows)
                        if len(_TABLE_CACHE) >= _TABLE_CACHE_MAX:
                            _TABLE_CACHE.pop(next(iter(_TABLE_CACHE)))
                        _TABLE_CACHE[key] = tables
            self._tables = tables
        return tables

    def __call__(self, key: KeyLike) -> int:
        return self.hash(key)

    def hash(self, key: KeyLike) -> int:
        """Hash ``key`` to an ``output_bits``-wide integer."""
        if not isinstance(key, (bytes, bytearray)):
            if not isinstance(key, int):
                raise TypeError(f"unsupported key type {type(key)!r}")
            if key < 0:
                raise ValueError("integer keys must be non-negative")
            # Sized to the value, so an oversized integer reaches the width
            # check below instead of an OverflowError here.
            key = key.to_bytes(max(self._key_bytes, (key.bit_length() + 7) // 8), "big")
        if len(key) > self._key_bytes or (self.key_bits & 7 and len(key) == self._key_bytes):
            value = int.from_bytes(key, "big")
            if value >> self.key_bits:
                raise ValueError(
                    f"key has more than {self.key_bits} bits: {value.bit_length()} bits"
                )
        result = 0
        for table, byte in zip(self._tables or self.tables, reversed(key)):
            result ^= table[byte]
        return result

    def bucket(self, key: KeyLike, table_size: int) -> int:
        """Hash ``key`` into ``[0, table_size)``."""
        if table_size <= 0:
            raise ValueError("table_size must be positive")
        return self.hash(key) % table_size

    @property
    def matrix(self) -> list:
        """The defining matrix rows (read-only copy)."""
        return list(self._rows)
