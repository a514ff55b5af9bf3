"""Simple tabulation hashing.

Tabulation hashing splits the key into bytes and XORs together one random
table entry per byte position.  It is 3-independent, cheap in hardware
(block-RAM lookups plus an XOR tree), and serves here both as an alternative
hash for the Flow LUT and as a reference point in hash-quality tests.
"""

from __future__ import annotations

from typing import Union

from repro.sim.rng import SeedLike, make_rng

KeyLike = Union[int, bytes, bytearray]

# Table build memo for integer-seeded hashes.  make_rng(int) is a fresh,
# deterministic stream, so two hashes built from the same (geometry, seed)
# get byte-identical tables — and the telemetry plane builds thousands of
# them: every DistinctCounter of a SuperSpreaderDetector shares one
# resolved seed, so before this memo each newly tracked source re-rolled
# the same 256-entry tables (dominating cluster ingest profiles).  Tables
# are immutable after construction, so sharing the lists is safe.  Seeds
# that are None (entropy) or a live Random (stateful stream) bypass the
# memo.  The cache is bounded; eviction only costs a rebuild.
_TABLE_CACHE: dict = {}
_TABLE_CACHE_MAX = 128


def _build_tables(key_bytes: int, output_bits: int, seed: SeedLike) -> list:
    rng = make_rng(seed)
    return [
        [rng.getrandbits(output_bits) for _ in range(256)] for _ in range(key_bytes)
    ]


class TabulationHash:
    """Tabulation hash over fixed-length byte strings.

    Parameters
    ----------
    key_bytes: length of the keys in bytes (shorter keys are zero-padded on
        the left, longer keys raise).
    output_bits: width of the hash value.
    seed: seed or shared :class:`random.Random`.
    """

    def __init__(self, key_bytes: int, output_bits: int, seed: SeedLike = None) -> None:
        if key_bytes <= 0:
            raise ValueError("key_bytes must be positive")
        if output_bits <= 0:
            raise ValueError("output_bits must be positive")
        self.key_bytes = key_bytes
        self.output_bits = output_bits
        if isinstance(seed, int):
            cache_key = (key_bytes, output_bits, seed)
            tables = _TABLE_CACHE.get(cache_key)
            if tables is None:
                if len(_TABLE_CACHE) >= _TABLE_CACHE_MAX:
                    _TABLE_CACHE.pop(next(iter(_TABLE_CACHE)))
                tables = _TABLE_CACHE[cache_key] = _build_tables(
                    key_bytes, output_bits, seed
                )
            self._tables = tables
        else:
            self._tables = _build_tables(key_bytes, output_bits, seed)
        self._mask = (1 << output_bits) - 1

    @property
    def tables(self) -> tuple:
        """The per-byte-position lookup tables (read-only; possibly shared)."""
        return tuple(self._tables)

    def _normalise(self, key: KeyLike) -> bytes:
        if isinstance(key, int):
            if key < 0:
                raise ValueError("integer keys must be non-negative")
            key = key.to_bytes(self.key_bytes, "big")
        data = bytes(key)
        if len(data) > self.key_bytes:
            raise ValueError(f"key longer than {self.key_bytes} bytes")
        if len(data) < self.key_bytes:
            data = b"\x00" * (self.key_bytes - len(data)) + data
        return data

    def __call__(self, key: KeyLike) -> int:
        return self.hash(key)

    def hash(self, key: KeyLike) -> int:
        data = self._normalise(key)
        result = 0
        for position, byte in enumerate(data):
            result ^= self._tables[position][byte]
        return result & self._mask

    def bucket(self, key: KeyLike, table_size: int) -> int:
        if table_size <= 0:
            raise ValueError("table_size must be positive")
        return self.hash(key) % table_size
