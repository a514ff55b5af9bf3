"""Sketch data structures for line-rate stream measurement.

The exact Flow LUT stores every live flow in DDR3; a telemetry plane cannot
afford that for every question it asks, so it summarises the stream in small,
fixed-size *sketches* whose error is bounded and tunable.  Two primitives are
provided, both built on the repository's hardware-style hash families
(:mod:`repro.hashing`):

* :class:`CountMinSketch` — a ``depth x width`` counter array indexed by
  ``depth`` independent H3 hashes (Cormode & Muthukrishnan).  Point queries
  never underestimate, and overestimate by at most ``e/width * total`` with
  probability ``1 - e^-depth``.
* :class:`DistinctCounter` — a linear (probabilistic) counting bitmap (Whang
  et al.): each item sets one hashed bit, and the zero fraction yields a
  cardinality estimate.  It is the per-source building block of the
  superspreader detector.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import List, Optional, Sequence

from repro.columns.hashing import column_hasher
from repro.hashing.h3 import KeyLike
from repro.hashing.multi_hash import MultiHash
from repro.hashing.tabulation import TabulationHash
from repro.sim.rng import SeedLike, make_rng

COUNTER_BITS = 32
"""Width of one sketch counter cell as a hardware design would provision it."""


def _key_bits_of(key: KeyLike, limit_bits: int) -> KeyLike:
    """Clamp integer keys into ``limit_bits`` (bytes keys pass through)."""
    if isinstance(key, int):
        return key & ((1 << limit_bits) - 1)
    return key


class CountMinSketch:
    """A Count-Min sketch over flow keys (bytes or non-negative integers).

    Parameters
    ----------
    width: counters per row; the L1 overestimate bound is ``e/width * total``.
    depth: number of rows (independent hash functions).
    key_bits: input key width in bits; defaults to the 104-bit 5-tuple.
    seed: selects the hash-function family members.
    """

    def __init__(
        self,
        width: int = 1024,
        depth: int = 4,
        key_bits: int = 104,
        seed: SeedLike = None,
    ) -> None:
        if width <= 0:
            raise ValueError("width must be positive")
        if depth <= 0:
            raise ValueError("depth must be positive")
        self.width = width
        self.depth = depth
        self.key_bits = key_bits
        # The seed is resolved to a concrete 64-bit value (as DistinctCounter
        # does) so two sketches can prove they share a hash family before a
        # merge; MultiHash itself keeps no comparable seed.
        self._hash_seed = make_rng(seed).getrandbits(64)
        self._hashes = MultiHash(depth, key_bits=key_bits, output_bits=32, seed=self._hash_seed)
        self._rows: List[List[int]] = [[0] * width for _ in range(depth)]
        self.total = 0

    @classmethod
    def from_error_bounds(
        cls,
        epsilon: float,
        delta: float,
        key_bits: int = 104,
        seed: SeedLike = None,
    ) -> "CountMinSketch":
        """Size a sketch so overestimates exceed ``epsilon * total`` with
        probability at most ``delta``."""
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        width = math.ceil(math.e / epsilon)
        depth = math.ceil(math.log(1.0 / delta))
        return cls(width=width, depth=max(1, depth), key_bits=key_bits, seed=seed)

    @classmethod
    def from_state(
        cls,
        *,
        width: int,
        depth: int,
        key_bits: int,
        hash_seed: int,
        rows: List[List[int]],
        total: int,
    ) -> "CountMinSketch":
        """Rebuild a sketch from snapshotted state (:mod:`repro.persist`).

        ``hash_seed`` is the *resolved* 64-bit seed of the original sketch
        (not a seed-like input), so the restored sketch hashes — and
        therefore merges — exactly like the one that was snapshotted.  The
        counter grid must match the declared geometry and be non-negative;
        a mismatch raises :class:`ValueError` before any instance exists.
        """
        if width <= 0 or depth <= 0:
            raise ValueError("width and depth must be positive")
        if len(rows) != depth or any(len(row) != width for row in rows):
            raise ValueError("counter rows do not match the declared geometry")
        if total < 0 or any(cell < 0 for row in rows for cell in row):
            raise ValueError("sketch counters must be non-negative")
        # Assembled directly (no throwaway __init__ grid): restores run on
        # the checkpoint/resync path, where the zeroed grid would be
        # allocated only to be discarded.
        sketch = cls.__new__(cls)
        sketch.width = width
        sketch.depth = depth
        sketch.key_bits = key_bits
        sketch._hash_seed = hash_seed
        sketch._hashes = MultiHash(depth, key_bits=key_bits, output_bits=32, seed=hash_seed)
        sketch._rows = [list(row) for row in rows]
        sketch.total = total
        return sketch

    @property
    def hash_seed(self) -> int:
        """The resolved 64-bit seed identifying this sketch's hash family."""
        return self._hash_seed

    def counter_rows(self) -> List[List[int]]:
        """A copy of the counter grid (row-major), for snapshotting."""
        return [list(row) for row in self._rows]

    def update(self, key: KeyLike, count: int = 1) -> None:
        """Account ``count`` occurrences of ``key``."""
        if count < 0:
            raise ValueError("count must be non-negative")
        key = _key_bits_of(key, self.key_bits)
        for row, index in zip(self._rows, self._hashes.indices(key, self.width)):
            row[index] += count
        self.total += count

    def update_column(
        self, key_data: bytes, width: int, counts: Optional[Sequence[int]] = None
    ) -> None:
        """Account every key of a packed column: :meth:`update` per row.

        ``key_data`` holds ``width``-byte keys back to back; ``counts`` gives
        each row's count (1 when omitted).  The keys are hashed column-wise,
        once per row function (:func:`repro.columns.hashing.column_hasher`),
        and the counters then take plain index adds, so the grid and
        ``total`` end exactly as the per-row calls would leave them.
        """
        rows = len(key_data) // width
        if counts is not None:
            if len(counts) != rows:
                raise ValueError(f"{len(counts)} counts for {rows} keys")
            if rows and min(counts) < 0:
                raise ValueError("count must be non-negative")
        for row, function in zip(self._rows, self._hashes):
            hashes = column_hasher(function, width).hash_column(key_data, rows)
            if isinstance(hashes, list):
                indices = [value % self.width for value in hashes]
            else:
                indices = (hashes % self.width).tolist()
            for index, count in zip(indices, repeat(1) if counts is None else counts):
                row[index] += count
        self.total += rows if counts is None else sum(counts)

    def estimate(self, key: KeyLike) -> int:
        """Point query: an overestimate of ``key``'s true count (never under)."""
        key = _key_bits_of(key, self.key_bits)
        return min(
            row[index]
            for row, index in zip(self._rows, self._hashes.indices(key, self.width))
        )

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        """Add ``other``'s counters into this sketch (distributed aggregation).

        Count-Min is linearly mergeable: cell-wise addition of two sketches
        built from the same hash family yields exactly the sketch of the
        concatenated stream, so per-node sketches can be combined into one
        cluster-wide view without losing the no-underestimate guarantee.
        Both sketches must share geometry (``width`` / ``depth`` /
        ``key_bits``) and hash seed, mirroring
        :meth:`DistinctCounter.merge`; a mismatch raises :class:`ValueError`
        before any state is modified.
        """
        if (other.width, other.depth) != (self.width, self.depth):
            raise ValueError("cannot merge sketches with different geometry")
        if other.key_bits != self.key_bits:
            raise ValueError("cannot merge sketches with different key widths")
        if other._hash_seed != self._hash_seed:
            raise ValueError("cannot merge sketches built from different hash seeds")
        for row, other_row in zip(self._rows, other._rows):
            for index, value in enumerate(other_row):
                row[index] += value
        self.total += other.total
        return self

    @property
    def epsilon(self) -> float:
        """The additive error factor: estimates exceed truth by at most
        ``epsilon * total`` with probability ``1 - delta``."""
        return math.e / self.width

    @property
    def delta(self) -> float:
        return math.exp(-self.depth)

    @property
    def memory_bits(self) -> int:
        """Storage a hardware instance would provision for the counter array."""
        return self.width * self.depth * COUNTER_BITS

    @property
    def memory_bytes(self) -> int:
        return (self.memory_bits + 7) // 8

    @property
    def occupancy(self) -> float:
        """Fraction of non-zero counters — the sketch-saturation gauge.

        As occupancy approaches 1.0 every estimate collides with other
        flows and the error bound degrades towards ``epsilon * total``;
        the observability plane exports this so an operator sees a sketch
        running out of headroom before the accuracy numbers say so.
        """
        occupied = sum(1 for row in self._rows for cell in row if cell)
        return occupied / (self.width * self.depth)

    def stats(self) -> dict:
        return {
            "width": self.width,
            "depth": self.depth,
            "total": self.total,
            "epsilon": self.epsilon,
            "occupancy": self.occupancy,
            "memory_bytes": self.memory_bytes,
        }


class DistinctCounter:
    """Linear-counting cardinality estimator over a fixed bitmap.

    Each added item sets the bit selected by one tabulation hash; the
    estimate is ``-m * ln(zeros / m)`` for an ``m``-bit map.  Accurate while
    the load factor stays moderate (cardinalities up to a few multiples of
    ``m``).  Tabulation hashing (3-independent) is used rather than H3: H3
    is XOR-linear, so structured key sets (sequential addresses, port
    sweeps) would land in a low-dimensional subspace of the bitmap and bias
    the estimate low.
    """

    def __init__(self, bitmap_bits: int = 1024, key_bits: int = 64, seed: SeedLike = None) -> None:
        if bitmap_bits <= 0:
            raise ValueError("bitmap_bits must be positive")
        self.bitmap_bits = bitmap_bits
        self.key_bits = key_bits
        self._hash_seed = make_rng(seed).getrandbits(64)
        self._hash = TabulationHash((key_bits + 7) // 8, 32, seed=self._hash_seed)
        self._bitmap = 0
        self._bits_set = 0
        self.items_added = 0

    @classmethod
    def from_state(
        cls,
        *,
        bitmap_bits: int,
        key_bits: int,
        hash_seed: int,
        bitmap: int,
        items_added: int,
    ) -> "DistinctCounter":
        """Rebuild a counter from snapshotted state (:mod:`repro.persist`).

        ``hash_seed`` is the resolved 64-bit seed; ``bitmap`` must fit in
        ``bitmap_bits`` bits or :class:`ValueError` is raised.
        """
        if bitmap < 0 or bitmap >> bitmap_bits:
            raise ValueError("bitmap does not fit in the declared bitmap_bits")
        if items_added < 0:
            raise ValueError("items_added must be non-negative")
        if bitmap_bits <= 0:
            raise ValueError("bitmap_bits must be positive")
        counter = cls.__new__(cls)
        counter.bitmap_bits = bitmap_bits
        counter.key_bits = key_bits
        counter._hash_seed = hash_seed
        counter._hash = TabulationHash((key_bits + 7) // 8, 32, seed=hash_seed)
        counter._bitmap = bitmap
        counter._bits_set = bin(bitmap).count("1")
        counter.items_added = items_added
        return counter

    @property
    def hash_seed(self) -> int:
        """The resolved 64-bit seed identifying this counter's hash."""
        return self._hash_seed

    @property
    def bitmap_value(self) -> int:
        """The bitmap as an integer, for snapshotting."""
        return self._bitmap

    @property
    def hash_function(self) -> TabulationHash:
        """The bitmap hash (immutable; shared by every :meth:`spawn`)."""
        return self._hash

    def spawn(self) -> "DistinctCounter":
        """A new empty counter of this geometry sharing this counter's hash.

        What a table of counters on one seed admits a source with: no seed
        is re-resolved and no hash rebuilt per counter.
        """
        counter = DistinctCounter.__new__(DistinctCounter)
        counter.bitmap_bits = self.bitmap_bits
        counter.key_bits = self.key_bits
        counter._hash_seed = self._hash_seed
        counter._hash = self._hash
        counter._bitmap = 0
        counter._bits_set = 0
        counter.items_added = 0
        return counter

    def add(self, item: KeyLike) -> None:
        self.add_hashed(self._hash(_key_bits_of(item, self.key_bits)))

    def add_hashed(self, value: int) -> None:
        """:meth:`add` an item whose :attr:`hash_function` value is ``value``."""
        bit = 1 << (value % self.bitmap_bits)
        if not self._bitmap & bit:
            self._bitmap |= bit
            self._bits_set += 1
        self.items_added += 1

    @property
    def bits_set(self) -> int:
        return self._bits_set

    def estimate(self) -> float:
        """Estimated number of distinct items added."""
        zeros = self.bitmap_bits - self.bits_set
        if zeros == 0:
            # Saturated bitmap: the linear estimate diverges; report its cap.
            return self.bitmap_bits * math.log(self.bitmap_bits)
        return -self.bitmap_bits * math.log(zeros / self.bitmap_bits)

    def merge(self, other: "DistinctCounter") -> None:
        """Union with ``other`` (must share geometry and hash seed)."""
        if other.bitmap_bits != self.bitmap_bits:
            raise ValueError("cannot merge counters with different bitmap sizes")
        if other._hash_seed != self._hash_seed:
            raise ValueError("cannot merge counters built from different hash seeds")
        self._bitmap |= other._bitmap
        self._bits_set = bin(self._bitmap).count("1")
        self.items_added += other.items_added

    @property
    def memory_bits(self) -> int:
        return self.bitmap_bits

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DistinctCounter(bits={self.bitmap_bits}, estimate={self.estimate():.1f})"
