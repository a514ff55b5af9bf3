"""Superspreader (distinct-destination) estimation.

A *superspreader* is a source that contacts many distinct destinations in a
measurement window — the signature of horizontal port scans, worm
propagation and some DDoS patterns.  Byte/packet heavy-hitter tracking cannot
see it (each probe is tiny), so this detector pairs a Space-Saving style
bounded table of sources with a per-source :class:`~repro.telemetry.sketches.
DistinctCounter` bitmap: duplicate contacts to the same destination set the
same bit and are not counted again, which is what separates a chatty flow
from a spreading one.

Every bitmap of a detector hashes with one shared function, and the eviction
victim (fewest bits set, longest monitored among ties) comes off a *lazy
min-heap* holding one ``(bits_set, admission order, source)`` entry per
monitored source.  Bitmaps only ever gain bits, so an entry's ``bits_set``
is a lower bound that is refreshed only when the entry surfaces at an
eviction: admitting a source costs ``O(log max_sources)`` instead of a scan
of the table, and recording a contact costs nothing extra.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.columns.hashing import tabulation_column
from repro.hashing.h3 import KeyLike
from repro.sim.rng import SeedLike, make_rng
from repro.telemetry.sketches import DistinctCounter


@dataclass(frozen=True)
class SpreaderReport:
    """One source and its estimated distinct-destination fan-out."""

    source: Hashable
    fanout: float
    contacts: int


class SuperSpreaderDetector:
    """Bounded-memory fan-out tracking per source.

    Parameters
    ----------
    max_sources: number of sources monitored simultaneously; when full, the
        source with the smallest fan-out estimate is evicted (Space-Saving
        style), which preserves the large spreaders the detector exists for.
    bitmap_bits: size of each per-source distinct-count bitmap.
    threshold: fan-out at or above which a source is reported as a
        superspreader.
    seed: seeds the shared hash family so all bitmaps are mergeable and runs
        are reproducible.
    """

    def __init__(
        self,
        max_sources: int = 256,
        bitmap_bits: int = 512,
        threshold: float = 64.0,
        key_bits: int = 64,
        seed: SeedLike = None,
    ) -> None:
        self._setup(max_sources, bitmap_bits, threshold, key_bits, make_rng(seed).getrandbits(64))

    def _setup(
        self, max_sources: int, bitmap_bits: int, threshold: float, key_bits: int, seed: int
    ) -> None:
        """Construct an empty detector on an already *resolved* 64-bit seed."""
        if max_sources <= 0:
            raise ValueError("max_sources must be positive")
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.max_sources = max_sources
        self.bitmap_bits = bitmap_bits
        self.threshold = threshold
        self.key_bits = key_bits
        self._seed = seed
        # The one empty counter — and with it the one bitmap hash — that
        # every admitted source spawns from, so estimates are comparable.
        self._blank = DistinctCounter.from_state(
            bitmap_bits=bitmap_bits,
            key_bits=key_bits,
            hash_seed=self.counter_hash_seed,
            bitmap=0,
            items_added=0,
        )
        self._counters: Dict[Hashable, DistinctCounter] = {}
        self._heap: List[Tuple[int, int, Hashable]] = []
        self._admissions = 0
        self.updates = 0
        self.evictions = 0

    @classmethod
    def from_state(
        cls,
        *,
        max_sources: int,
        bitmap_bits: int,
        threshold: float,
        key_bits: int,
        hash_seed: int,
        sources: List[Tuple[Hashable, DistinctCounter]],
        updates: int,
        evictions: int,
    ) -> "SuperSpreaderDetector":
        """Rebuild a detector from snapshotted per-source counters.

        Every restored counter must carry the detector's shared
        ``hash_seed`` and geometry — the same compatibility the merge
        guards enforce — or :class:`ValueError` is raised.
        """
        if len(sources) > max_sources:
            raise ValueError("more sources than the declared max_sources")
        detector = cls.__new__(cls)
        detector._setup(max_sources, bitmap_bits, threshold, key_bits, hash_seed)
        counter_seed = detector.counter_hash_seed
        for source, counter in sources:
            if counter.bitmap_bits != bitmap_bits or counter.key_bits != key_bits:
                raise ValueError("source counter geometry does not match the detector")
            if counter.hash_seed != counter_seed:
                raise ValueError("source counter was built from a different hash seed")
            if source in detector._counters:
                raise ValueError("duplicate source in snapshot")
            detector._counters[source] = counter
        if updates < 0 or evictions < 0:
            raise ValueError("updates and evictions must be non-negative")
        detector.updates = updates
        detector.evictions = evictions
        # Snapshot order is admission order, which the eviction heap (not
        # itself snapshotted) is rebuilt to.
        detector._heap = [
            (counter.bits_set, order, source)
            for order, (source, counter) in enumerate(detector._counters.items())
        ]
        heapq.heapify(detector._heap)
        detector._admissions = len(detector._heap)
        return detector

    @property
    def hash_seed(self) -> int:
        """The resolved 64-bit detector seed (bitmap hashes derive from it)."""
        return self._seed

    @property
    def counter_hash_seed(self) -> int:
        """The derived seed every per-source bitmap actually hashes with.

        A counter resolves a seed-like input to
        ``make_rng(seed).getrandbits(64)``, and the detector's bitmaps have
        always been seeded with ``_seed`` — so this, not ``_seed`` itself,
        is what a restored counter must carry to be mergeable.
        """
        return make_rng(self._seed).getrandbits(64)

    def source_states(self) -> List[Tuple[Hashable, DistinctCounter]]:
        """The monitored ``(source, counter)`` pairs, for snapshotting."""
        return list(self._counters.items())

    def __len__(self) -> int:
        return len(self._counters)

    def _evict(self) -> None:
        """Drop the source with the fewest bits set (earliest admitted among
        ties): exactly ``min(counters, key=bits_set)`` over admission order."""
        heap = self._heap
        while True:
            bits, order, source = heap[0]
            current = self._counters[source].bits_set
            if current == bits:
                heapq.heappop(heap)
                del self._counters[source]
                self.evictions += 1
                return
            heapq.heapreplace(heap, (current, order, source))

    def _admit(self, source: Hashable) -> DistinctCounter:
        """Start monitoring ``source`` with an empty bitmap (the caller has
        made room)."""
        counter = self._counters[source] = self._blank.spawn()
        heapq.heappush(self._heap, (0, self._admissions, source))
        self._admissions += 1
        return counter

    def _counter_for(self, source: Hashable) -> DistinctCounter:
        counter = self._counters.get(source)
        if counter is not None:
            return counter
        if len(self._counters) >= self.max_sources:
            self._evict()
        return self._admit(source)

    def update(self, source: Hashable, destination: KeyLike) -> None:
        """Record that ``source`` contacted ``destination``."""
        self._counter_for(source).add(destination)
        self.updates += 1

    def update_column(self, sources: Sequence[Hashable], destinations: Sequence[int]) -> None:
        """Record one contact per row: :meth:`update` row by row, in order.

        The integer ``destinations`` are hashed as one column with the
        detector's shared bitmap hash; admissions, evictions and bit sets
        then run per row, so the table ends exactly as the per-row calls
        would leave it.
        """
        if len(sources) != len(destinations):
            raise ValueError(f"{len(sources)} sources for {len(destinations)} destinations")
        mask = (1 << self.key_bits) - 1
        hashes = tabulation_column(
            self._blank.hash_function, [destination & mask for destination in destinations]
        )
        counter_for = self._counter_for
        for source, value in zip(sources, hashes):
            counter_for(source).add_hashed(value)
        self.updates += len(hashes)

    def merge(self, other: "SuperSpreaderDetector") -> "SuperSpreaderDetector":
        """Union ``other``'s per-source bitmaps into this detector.

        Bitmap union is exact for distinct counting, so merging per-node
        detectors built from the same seed yields the fan-out each source
        would show against the concatenated stream (duplicated contacts
        observed on both nodes still count once).  Geometry and hash seed
        must match, mirroring :meth:`DistinctCounter.merge`; the guards run
        before any state changes.  If the union exceeds ``max_sources``,
        the smallest fan-outs are evicted, as arrival-time eviction would.
        """
        if other.bitmap_bits != self.bitmap_bits:
            raise ValueError("cannot merge detectors with different bitmap sizes")
        if other.key_bits != self.key_bits:
            raise ValueError("cannot merge detectors with different key widths")
        if other._seed != self._seed:
            raise ValueError("cannot merge detectors built from different hash seeds")
        for source, counter in other._counters.items():
            mine = self._counters.get(source)
            if mine is None:
                mine = self._admit(source)
            mine.merge(counter)
        self.updates += other.updates
        while len(self._counters) > self.max_sources:
            self._evict()
        return self

    def fanout(self, source: Hashable) -> float:
        """Estimated distinct destinations of ``source`` (0 if unmonitored)."""
        counter = self._counters.get(source)
        return counter.estimate() if counter is not None else 0.0

    def superspreaders(self, threshold: Optional[float] = None) -> List[SpreaderReport]:
        """Sources whose estimated fan-out meets the threshold, descending."""
        limit = threshold if threshold is not None else self.threshold
        reports = [
            SpreaderReport(source=source, fanout=counter.estimate(), contacts=counter.items_added)
            for source, counter in self._counters.items()
            if counter.estimate() >= limit
        ]
        return sorted(reports, key=lambda report: report.fanout, reverse=True)

    def top(self, count: int = 10) -> List[SpreaderReport]:
        """The ``count`` largest fan-outs currently monitored."""
        reports = [
            SpreaderReport(source=source, fanout=counter.estimate(), contacts=counter.items_added)
            for source, counter in self._counters.items()
        ]
        return sorted(reports, key=lambda report: report.fanout, reverse=True)[:count]

    @property
    def memory_bits(self) -> int:
        """Provisioned bitmap storage (a hardware table allocates all rows)."""
        return self.max_sources * self.bitmap_bits

    def stats(self) -> dict:
        return {
            "monitored_sources": len(self._counters),
            "max_sources": self.max_sources,
            "threshold": self.threshold,
            "updates": self.updates,
            "evictions": self.evictions,
            "memory_bits": self.memory_bits,
        }
