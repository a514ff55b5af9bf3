"""Functional model of the Hash-CAM table (paper Figure 1).

The table consists of two equally sized memories (``Mem1`` / ``Mem2``), each
indexed by its own hash function and holding ``K`` entries per location, plus
a small CAM that absorbs entries which fit in neither bucket.  A search query
walks up to three pipelined stages — CAM, Hash1/Mem1, Hash2/Mem2 — and stops
at the first stage that matches, which is what lets the hardware start later
queries before earlier ones finish.

This module is the *functional* model: it defines the table contents and the
stage at which a query resolves.  The timed model
(:class:`repro.core.flow_lut.FlowLUT`) uses it as backing storage while
charging DDR3 access time for every bucket it touches.

Beside the stages the table keeps a *key index* — one ``key -> flow ID``
dict over every stored entry — which the functional bulk paths
(:meth:`repro.core.flow_lut.FlowTable.process_block` / ``install``) resolve
a key with in one ``dict.get``.  A location-derived flow ID names its stage:
Mem1's IDs come first, then Mem2's, then the CAM's from
:attr:`HashCamTable.cam_id_base` on.  :meth:`HashCamTable.lookup` and the
timed device still walk the CAM and the buckets, so no stage or DDR3 access
is skipped where the model charges for one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.cam.bcam import BinaryCAM
from repro.core.config import FlowLUTConfig
from repro.hashing.multi_hash import MultiHash
from repro.sim.rng import SeedLike


class LookupStage(enum.Enum):
    """The pipeline stage at which a search query resolved."""

    CAM = "cam"
    MEM1 = "mem1"
    MEM2 = "mem2"
    MISS = "miss"


class TableEntry(NamedTuple):
    """One occupied slot of a hash bucket."""

    key: bytes
    flow_id: int


_new_entry = partial(tuple.__new__, TableEntry)
"""A :class:`TableEntry` from a ``(key, flow_id)`` tuple (the C constructor)."""

_MEMORY_STAGES = (LookupStage.MEM1, LookupStage.MEM2)


@dataclass(frozen=True)
class LookupResult:
    """Outcome of a functional lookup."""

    found: bool
    stage: LookupStage
    flow_id: Optional[int] = None
    memory: Optional[int] = None
    bucket: Optional[int] = None
    slot: Optional[int] = None


@dataclass(frozen=True)
class InsertResult:
    """Outcome of a functional insertion."""

    inserted: bool
    stage: LookupStage
    flow_id: Optional[int] = None
    memory: Optional[int] = None
    bucket: Optional[int] = None
    slot: Optional[int] = None
    already_present: bool = False


class HashCamTable:
    """Two-choice hash table with CAM overflow.

    Parameters
    ----------
    config: table dimensions (buckets per memory, entries per bucket, CAM size).
    seed: selects the two hash functions; defaults to the config's seed.
    """

    def __init__(self, config: FlowLUTConfig, seed: SeedLike = None) -> None:
        self.config = config
        self.buckets_per_memory = config.buckets_per_memory
        self.bucket_entries = config.bucket_entries
        hash_seed = config.seed if seed is None else seed
        self._hashes = MultiHash(
            count=2,
            key_bits=config.key_bits,
            output_bits=max(32, config.hash_index_bits),
            kind="h3",
            seed=hash_seed,
        )
        # Buckets are allocated lazily (dict keyed by bucket index) so the
        # 8-million-entry prototype configuration does not materialise four
        # million empty lists up front.
        self._memories: List[Dict[int, List[TableEntry]]] = [{}, {}]
        # key -> flow ID of every stored entry, CAM and both memories.
        self._index: Dict[bytes, int] = {}
        self.cam = BinaryCAM(
            capacity=max(1, config.cam_entries),
            key_bits=config.key_bits,
            value_bits=config.flow_id_bits,
        )
        self._occupancy = [0, 0]
        self.lookups = 0
        self.stage_hits = {stage: 0 for stage in LookupStage}
        self.insert_failures = 0

    # ------------------------------------------------------------------ #
    # Index helpers
    # ------------------------------------------------------------------ #

    def hash_indices(self, key: bytes) -> Tuple[int, int]:
        """Bucket index in Mem1 and Mem2 for ``key``."""
        h1, h2 = self._hashes.hashes(key)
        return h1 % self.buckets_per_memory, h2 % self.buckets_per_memory

    def column_hash_indices(self, key_data, count: int, width: int):
        """Mem1/Mem2 bucket-index columns for a packed key column.

        ``key_data`` holds ``count`` keys of ``width`` bytes back to back;
        the two returned columns equal :meth:`hash_indices` applied per key.
        The column hashers come from the process-wide memo
        (:func:`repro.columns.hashing.column_hasher`), so every table built
        on one seed shares one compiled pair.
        """
        from repro.columns.hashing import column_hasher

        buckets = self.buckets_per_memory
        h1, h2 = (column_hasher(fn, width).hash_column(key_data, count) for fn in self._hashes)
        if isinstance(h1, list):
            return [v % buckets for v in h1], [v % buckets for v in h2]
        return h1 % buckets, h2 % buckets

    def list_hash_indices(self, keys: Sequence[bytes]) -> Tuple[List[int], List[int]]:
        """:meth:`hash_indices` of every key of a list, as two lists of Python ints.

        The keys are packed and hashed by :meth:`column_hash_indices` once
        per distinct key width; a width the column hashers cannot take (an
        empty key, or one wider than ``key_bits``) goes through
        :meth:`hash_indices` key by key, which is what accepts it.
        """
        from repro.columns.hashing import key_list_columns

        index1s, index2s = key_list_columns(
            keys, self.column_hash_indices, self.hash_indices, self.config.key_bits // 8
        )
        return index1s, index2s

    @property
    def index_family(self) -> tuple:
        """What decides this table's bucket indices: the bucket count and the
        two hash functions' matrices.  Tables with equal families map every
        key to the same indices, so index columns hashed for one are valid
        for the other (migration hands them from table to table)."""
        return (self.buckets_per_memory, *(fn.matrix for fn in self._hashes))

    def bucket_entries_at(self, memory: int, bucket: int) -> List[TableEntry]:
        """The entries currently stored at ``(memory, bucket)`` (copy)."""
        self._check_location(memory, bucket)
        return list(self._memories[memory].get(bucket, ()))

    def _check_location(self, memory: int, bucket: int) -> None:
        if memory not in (0, 1):
            raise ValueError(f"memory must be 0 or 1, got {memory}")
        if not 0 <= bucket < self.buckets_per_memory:
            raise ValueError(f"bucket {bucket} out of range")

    def location_flow_id(self, memory: int, bucket: int, slot: int) -> int:
        """Location-derived flow ID, mirroring how FID_GEN encodes matches.

        The ID packs (memory, bucket, slot); CAM-resident entries receive IDs
        above the memory-resident range.
        """
        self._check_location(memory, bucket)
        if not 0 <= slot < self.bucket_entries:
            raise ValueError(f"slot {slot} out of range")
        return (memory * self.buckets_per_memory + bucket) * self.bucket_entries + slot

    @property
    def cam_id_base(self) -> int:
        """First flow ID reserved for CAM-resident entries."""
        return 2 * self.buckets_per_memory * self.bucket_entries

    # ------------------------------------------------------------------ #
    # Lookup / insert / delete
    # ------------------------------------------------------------------ #

    def lookup(self, key: bytes, indices: Optional[Tuple[int, int]] = None) -> LookupResult:
        """Search the three stages in order, stopping at the first match.

        ``indices`` optionally overrides the hash computation (used by the
        hash-pattern experiments which drive the table with externally chosen
        bucket indices).
        """
        self.lookups += 1
        cam_value = self.cam.lookup(key)
        if cam_value is not None:
            self.stage_hits[LookupStage.CAM] += 1
            return LookupResult(found=True, stage=LookupStage.CAM, flow_id=int(cam_value))

        index1, index2 = self.hash_indices(key) if indices is None else indices
        for memory, bucket in ((0, index1), (1, index2)):
            entries = self._memories[memory].get(bucket, ())
            for slot, entry in enumerate(entries):
                if entry.key == key:
                    stage = LookupStage.MEM1 if memory == 0 else LookupStage.MEM2
                    self.stage_hits[stage] += 1
                    return LookupResult(
                        found=True,
                        stage=stage,
                        flow_id=entry.flow_id,
                        memory=memory,
                        bucket=bucket,
                        slot=slot,
                    )
        self.stage_hits[LookupStage.MISS] += 1
        return LookupResult(found=False, stage=LookupStage.MISS)

    def home_memory(self, key: bytes) -> int:
        """The memory a new entry for ``key`` is placed in by preference.

        The choice is derived from the first hash value, which is also how the
        sequencer's hash-based load balancer picks the first lookup path — so
        an entry is normally found by the very first memory access.
        """
        index1, _ = self.hash_indices(key)
        return index1 & 1

    def insert(
        self,
        key: bytes,
        flow_id: Optional[int] = None,
        preferred_memory: Optional[int] = None,
        indices: Optional[Tuple[int, int]] = None,
    ) -> InsertResult:
        """Insert ``key``; tries its preferred memory, then the other, then the CAM.

        ``preferred_memory`` defaults to :meth:`home_memory` so placement and
        the hash-based first-lookup path agree.  ``indices`` optionally
        overrides the hash computation (hash-pattern experiments).  When
        ``flow_id`` is ``None`` a location-derived ID is assigned (the FID_GEN
        behaviour).  Inserting an existing key returns its current location
        without modification.  A bad ``preferred_memory`` raises before any
        counter moves.
        """
        if preferred_memory not in (None, 0, 1):
            raise ValueError("preferred_memory must be 0 or 1")
        if indices is None:
            indices = self.hash_indices(key)
        existing = self.lookup(key, indices=indices)
        if existing.found:
            return InsertResult(
                inserted=False,
                stage=existing.stage,
                flow_id=existing.flow_id,
                memory=existing.memory,
                bucket=existing.bucket,
                slot=existing.slot,
                already_present=True,
            )
        index1, index2 = indices
        if preferred_memory is None:
            preferred_memory = index1 & 1
        stage, assigned, memory, bucket, slot = self._place(
            key, index1, index2, preferred_memory, flow_id
        )
        return InsertResult(
            inserted=stage is not LookupStage.MISS,
            stage=stage,
            flow_id=assigned,
            memory=memory,
            bucket=bucket,
            slot=slot,
        )

    def _place(
        self, key: bytes, index1: int, index2: int, preferred_memory: int, flow_id: Optional[int]
    ) -> Tuple[LookupStage, Optional[int], Optional[int], Optional[int], Optional[int]]:
        """Store a key the caller has just looked up and missed.

        The placement half of :meth:`insert`: ``preferred_memory`` (0 or 1)
        first, then the other memory, then the CAM.  Returns ``(stage,
        flow_id, memory, bucket, slot)``; a stage of ``MISS`` means nothing
        had room (counted in ``insert_failures``).  It does not search, so
        calling it for a key that is present stores a duplicate.
        """
        choices = ((0, index1), (1, index2))
        if preferred_memory == 1:
            choices = (choices[1], choices[0])
        capacity = self.bucket_entries
        for memory, bucket in choices:
            buckets = self._memories[memory]
            entries = buckets.get(bucket)
            if entries is None:
                entries = buckets[bucket] = []
            if len(entries) < capacity:
                base = (memory * self.buckets_per_memory + bucket) * capacity
                slot = self._free_slot(base, entries) if entries else 0
                assigned = base + slot if flow_id is None else flow_id
                entries.append(_new_entry((key, assigned)))
                self._index[key] = assigned
                self._occupancy[memory] += 1
                return _MEMORY_STAGES[memory], assigned, memory, bucket, slot

        assigned = flow_id if flow_id is not None else self._free_cam_id()
        if assigned is not None and self.cam.insert(key, assigned):
            self._index[key] = assigned
            return LookupStage.CAM, assigned, None, None, None
        self.insert_failures += 1
        return LookupStage.MISS, None, None, None, None

    def _free_slot(self, base: int, entries: List[TableEntry]) -> int:
        """The lowest *physical* slot of a bucket no live entry's ID occupies
        (``base`` is the bucket's slot-0 location ID).

        The entry list compacts on deletion (a storage artifact), but each
        survivor keeps the flow ID of the physical slot it was placed in.
        Assigning the next insert ``len(entries)`` would re-issue a live
        entry's ID whenever a lower slot was vacated — and a duplicated
        location ID silently overwrites that flow's state on adoption.  The
        hardware has no such failure: a bucket is K physical slots and a new
        entry takes a *free* one, which is what this models.  IDs supplied by
        the caller (``flow_id=...``) outside this bucket's location range
        don't reserve a slot.
        """
        capacity = self.bucket_entries
        used = 0
        for entry in entries:
            offset = entry.flow_id - base
            if 0 <= offset < capacity:
                used |= 1 << offset
        slot = (~used & (used + 1)).bit_length() - 1
        if slot >= capacity:
            raise RuntimeError("bucket reported free space but every slot ID is live")
        return slot

    def _unplace(self, memory: int, bucket: int, entries: List[TableEntry], slot: int) -> None:
        """Remove ``entries[slot]`` (the list stored at ``(memory, bucket)``)
        from the bucket and the key index."""
        del self._index[entries.pop(slot).key]
        if not entries:
            del self._memories[memory][bucket]
        self._occupancy[memory] -= 1

    def _free_cam_id(self) -> Optional[int]:
        """The lowest CAM-range flow ID not held by a live CAM entry.

        ``cam_id_base + occupancy`` would re-issue a live entry's ID after
        any CAM deletion (the same aliasing as :meth:`_free_slot`, in the
        overflow stage).  The CAM is small, so scanning its live values
        is cheap.  Returns ``None`` when every CAM slot ID is taken — the CAM
        is full and the insert is about to fail anyway.
        """
        used = {int(value) for _, value in self.cam}
        for offset in range(self.cam.capacity):
            candidate = self.cam_id_base + offset
            if candidate not in used:
                return candidate
        return None

    def delete(self, key: bytes, indices: Optional[Tuple[int, int]] = None) -> bool:
        """Remove ``key`` from wherever it lives; returns whether it existed.

        ``indices`` optionally supplies the bucket indices a caller already
        holds, as for :meth:`lookup`.
        """
        if self.cam.delete(key):
            del self._index[key]
            return True
        index1, index2 = self.hash_indices(key) if indices is None else indices
        for memory, bucket in ((0, index1), (1, index2)):
            entries = self._memories[memory].get(bucket)
            if not entries:
                continue
            for slot, entry in enumerate(entries):
                if entry.key == key:
                    self._unplace(memory, bucket, entries, slot)
                    return True
        return False

    def delete_rows(
        self, keys: Sequence[bytes], index1s: Sequence[int], index2s: Sequence[int]
    ) -> List[Optional[int]]:
        """Delete a column of keys whose bucket indices the caller holds.

        Row by row this is :meth:`lookup` then :meth:`delete` — the counters
        move exactly as those calls move them — without the per-key result
        object or the second search.  Returns each key's flow ID, or
        ``None`` for a key that was not in the table.
        """
        cam = self.cam
        cam_entries = cam._entries
        memories = self._memories
        index = self._index
        unplace = self._unplace
        stage_counts = [0, 0, 0, 0]  # CAM, MEM1, MEM2, MISS
        flow_ids: List[Optional[int]] = []
        for key, index1, index2 in zip(keys, index1s, index2s):
            value = cam_entries.pop(key, None)
            if value is not None:
                del index[key]
                stage_counts[0] += 1
                flow_ids.append(int(value))
                continue
            for memory, bucket in ((0, index1), (1, index2)):
                entries = memories[memory].get(bucket)
                if not entries:
                    continue
                for slot, entry in enumerate(entries):
                    if entry.key == key:
                        break
                else:
                    continue
                unplace(memory, bucket, entries, slot)
                stage_counts[1 + memory] += 1
                flow_ids.append(entry.flow_id)
                break
            else:
                stage_counts[3] += 1
                flow_ids.append(None)
        count = len(flow_ids)
        self.lookups += count
        cam.searches += count
        cam.hits += stage_counts[0]
        cam.deletions += stage_counts[0]
        for stage, hits in zip(LookupStage, stage_counts):
            self.stage_hits[stage] += hits
        return flow_ids

    def key_of(self, flow_id: int) -> Optional[bytes]:
        """The stored key whose entry holds location-derived ``flow_id``
        (``None`` when no entry does).  The ID names its memory and bucket,
        or the CAM, so one bucket or the CAM is searched; it counts no
        lookup.  The inverse of the key index for the IDs :meth:`insert`
        assigns (an ID a caller chose is not found by location)."""
        if flow_id >= self.cam_id_base:
            for key, value in self.cam:
                if int(value) == flow_id:
                    return key
            return None
        if flow_id < 0:
            return None
        memory, bucket = divmod(flow_id // self.bucket_entries, self.buckets_per_memory)
        for entry in self._memories[memory].get(bucket, ()):
            if entry.flow_id == flow_id:
                return entry.key
        return None

    def __contains__(self, key: bytes) -> bool:
        return self.lookup(key).found

    def __len__(self) -> int:
        return self._occupancy[0] + self._occupancy[1] + self.cam.occupancy

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #

    @property
    def memory_occupancy(self) -> Tuple[int, int]:
        """Entries stored in Mem1 and Mem2 respectively."""
        return self._occupancy[0], self._occupancy[1]

    @property
    def capacity(self) -> int:
        """Total entries (both memories plus the CAM)."""
        return 2 * self.buckets_per_memory * self.bucket_entries + self.cam.capacity

    @property
    def load_factor(self) -> float:
        return len(self) / self.capacity if self.capacity else 0.0

    def stats(self) -> dict:
        return {
            "entries": len(self),
            "capacity": self.capacity,
            "load_factor": self.load_factor,
            "mem1_entries": self._occupancy[0],
            "mem2_entries": self._occupancy[1],
            "cam_entries": self.cam.occupancy,
            "cam_overflows": self.cam.overflows,
            "lookups": self.lookups,
            "stage_hits": {stage.value: count for stage, count in self.stage_hits.items()},
            "insert_failures": self.insert_failures,
        }
