"""The dual-path Flow LUT (paper Figure 2): a functional table and the timed device.

:class:`FlowTable` is the functional half: the Hash-CAM table, the live-key
map, the optional per-flow state, the totals and the bulk probe
(:meth:`FlowTable.process_block`), with no simulated clock.  The engine and
cluster tiers hold one per shard.

:class:`FlowLUT` is the paper's device, built on that table.  A descriptor
entering it goes through the following stages, each charged with realistic
time by the event-driven simulator:

1. The **sequencer / load balancer** picks the first lookup path (A or B) and
   dispatches at most one descriptor per path per 200 MHz system cycle.
2. The on-chip **CAM** stage resolves collision-overflow entries immediately
   (Figure 1, stage 1) without touching DRAM.
3. The chosen path's **DLU** reads the hash bucket from its DDR3 memory set
   (LU1); the **Flow Match** block compares the returned entries against the
   original tuples.
4. A mismatch redirects the descriptor to the other path (LU2); a second
   mismatch is a flow miss, which (optionally) allocates a new entry and
   raises an insertion request towards that path's **Update block**, whose
   Burst Write Generator batches the DRAM writes.
5. **FID_GEN** semantics: matched or newly inserted entries yield a
   location-derived flow ID which is reported in the
   :class:`LookupOutcome` and, when a :class:`~repro.core.flow_state.FlowStateTable`
   is attached, used to accumulate per-flow statistics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.config import FlowLUTConfig
from repro.core.dlu import DataLookupUnit
from repro.core.flow_match import FlowMatch
from repro.core.flow_state import FlowRecord, FlowRow, FlowStateTable
from repro.core.hash_cam import HashCamTable, LookupStage
from repro.core.sequencer import Sequencer
from repro.core.update import UpdateBlock
from repro.memory.controller import AddressMapping, DDR3Controller
from repro.net.parser import PacketDescriptor
from repro.sim.clock import Clock
from repro.sim.engine import Simulator
from repro.sim.stats import RateMeter, RunningStats


@dataclass
class LookupJob:
    """A descriptor travelling through the Flow LUT."""

    descriptor: object
    key: bytes
    index1: int
    index2: int
    submit_ps: int
    preferred_path: int = -1
    first_path: Optional[int] = None
    dispatch_ps: Optional[int] = None


@dataclass(frozen=True)
class LookupOutcome:
    """The result handed out of the Flow LUT for one descriptor."""

    descriptor: object
    flow_id: Optional[int]
    hit: bool
    new_flow: bool
    stage: LookupStage
    first_path: Optional[int]
    submit_ps: int
    complete_ps: int

    @property
    def latency_ps(self) -> int:
        return self.complete_ps - self.submit_ps

    @property
    def latency_ns(self) -> float:
        return self.latency_ps / 1000.0


FlowPair = Tuple[bytes, Union[FlowRecord, FlowRow, None]]
"""One flow as tables exchange it: the engine key bytes the table stores and
its flow state — a record, the :class:`~repro.core.flow_state.FlowRow` a
migration carries, or ``None`` for a bare entry (e.g. a preloaded key)."""


class MovedFlows:
    """Flows taken out of tables, as columns: what migration hands around.

    ``pairs`` are the :data:`FlowPair` s in extraction order (a flow
    extracted by :meth:`FlowTable.extract_flows` carries a
    :class:`~repro.core.flow_state.FlowRow`);
    ``indices`` is ``(index1s, index2s, family)`` — each pair's Mem1/Mem2
    bucket indices and the :attr:`~repro.core.hash_cam.HashCamTable.index_family`
    they were hashed under — or ``None`` when they are not known.  Iterating
    yields the pairs.
    """

    __slots__ = ("pairs", "indices")

    def __init__(self, pairs: List[FlowPair], indices=None) -> None:
        self.pairs = pairs
        self.indices = indices

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def keys(self) -> List[bytes]:
        return [key_bytes for key_bytes, _ in self.pairs]

    def take(self, rows: Sequence[int]) -> "MovedFlows":
        """The given rows, in the given order, with their indices."""
        pairs = self.pairs
        indices = self.indices
        if indices is not None:
            index1s, index2s, family = indices
            indices = ([index1s[row] for row in rows], [index2s[row] for row in rows], family)
        return MovedFlows([pairs[row] for row in rows], indices)

    @classmethod
    def concat(cls, parts: Sequence["MovedFlows"]) -> "MovedFlows":
        """The parts one after another.  The indices survive only when every
        non-empty part carries them under one family."""
        parts = [part for part in parts if part.pairs]
        if len(parts) == 1:
            return parts[0]
        pairs: List[FlowPair] = []
        for part in parts:
            pairs.extend(part.pairs)
        indices = None
        if parts and all(part.indices is not None for part in parts):
            family = parts[0].indices[2]
            if all(part.indices[2] == family for part in parts):
                index1s: List[int] = []
                index2s: List[int] = []
                for part in parts:
                    index1s.extend(part.indices[0])
                    index2s.extend(part.indices[1])
                indices = (index1s, index2s, family)
        return cls(pairs, indices)


class FlowTable:
    """The functional Flow LUT: the table the engine and cluster tiers run.

    It holds what the device's lookups resolve against — the Hash-CAM
    table, whose key index is the live-key map, and the optional
    flow-state table — plus the totals and the bulk probe's steady-state
    clock, and none of the timed machinery: no simulator, no DLUs or DDR3
    controllers, no Update blocks.
    Installs, deletions and housekeeping are functional; a deletion queues
    no DRAM write.  :class:`FlowLUT` is the paper's device built on it.

    Parameters
    ----------
    config: architecture configuration; defaults to the paper's prototype.
    flow_state: optional per-flow state table.
    """

    def __init__(
        self,
        config: Optional[FlowLUTConfig] = None,
        flow_state: Optional[FlowStateTable] = None,
    ) -> None:
        self.config = config or FlowLUTConfig()
        self.flow_state = flow_state
        self._sys_period = self.config.system_clock_period_ps
        self.table = HashCamTable(self.config)
        self.submitted = 0
        self.completed = 0
        self.hits = 0
        self.misses = 0
        self.new_flows = 0
        self.insert_failures = 0
        self._first_submit_ps: Optional[int] = None
        self._last_complete_ps: int = 0

    # ------------------------------------------------------------------ #
    # Installs and the columnar bulk probe
    # ------------------------------------------------------------------ #

    def preload(self, keys) -> int:
        """Populate the table functionally (no simulated time).

        Used to model an already-built table, e.g. Table II-B's "table
        occupied with 10K entries".  The keys (bytes, or descriptors) go
        through :meth:`install` as bare entries — one column hash for the
        lot.  Returns the number of keys actually inserted (duplicates and
        overflow failures are not counted).
        """
        pairs = [
            (key.key_bytes if isinstance(key, PacketDescriptor) else key, None) for key in keys
        ]
        return self.install(pairs).count(1)

    def install(self, pairs: Sequence[FlowPair], indices=None) -> bytearray:
        """Install :data:`FlowPair` s — ``(key_bytes, record | row | None)`` —
        strictly in order.

        The one install body: :meth:`preload`, :meth:`restore_flow`,
        snapshot restore (:mod:`repro.persist`), the sharded engine and the
        cluster's migration and recovery all come through here.  Functional
        (no simulated time).  Three steps:

        1. The keys are hashed as one column
           (:meth:`HashCamTable.list_hash_indices`), unless ``indices`` —
           ``(index1s, index2s, family)``, lists of Python ints from a table
           whose :attr:`~HashCamTable.index_family` equals this table's —
           already holds them; indices of another family are ignored and
           the keys rehashed.
        2. The index columns become Python lists once.
        3. Per pair, in input order: one key-index probe (the table's
           ``key -> flow ID`` dict), then either the key is
           present — its record or row, if any, is folded into the resident
           state (or adopted when there is none) — or it is placed with
           :meth:`HashCamTable._place` and registered as live, its state
           adopted under the new location-derived ID.

        The table's ``lookups`` / ``stage_hits``, the CAM's ``searches`` /
        ``hits`` and ``insert_failures`` move exactly as a per-key
        :meth:`HashCamTable.insert` would move them (a present key's stage
        is the one its flow ID names).  A later pair sees every earlier
        one, so a key repeated within one call folds.

        Returns one flag per pair: 1 when it was installed — its key newly
        placed, or present with a record to fold or adopt — and 0 for a
        bare key already present or a key the table could not place (the
        caller accounts such a flow as lost).
        """
        count = len(pairs)
        table = self.table
        if indices is not None and indices[2] == table.index_family:
            index1s, index2s, _ = indices
            if len(index1s) != count or len(index2s) != count:
                raise ValueError(
                    f"indices have {len(index1s)} and {len(index2s)} rows, pairs {count}"
                )
        else:
            index1s, index2s = table.list_hash_indices([key for key, _ in pairs])

        index_get = table._index.get
        place = table._place
        miss = LookupStage.MISS
        mem2_base = table.buckets_per_memory * table.bucket_entries
        cam_base = table.cam_id_base
        flow_state = self.flow_state
        installed = bytearray(count)
        cam_hits = mem1_hits = mem2_hits = 0
        for row, ((key, record), index1, index2) in enumerate(zip(pairs, index1s, index2s)):
            flow_id = index_get(key)
            if flow_id is None:
                stage, flow_id, _, _, _ = place(key, index1, index2, index1 & 1, None)
                if stage is not miss:
                    installed[row] = 1
                    if record is not None and flow_state is not None:
                        flow_state.adopt(flow_id, record)
                continue
            if flow_id < mem2_base:
                mem1_hits += 1
            elif flow_id < cam_base:
                mem2_hits += 1
            else:
                cam_hits += 1
            if record is not None:
                installed[row] = 1
                if flow_state is not None:
                    if flow_id in flow_state:
                        flow_state.fold(flow_id, record)
                    else:
                        flow_state.adopt(flow_id, record)

        # What the per-key insert() calls would have counted: one lookup and
        # one CAM search per pair, and the stage each resolved at.
        found = cam_hits + mem1_hits + mem2_hits
        cam = table.cam
        cam.searches += count
        cam.hits += cam_hits
        table.lookups += count
        stage_hits = table.stage_hits
        stage_hits[LookupStage.CAM] += cam_hits
        stage_hits[LookupStage.MEM1] += mem1_hits
        stage_hits[LookupStage.MEM2] += mem2_hits
        stage_hits[miss] += count - found
        return installed

    def process_block(self, block, hash_columns=None):
        """Bulk-probe every row of a :class:`~repro.columns.DescriptorBlock`.

        The *functional* hot path: rows resolve strictly in order against
        the same three-stage table contents the timed path walks (CAM, then
        each memory's bucket), and misses insert exactly as
        :meth:`FlowLUT._handle_full_miss` does — so totals, flow state, live
        keys and table contents match a timed :class:`FlowLUT`'s
        ``submit_blocking``/``drain`` loop over the same descriptors.  What
        it skips is the cycle-accurate machinery: per-descriptor
        FIFO/DLU/DRAM events, the rate/latency meters, ``results`` and the
        ``on_result`` callback.  Completion times follow the sequencer's
        steady-state envelope (two dispatches per system cycle) from the
        table's own clock, the last completion, advancing ``elapsed_ps``
        the way a saturated timed run would.

        Once per block: the keys are sliced, the length / timestamp / flag
        columns become Python lists, and the CAM's ``searches`` / ``hits``
        and this table's totals are credited.  Per row: one key-index probe
        (the table's ``key -> flow ID`` dict; a hit's stage is the one its
        location-derived flow ID names) and — having missed — a direct
        :meth:`HashCamTable._place` with the row's bucket indices (the index
        columns become Python lists at the block's first miss; the miss is
        credited as :meth:`HashCamTable.insert` would).  Flow state then
        folds the block into its columns
        (:meth:`~repro.core.flow_state.FlowStateTable.update_rows`) with the
        engine key bytes, so no :class:`~repro.net.fivetuple.FlowKey` or
        record is built.

        ``hash_columns`` optionally supplies precomputed
        ``(index1, index2)`` bucket-index columns — the sharded engine
        hashes the full batch once and slices per shard.  Returns an
        :class:`~repro.columns.OutcomeBlock`.
        """
        from array import array

        from repro.columns import backend
        from repro.columns.block import ENGINE_KEY_WIDTH, STAGE_CODES, OutcomeBlock, as_list

        count = len(block)
        table = self.table
        flow_state = self.flow_state
        if flow_state is not None and count and block.key_width != ENGINE_KEY_WIDTH:
            raise ValueError(
                f"flow state needs {ENGINE_KEY_WIDTH}-byte 5-tuple keys, "
                f"block keys are {block.key_width} bytes"
            )
        if hash_columns is None:
            hash_columns = table.column_hash_indices(block.key_data, count, block.key_width)
        index1_col, index2_col = hash_columns
        if len(index1_col) != count or len(index2_col) != count:
            raise ValueError(
                f"hash_columns have {len(index1_col)} and {len(index2_col)} rows, "
                f"block has {count}"
            )

        base = self._last_complete_ps
        period = self._sys_period
        if count and self._first_submit_ps is None:
            self._first_submit_ps = base

        index_get = table._index.get
        place = table._place
        insert_on_miss = self.config.insert_on_miss
        miss = LookupStage.MISS
        cam_stage = LookupStage.CAM
        mem2_base = table.buckets_per_memory * table.bucket_entries
        cam_base = table.cam_id_base
        code_cam = STAGE_CODES[cam_stage]
        code_mem1 = STAGE_CODES[LookupStage.MEM1]
        code_mem2 = STAGE_CODES[LookupStage.MEM2]
        code_miss = STAGE_CODES[miss]

        keys = block.keys()
        index1s = index2s = None
        flow_ids: List[int] = []
        hits = bytearray(count)
        new_flows = bytearray(count)
        stages = bytearray(count)
        placements = 0
        cam_placements = 0

        for i, key in enumerate(keys):
            flow_id = index_get(key)
            if flow_id is not None:
                hits[i] = 1
            elif insert_on_miss:
                if index1s is None:
                    index1s, index2s = as_list(index1_col), as_list(index2_col)
                placements += 1
                index1 = index1s[i]
                stage, flow_id, _, _, _ = place(key, index1, index2s[i], index1 & 1, None)
                if stage is miss:
                    self.insert_failures += 1
                    flow_id = -1
                else:
                    new_flows[i] = 1
                    if stage is cam_stage:
                        cam_placements += 1
            else:
                flow_id = -1
            flow_ids.append(flow_id)
            # The stage a location-derived ID names (-1: nowhere).
            stages[i] = (
                code_miss if flow_id < 0
                else code_mem1 if flow_id < mem2_base
                else code_mem2 if flow_id < cam_base
                else code_cam
            )
        cam_hits = stages.count(code_cam) - cam_placements
        if flow_state is not None:
            flow_state.update_rows(
                flow_ids, keys, as_list(block.lengths), as_list(block.timestamps),
                as_list(block.flags),
            )

        # What the per-row calls would have counted: one CAM search per row,
        # and for every placement the search insert() makes before it places.
        cam = table.cam
        cam.searches += count + placements
        cam.hits += cam_hits
        table.lookups += placements
        table.stage_hits[miss] += placements
        hit_total = hits.count(1)
        new_total = new_flows.count(1)

        self.submitted += count
        self.completed += count
        self.hits += hit_total
        self.misses += count - hit_total
        self.new_flows += new_total
        if count:
            self._last_complete_ps = base + ((count - 1) // 2 + 1) * period

        np = backend.np
        if np is not None:
            complete_col = base + (np.arange(count, dtype=np.int64) // 2 + 1) * period
            return OutcomeBlock(
                block,
                np.array(flow_ids, dtype=np.int64),
                np.frombuffer(bytes(hits), dtype=np.uint8),
                np.frombuffer(bytes(new_flows), dtype=np.uint8),
                np.frombuffer(bytes(stages), dtype=np.uint8),
                np.full(count, -1, dtype=np.int8),
                np.full(count, base, dtype=np.int64),
                complete_col,
            )
        return OutcomeBlock(
            block,
            array("q", flow_ids),
            hits,
            new_flows,
            stages,
            array("b", [-1]) * count,
            array("q", [base]) * count,
            array("q", (base + (i // 2 + 1) * period for i in range(count))),
        )

    # ------------------------------------------------------------------ #
    # Live flows and migration
    # ------------------------------------------------------------------ #

    def live_key(self, flow_id: int) -> Optional[bytes]:
        """The table's key bytes for a live flow ID (None if unknown).

        This is the *engine* representation of the flow identity — the
        descriptor extractor's field packing, which is not necessarily
        :meth:`FlowKey.pack` order — so migration can delete and re-insert
        exactly the bytes the table stores.  The ID names where the entry
        lives, so this searches one bucket or the CAM
        (:meth:`HashCamTable.key_of`).
        """
        return self.table.key_of(flow_id)

    def live_items(self) -> List[Tuple[int, bytes]]:
        """Every live ``(flow_id, key_bytes)`` pair, sorted by flow ID.

        This is the table's live-key map (:class:`HashCamTable`'s key index,
        ``key -> flow ID``, turned round) — the engine-side flow identities
        a snapshot must carry so a warm restart can re-install exactly the
        keys the table held (:mod:`repro.persist`).
        """
        index = self.table._index
        return sorted(zip(index.values(), index))

    def live_keys(self) -> List[bytes]:
        """Every live key's bytes, in live-key map order (no record built)."""
        return list(self.table._index)

    def live_flow_pairs(self) -> List[Tuple[bytes, Optional["FlowRecord"]]]:
        """Every live ``(key_bytes, record)`` pair of this table.

        The live-key map joined with the flow-state table: keys installed
        without state (:meth:`preload`, or no table attached) appear with
        a ``None`` record.  This is the single definition of "what a
        snapshot must capture" — the sharded engine and the persist codecs
        both build on it (the codecs pack the same join straight from the
        flow-state columns).  Each record is built here, a snapshot.
        """
        items = self.live_items()
        state = self.flow_state
        if state is None:
            return [(key_bytes, None) for _, key_bytes in items]
        records = state.records([flow_id for flow_id, _ in items])
        return [(key_bytes, record) for (_, key_bytes), record in zip(items, records)]

    def live_flow_sizes(self) -> List[Tuple[bytes, int, int]]:
        """``(key_bytes, packets, bytes)`` of every live flow that has a
        record, in :meth:`live_flow_pairs` order — the sizes a flow-size
        histogram takes, read off two flow-state columns, no record built."""
        state = self.flow_state
        if state is None:
            return []
        row_of = state.rows.get
        packets, octets = state.packets, state.octets
        return [
            (key_bytes, packets[row], octets[row])
            for flow_id, key_bytes in self.live_items()
            if (row := row_of(flow_id)) is not None
        ]

    def live_packet_counts(self) -> Dict[bytes, int]:
        """``{key_bytes: packets}`` for every live flow that has a record.

        The cheap counterpart of :meth:`live_flow_pairs` for a reader that
        wants only the cumulative packet counts (the control loop's per-window
        marks): one unsorted pass over the live-key map joined with the
        flow-state packets column.  Keys without a record (preloaded, or no
        table attached) are left out.
        """
        state = self.flow_state
        if state is None:
            return {}
        row_of = state.rows.get
        packets = state.packets
        return {
            key_bytes: packets[row]
            for key_bytes, flow_id in self.table._index.items()
            if (row := row_of(flow_id)) is not None
        }

    def restore_flow(self, record, key_bytes: Optional[bytes] = None) -> bool:
        """Re-home one flow record: a one-pair :meth:`install`.

        Functional (no simulated time): the key is inserted into the table,
        registered as live, and — when a flow-state table is attached — the
        record is adopted under the location-derived flow ID the new
        placement yields, keeping its accumulated packet/byte counters.
        ``key_bytes`` must be the engine key the old owner's table stored
        (see :meth:`live_key`); it defaults to the standard 5-tuple packing.
        If the key already lives here (e.g. a packet of the flow arrived
        before its state did), the counters are folded into the existing
        record.  Returns ``False`` only when the table cannot place the key
        (overflow), in which case the caller must account the flow as lost.
        Bulk callers hand :meth:`install` all their pairs at once instead.
        """
        if key_bytes is None:
            key_bytes = record.key.pack()
        return bool(self.install([(key_bytes, record)])[0])

    def extract_flows(self, select=None) -> "MovedFlows":
        """Detach and delete the live flows ``select`` picks, as columns.

        The flow-state rows that have a table entry are walked once, in
        flow-state record order, into one key column; ``select(keys)``
        (``None`` takes all) returns one truthy flag per key.  The picked
        keys are hashed as one column, deleted with those indices
        (:meth:`HashCamTable.delete_rows`, functional: no DRAM write is
        charged, even on a timed :class:`FlowLUT`) and their state detached
        as :class:`~repro.core.flow_state.FlowRow` s — not exported, the
        flows are moving, not ending.  The returned :class:`MovedFlows`
        carries the ``(key_bytes, row)`` pairs and the indices, so
        a receiver of the same :attr:`~HashCamTable.index_family` installs
        them without hashing again.
        """
        state = self.flow_state
        if state is None:
            return MovedFlows([])
        table = self.table
        index = table._index
        live_get = dict(zip(index.values(), index)).get
        moving = [
            (flow_id, key_bytes)
            for flow_id in state.rows
            if (key_bytes := live_get(flow_id)) is not None
        ]
        keys = [key_bytes for _, key_bytes in moving]
        if select is not None and keys:
            mask = select(keys)
            moving = list(compress(moving, mask))
            keys = list(compress(keys, mask))
        if not keys:
            return MovedFlows([])
        index1s, index2s = table.list_hash_indices(keys)
        pairs = list(zip(keys, state.detach_rows([flow_id for flow_id, _ in moving])))
        table.delete_rows(keys, index1s, index2s)
        return MovedFlows(pairs, (index1s, index2s, table.index_family))

    # ------------------------------------------------------------------ #
    # Deletion and housekeeping
    # ------------------------------------------------------------------ #

    def delete_flow(self, key_bytes: bytes) -> bool:
        """Remove a flow entry; returns whether the key was in the table."""
        return self._remove(key_bytes) is not None

    def _remove(self, key_bytes: bytes):
        """Delete ``key_bytes`` from the table (and so its key index); returns
        where it lived (a :class:`~repro.core.hash_cam.LookupResult`), or
        ``None`` when it was not there."""
        indices = self.table.hash_indices(key_bytes)
        location = self.table.lookup(key_bytes, indices=indices)
        if not location.found:
            return None
        self.table.delete(key_bytes, indices=indices)
        return location

    def run_housekeeping(
        self,
        now_ps: int,
        expired_out: Optional[List[Tuple[bytes, "FlowRecord"]]] = None,
    ) -> int:
        """One housekeeping pass: expire idle flows and delete their entries.

        ``now_ps`` is the workload clock (the latest descriptor timestamp):
        record idle times are measured in descriptor timestamps.  Requires
        an attached flow-state table.  Returns the number of flows removed.
        When ``expired_out`` is given, every expired flow's ``(key_bytes,
        record)`` pair is appended to it — the cluster layer uses this to
        purge replica copies of flows that have ended, so a later failover
        cannot resurrect them.
        """
        if self.flow_state is None:
            return 0
        expired = self.flow_state.expire(now_ps)
        removed = 0
        for record in expired:
            key_bytes = self.live_key(record.flow_id)
            if key_bytes is None:
                continue
            if expired_out is not None:
                expired_out.append((key_bytes, record))
            if self.delete_flow(key_bytes):
                removed += 1
        return removed

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    @property
    def elapsed_ps(self) -> int:
        """First submission to last completion."""
        if self._first_submit_ps is None:
            return 0
        return max(0, self._last_complete_ps - self._first_submit_ps)

    @property
    def throughput_mdesc_s(self) -> float:
        """Average processing rate in million descriptors per second."""
        elapsed = self.elapsed_ps
        if elapsed <= 0:
            return 0.0
        return self.completed * 1e6 / elapsed

    @property
    def miss_rate(self) -> float:
        return self.misses / self.completed if self.completed else 0.0

    def report(self) -> dict:
        return {
            "config": self.config.summary(),
            "submitted": self.submitted,
            "completed": self.completed,
            "hits": self.hits,
            "misses": self.misses,
            "new_flows": self.new_flows,
            "insert_failures": self.insert_failures,
            "miss_rate": self.miss_rate,
            "throughput_mdesc_s": self.throughput_mdesc_s,
            "table": self.table.stats(),
        }


# The first-lookup paths still free this cycle, indexed by the bit mask of
# paths (bit 0 = A, bit 1 = B) that already took a descriptor.
_AVAILABLE = (frozenset((0, 1)), frozenset((1,)), frozenset((0,)), frozenset())


class FlowLUT(FlowTable):
    """The timed dual-path flow lookup table: the paper's device.

    A :class:`FlowTable` plus the sequencer, two DLUs on two DDR3
    controllers, the Flow Match blocks and the Update blocks, all driven by
    one event-driven simulator.

    Parameters
    ----------
    config: architecture configuration; defaults to the paper's prototype.
    sim: an existing simulator to share (a new one is created otherwise).
    on_result: optional callback invoked with every :class:`LookupOutcome`.
    flow_state: optional per-flow state table (attached by the NetFlow /
        traffic-analyzer applications).
    input_queue_depth: descriptor FIFO in front of the sequencer.
    """

    def __init__(
        self,
        config: Optional[FlowLUTConfig] = None,
        sim: Optional[Simulator] = None,
        on_result: Optional[Callable[[LookupOutcome], None]] = None,
        flow_state: Optional[FlowStateTable] = None,
        input_queue_depth: int = 32,
    ) -> None:
        super().__init__(config, flow_state)
        self.sim = sim or Simulator()
        self.on_result = on_result

        cfg = self.config
        self.clock = Clock(cfg.system_clock_hz, name="flow_lut_sys")
        self._bucket_stride = cfg.bursts_per_bucket * cfg.geometry.burst_bytes

        self.sequencer = Sequencer(
            policy=cfg.load_balance_policy,
            path_a_fraction=cfg.path_a_fraction,
            seed=cfg.seed,
        )

        self.controllers: List[DDR3Controller] = []
        self.dlus: List[DataLookupUnit] = []
        self.flow_matches: List[FlowMatch] = []
        self.updates: List[UpdateBlock] = []
        for path, label in enumerate("ab"):
            controller = DDR3Controller(
                sim=self.sim,
                timing=cfg.timing,
                geometry=cfg.geometry,
                mapping=AddressMapping(cfg.geometry, cfg.mapping_scheme),
                page_policy=cfg.page_policy,
                queue_depth=cfg.controller_queue_depth,
                max_outstanding=cfg.controller_max_outstanding,
                refresh_enabled=cfg.refresh_enabled,
                name=f"ddr3_{label}",
            )
            dlu = DataLookupUnit(
                sim=self.sim,
                config=cfg,
                controller=controller,
                on_bucket_data=self._on_bucket_data,
                name=f"dlu_{label}",
            )
            dlu.on_lu1_drain(self._schedule_dispatch)
            self.controllers.append(controller)
            self.dlus.append(dlu)
            self.flow_matches.append(FlowMatch(name=f"flow_match_{label}"))
            self.updates.append(UpdateBlock(self.sim, cfg, dlu, name=f"updt_{label}"))

        if input_queue_depth <= 0:
            raise ValueError(f"input_queue_depth must be positive, got {input_queue_depth}")
        # The descriptor FIFO in front of the sequencer.
        self._input: Deque[LookupJob] = deque()
        self._input_depth = input_queue_depth
        self._dispatch_scheduled = False
        self._in_dispatch = False

        self.results: List[LookupOutcome] = []
        self.rate = RateMeter(name="flow_lut_rate")
        self.latency = RunningStats(name="lookup_latency_ps")

    # ------------------------------------------------------------------ #
    # Address helpers
    # ------------------------------------------------------------------ #

    def _bucket_address(self, bucket: int) -> int:
        return bucket * self._bucket_stride

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #

    def submit(self, descriptor) -> bool:
        """Offer one descriptor; returns ``False`` when the input FIFO is full.

        ``descriptor`` is normally a :class:`~repro.net.parser.PacketDescriptor`;
        any object with ``key_bytes`` works, and an optional ``bucket_indices``
        attribute overrides the hash computation (used by the Table II-A hash
        pattern experiments).
        """
        if len(self._input) >= self._input_depth:
            return False
        key = descriptor.key_bytes
        indices = getattr(descriptor, "bucket_indices", None)
        if indices is None:
            index1, index2 = self.table.hash_indices(key)
        else:
            index1, index2 = indices
            index1 %= self.table.buckets_per_memory
            index2 %= self.table.buckets_per_memory
        now = self.sim._now
        job = LookupJob(descriptor, key, index1, index2, now)
        job.preferred_path = self.sequencer.preferred_path(index1)
        self._input.append(job)
        self.submitted += 1
        if self._first_submit_ps is None:
            self._first_submit_ps = now
        self._schedule_dispatch()
        return True

    def submit_blocking(self, descriptor, retry_cycles: int = 8) -> None:
        """Submit one descriptor, riding out input-FIFO backpressure.

        Whenever the FIFO is full the simulator runs for ``retry_cycles``
        system-clock cycles to let in-flight lookups retire, then the offer
        is retried.  The engine's timed batch replay shares this policy; the
        packet-level paths (:class:`~repro.analyzer.flow_processor.FlowProcessor`)
        apply the same 8-cycle quantum around their own per-packet accounting.
        """
        retry_ps = self.config.system_clock_period_ps * retry_cycles
        while not self.submit(descriptor):
            self.sim.run(until_ps=self.sim.now + retry_ps)

    # ------------------------------------------------------------------ #
    # Dispatch (sequencer + CAM stage)
    # ------------------------------------------------------------------ #

    def _schedule_dispatch(self) -> None:
        if self._dispatch_scheduled or self._in_dispatch or not self._input:
            return
        self._dispatch_scheduled = True
        self.sim.schedule_at(self.clock.next_edge(self.sim._now), self._dispatch)

    def _dispatch(self) -> None:
        self._dispatch_scheduled = False
        self._in_dispatch = True
        pending = self._input
        dlu_a, dlu_b = self.dlus
        cam_lookup = self.table.cam.lookup
        choose = self.sequencer.choose
        now = self.sim._now
        # Paths that already took a descriptor this cycle, as a bit mask.
        dispatched = 0
        try:
            while pending and dispatched != 3:
                job = pending[0]

                # Stage 1: the on-chip CAM resolves overflow entries without DRAM.
                cam_value = cam_lookup(job.key)
                if cam_value is not None:
                    pending.popleft()
                    job.first_path = None
                    self._finish(job, found=True, stage=LookupStage.CAM,
                                 flow_id=int(cam_value), new_flow=False)
                    continue

                headroom_a = dlu_a.lu1_headroom if not dispatched & 1 else 0
                headroom_b = dlu_b.lu1_headroom if not dispatched & 2 else 0
                path = choose(
                    job.preferred_path, headroom_a, headroom_b, _AVAILABLE[dispatched]
                )
                if path is None:
                    break
                pending.popleft()
                dispatched |= 1 << path
                job.first_path = path
                job.dispatch_ps = now
                address = (job.index1 if path == 0 else job.index2) * self._bucket_stride
                self.dlus[path].submit_lookup(job, 1, address)
        finally:
            self._in_dispatch = False
        if pending and (dispatched or dlu_a.lu1_headroom > 0 or dlu_b.lu1_headroom > 0):
            self._dispatch_scheduled = True
            self.sim.schedule_at(self.clock.next_edge(self.sim._now + 1), self._dispatch)

    # ------------------------------------------------------------------ #
    # Lookup pipeline (bucket data -> flow match -> second lookup / miss)
    # ------------------------------------------------------------------ #

    def _on_bucket_data(self, job: LookupJob, lookup_num: int, now_ps: int) -> None:
        path = job.first_path if lookup_num == 1 else 1 - job.first_path
        delay = self.flow_matches[path].compare_cycles * self._sys_period
        self.sim.schedule(delay, self._after_match, job, lookup_num)

    def _after_match(self, job: LookupJob, lookup_num: int) -> None:
        # Path A reads memory 1 (the first hash's bucket), path B memory 2.
        path = job.first_path if lookup_num == 1 else 1 - job.first_path
        bucket = job.index1 if path == 0 else job.index2
        entries = self.table.bucket_entries_at(path, bucket)
        result = self.flow_matches[path].match(entries, job.key)

        if result.matched:
            stage = LookupStage.MEM1 if path == 0 else LookupStage.MEM2
            self._finish(job, found=True, stage=stage, flow_id=result.flow_id, new_flow=False)
            return

        if lookup_num == 1:
            other = 1 - path
            address = (job.index1 if other == 0 else job.index2) * self._bucket_stride
            self.dlus[other].submit_lookup(job, 2, address)
            return

        self._handle_full_miss(job)

    def _handle_full_miss(self, job: LookupJob) -> None:
        if not self.config.insert_on_miss:
            self._finish(job, found=False, stage=LookupStage.MISS, flow_id=None, new_flow=False)
            return
        preferred = job.first_path if job.first_path in (0, 1) else None
        insert = self.table.insert(
            job.key, preferred_memory=preferred, indices=(job.index1, job.index2)
        )
        if insert.already_present:
            # Another packet of the same brand-new flow raced ahead and its
            # insertion landed while this lookup was in flight; resolve it as
            # a hit on the freshly created entry rather than a duplicate.
            self._finish(
                job, found=True, stage=insert.stage, flow_id=insert.flow_id, new_flow=False
            )
            return
        if not insert.inserted:
            self.insert_failures += 1
            self._finish(job, found=False, stage=LookupStage.MISS, flow_id=None, new_flow=False)
            return
        if insert.stage in (LookupStage.MEM1, LookupStage.MEM2):
            address = self._bucket_address(insert.bucket)
            self.updates[insert.memory].request_insert(address, job.key)
        self._finish(job, found=False, stage=insert.stage, flow_id=insert.flow_id, new_flow=True)

    # ------------------------------------------------------------------ #
    # Completion (FID_GEN and flow state)
    # ------------------------------------------------------------------ #

    def _finish(
        self,
        job: LookupJob,
        found: bool,
        stage: LookupStage,
        flow_id: Optional[int],
        new_flow: bool,
    ) -> None:
        now = self.sim._now
        outcome = LookupOutcome(
            job.descriptor, flow_id, found, new_flow, stage, job.first_path, job.submit_ps, now
        )
        self.results.append(outcome)
        self.completed += 1
        if found:
            self.hits += 1
        else:
            self.misses += 1
        if new_flow:
            self.new_flows += 1
        self.rate.record(now)
        self.latency.record(now - job.submit_ps)
        if now > self._last_complete_ps:
            self._last_complete_ps = now

        if self.flow_state is not None and flow_id is not None:
            descriptor = job.descriptor
            key = getattr(descriptor, "key", None)
            if key is not None:
                self.flow_state.update(
                    flow_id,
                    key,
                    length_bytes=getattr(descriptor, "length_bytes", 0),
                    timestamp_ps=getattr(descriptor, "timestamp_ps", now),
                    tcp_flags=getattr(descriptor, "tcp_flags", 0),
                )
        if self.on_result is not None:
            self.on_result(outcome)

    # ------------------------------------------------------------------ #
    # Deletion
    # ------------------------------------------------------------------ #

    def delete_flow(self, key_bytes: bytes) -> bool:
        """Remove a flow entry, charging the DRAM write through the Update block."""
        location = self._remove(key_bytes)
        if location is None:
            return False
        if location.memory is not None:
            address = self._bucket_address(location.bucket)
            self.updates[location.memory].request_delete(address, key_bytes)
        return True

    # ------------------------------------------------------------------ #
    # Draining and reporting
    # ------------------------------------------------------------------ #

    @property
    def busy(self) -> bool:
        return (
            bool(self._input)
            or any(dlu.busy for dlu in self.dlus)
            or any(update.busy for update in self.updates)
        )

    def drain(self, max_rounds: int = 64) -> None:
        """Run the simulator until every in-flight lookup and update retires."""
        for _ in range(max_rounds):
            self.sim.run()
            pending_updates = any(update.pending for update in self.updates)
            if pending_updates:
                for update in self.updates:
                    update.flush()
                continue
            if not self.busy and self.sim.peek_next_time() is None:
                return
        raise RuntimeError("Flow LUT failed to drain; in-flight work is stuck")

    def report(self) -> dict:
        return {
            **super().report(),
            "mean_latency_ns": self.latency.mean / 1000.0,
            "max_latency_ns": (self.latency.maximum / 1000.0) if self.latency.count else 0.0,
            "sequencer": self.sequencer.stats(),
            "dlus": [dlu.stats() for dlu in self.dlus],
            "updates": [update.stats() for update in self.updates],
            "flow_matches": [fm.stats() for fm in self.flow_matches],
            "controllers": [controller.report() for controller in self.controllers],
        }
