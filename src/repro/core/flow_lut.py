"""The dual-path Flow LUT (paper Figure 2) — the timed top-level model.

A descriptor entering the Flow LUT goes through the following stages, each
charged with realistic time by the event-driven simulator:

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

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import FlowLUTConfig
from repro.core.dlu import DataLookupUnit
from repro.core.flow_match import FlowMatch
from repro.core.flow_state import FlowStateTable
from repro.core.hash_cam import HashCamTable, LookupStage
from repro.core.sequencer import Sequencer
from repro.core.update import UpdateBlock
from repro.memory.controller import AddressMapping, DDR3Controller
from repro.net.parser import PacketDescriptor
from repro.sim.clock import Clock
from repro.sim.engine import Simulator
from repro.sim.fifo import Fifo
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


class FlowLUT:
    """The timed dual-path flow lookup table.

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
        self.config = config or FlowLUTConfig()
        self.sim = sim or Simulator()
        self.on_result = on_result
        self.flow_state = flow_state

        cfg = self.config
        self.clock = Clock(cfg.system_clock_hz, name="flow_lut_sys")
        self._sys_period = cfg.system_clock_period_ps

        self.table = HashCamTable(cfg)
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

        self._input: Fifo[LookupJob] = Fifo(capacity=input_queue_depth, name="sequencer_input")
        self._dispatch_scheduled = False
        self._in_dispatch = False

        self.results: List[LookupOutcome] = []
        self.submitted = 0
        self.completed = 0
        self.hits = 0
        self.misses = 0
        self.new_flows = 0
        self.insert_failures = 0
        self.rate = RateMeter(name="flow_lut_rate")
        self.latency = RunningStats(name="lookup_latency_ps")
        self._first_submit_ps: Optional[int] = None
        self._last_complete_ps: int = 0
        self._live_keys: Dict[int, bytes] = {}

    # ------------------------------------------------------------------ #
    # Address helpers
    # ------------------------------------------------------------------ #

    def _bucket_address(self, bucket: int) -> int:
        cfg = self.config
        return bucket * cfg.bursts_per_bucket * cfg.geometry.burst_bytes

    def _bucket_for_memory(self, job: LookupJob, memory: int) -> int:
        return job.index1 if memory == 0 else job.index2

    # ------------------------------------------------------------------ #
    # Submission and warm-up
    # ------------------------------------------------------------------ #

    def can_accept(self) -> bool:
        return not self._input.is_full

    def submit(self, descriptor) -> bool:
        """Offer one descriptor; returns ``False`` when the input FIFO is full.

        ``descriptor`` is normally a :class:`~repro.net.parser.PacketDescriptor`;
        any object with ``key_bytes`` works, and an optional ``bucket_indices``
        attribute overrides the hash computation (used by the Table II-A hash
        pattern experiments).
        """
        if self._input.is_full:
            return False
        key = descriptor.key_bytes
        indices = getattr(descriptor, "bucket_indices", None)
        if indices is None:
            index1, index2 = self.table.hash_indices(key)
        else:
            index1, index2 = indices
            index1 %= self.table.buckets_per_memory
            index2 %= self.table.buckets_per_memory
        job = LookupJob(
            descriptor=descriptor,
            key=key,
            index1=index1,
            index2=index2,
            submit_ps=self.sim.now,
        )
        job.preferred_path = self.sequencer.preferred_path(index1)
        self._input.push(job)
        self.submitted += 1
        if self._first_submit_ps is None:
            self._first_submit_ps = self.sim.now
        self._schedule_dispatch()
        return True

    def submit_blocking(self, descriptor, retry_cycles: int = 8) -> None:
        """Submit one descriptor, riding out input-FIFO backpressure.

        Whenever the FIFO is full the simulator runs for ``retry_cycles``
        system-clock cycles to let in-flight lookups retire, then the offer
        is retried.  The engine's batch drivers share this policy; the
        packet-level paths (:class:`~repro.analyzer.flow_processor.FlowProcessor`)
        apply the same 8-cycle quantum around their own per-packet accounting.
        """
        retry_ps = self.config.system_clock_period_ps * retry_cycles
        while not self.submit(descriptor):
            self.sim.run(until_ps=self.sim.now + retry_ps)

    def preload(self, keys) -> int:
        """Populate the table functionally (no simulated time).

        Used to model an already-built table, e.g. Table II-B's "table
        occupied with 10K entries".  Returns the number of keys actually
        inserted (duplicates and overflow failures are not counted).
        """
        inserted = 0
        for key in keys:
            key_bytes = key.key_bytes if isinstance(key, PacketDescriptor) else key
            result = self.table.insert(key_bytes)
            if result.inserted:
                inserted += 1
                if result.flow_id is not None:
                    self._live_keys[result.flow_id] = key_bytes
        return inserted

    # ------------------------------------------------------------------ #
    # Columnar bulk probe
    # ------------------------------------------------------------------ #

    def process_block(self, block, hash_columns=None):
        """Bulk-probe every row of a :class:`~repro.columns.DescriptorBlock`.

        The *functional* hot path: rows resolve strictly in order against
        the same three-stage table the timed path uses (CAM first, then
        each memory's bucket), and misses insert exactly as
        :meth:`_handle_full_miss` does — so totals, flow state, live keys
        and table contents match a ``submit_blocking``/``drain`` loop over
        the same descriptors.  What it skips is the cycle-accurate
        machinery: per-descriptor FIFO/DLU/DRAM events, the rate/latency
        meters, ``self.results`` and the ``on_result`` callback.
        Completion times follow the sequencer's steady-state envelope (two
        dispatches per system cycle), advancing ``elapsed_ps`` the way a
        saturated timed run would.

        Each row is touched once.  Once per block: the keys are sliced,
        the length / timestamp / flag columns and the two bucket-index
        columns become Python lists, and the CAM's ``searches`` / ``hits``
        and this device's totals are credited.  Per row: one CAM probe,
        at most two bucket scans, and — having missed all three — a direct
        :meth:`HashCamTable._place` (no second search; the miss is credited
        as :meth:`HashCamTable.insert` would).  Flow state gets the engine
        key bytes, so a :class:`~repro.net.fivetuple.FlowKey` is built only
        for rows that create a record.

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
        index1s, index2s = (as_list(column) for column in hash_columns)
        if len(index1s) != count or len(index2s) != count:
            raise ValueError(
                f"hash_columns have {len(index1s)} and {len(index2s)} rows, block has {count}"
            )

        base = max(self._last_complete_ps, self.sim.now)
        period = self._sys_period
        if count and self._first_submit_ps is None:
            self._first_submit_ps = base

        cam = table.cam
        cam_get = cam._entries.get
        mem1_get, mem2_get = (memory.get for memory in table._memories)
        place = table._place
        update = flow_state.update if flow_state is not None else None
        live_keys = self._live_keys
        insert_on_miss = self.config.insert_on_miss
        miss = LookupStage.MISS
        code_cam = STAGE_CODES[LookupStage.CAM]
        code_mem1 = STAGE_CODES[LookupStage.MEM1]
        code_mem2 = STAGE_CODES[LookupStage.MEM2]
        code_miss = STAGE_CODES[miss]

        flow_ids: List[int] = []
        hits = bytearray(count)
        new_flows = bytearray(count)
        stages = bytearray(count)
        cam_hits = 0
        placements = 0

        rows = zip(
            block.keys(),
            index1s,
            index2s,
            as_list(block.lengths),
            as_list(block.timestamps),
            as_list(block.flags),
        )
        for i, (key, index1, index2, length, timestamp, tcp_flags) in enumerate(rows):
            flow_id = cam_get(key)
            if flow_id is not None:
                flow_id = int(flow_id)
                hits[i] = 1
                stages[i] = code_cam
                cam_hits += 1
            else:
                for entry in mem1_get(index1, ()):
                    if entry.key == key:
                        flow_id = entry.flow_id
                        hits[i] = 1
                        stages[i] = code_mem1
                        break
                else:
                    for entry in mem2_get(index2, ()):
                        if entry.key == key:
                            flow_id = entry.flow_id
                            hits[i] = 1
                            stages[i] = code_mem2
                            break
                    else:
                        flow_id = -1
                        stages[i] = code_miss
                        if insert_on_miss:
                            placements += 1
                            stage, placed_id, _, _, _ = place(key, index1, index2, index1 & 1, None)
                            if stage is miss:
                                self.insert_failures += 1
                            else:
                                flow_id = placed_id
                                new_flows[i] = 1
                                stages[i] = STAGE_CODES[stage]
                                live_keys[flow_id] = key
            flow_ids.append(flow_id)
            if update is not None and flow_id >= 0:
                update(flow_id, key, length, timestamp, tcp_flags)

        # What the per-row calls would have counted: one CAM search per row,
        # and for every placement the search insert() makes before it places.
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
    # Dispatch (sequencer + CAM stage)
    # ------------------------------------------------------------------ #

    def _schedule_dispatch(self) -> None:
        if self._dispatch_scheduled or self._in_dispatch or self._input.is_empty:
            return
        self._dispatch_scheduled = True
        self.sim.schedule_at(self.clock.next_edge(self.sim.now), self._dispatch)

    def _dispatch(self) -> None:
        self._dispatch_scheduled = False
        self._in_dispatch = True
        dispatched: set = set()
        try:
            while self._input and len(dispatched) < 2:
                job = self._input.peek()

                # Stage 1: the on-chip CAM resolves overflow entries without DRAM.
                cam_value = self.table.cam.lookup(job.key)
                if cam_value is not None:
                    self._input.pop()
                    job.first_path = None
                    self._finish(job, found=True, stage=LookupStage.CAM,
                                 flow_id=int(cam_value), new_flow=False)
                    continue

                headroom_a = self.dlus[0].lu1_headroom if 0 not in dispatched else 0
                headroom_b = self.dlus[1].lu1_headroom if 1 not in dispatched else 0
                available = {p for p in (0, 1) if p not in dispatched}
                path = self.sequencer.choose(job.preferred_path, headroom_a, headroom_b, available)
                if path is None:
                    break
                self._input.pop()
                dispatched.add(path)
                job.first_path = path
                job.dispatch_ps = self.sim.now
                address = self._bucket_address(self._bucket_for_memory(job, path))
                self.dlus[path].submit_lookup(job, 1, address)
        finally:
            self._in_dispatch = False
        if self._input and (dispatched or any(dlu.lu1_headroom > 0 for dlu in self.dlus)):
            self._dispatch_scheduled = True
            self.sim.schedule_at(self.clock.next_edge(self.sim.now + 1), self._dispatch)

    # ------------------------------------------------------------------ #
    # Lookup pipeline (bucket data -> flow match -> second lookup / miss)
    # ------------------------------------------------------------------ #

    def _on_bucket_data(self, job: LookupJob, lookup_num: int, now_ps: int) -> None:
        path = job.first_path if lookup_num == 1 else 1 - job.first_path
        delay = self.flow_matches[path].compare_cycles * self._sys_period
        self.sim.schedule(delay, self._after_match, job, lookup_num)

    def _after_match(self, job: LookupJob, lookup_num: int) -> None:
        path = job.first_path if lookup_num == 1 else 1 - job.first_path
        memory = path
        bucket = self._bucket_for_memory(job, memory)
        entries = self.table.bucket_entries_at(memory, bucket)
        result = self.flow_matches[path].match(entries, job.key)

        if result.matched:
            stage = LookupStage.MEM1 if memory == 0 else LookupStage.MEM2
            self._finish(job, found=True, stage=stage, flow_id=result.flow_id, new_flow=False)
            return

        if lookup_num == 1:
            other = 1 - path
            address = self._bucket_address(self._bucket_for_memory(job, other))
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
        if insert.flow_id is not None:
            self._live_keys[insert.flow_id] = job.key
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
        now = self.sim.now
        outcome = LookupOutcome(
            descriptor=job.descriptor,
            flow_id=flow_id,
            hit=found,
            new_flow=new_flow,
            stage=stage,
            first_path=job.first_path,
            submit_ps=job.submit_ps,
            complete_ps=now,
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
        self._last_complete_ps = max(self._last_complete_ps, now)

        descriptor = job.descriptor
        key = getattr(descriptor, "key", None)
        if self.flow_state is not None and flow_id is not None and key is not None:
            self.flow_state.update(
                flow_id,
                key,
                length_bytes=getattr(descriptor, "length_bytes", 0),
                timestamp_ps=getattr(descriptor, "timestamp_ps", now),
                tcp_flags=getattr(descriptor, "tcp_flags", 0),
            )
        if self.on_result is not None:
            self.on_result(outcome)

    def live_key(self, flow_id: int) -> Optional[bytes]:
        """The table's key bytes for a live flow ID (None if unknown).

        This is the *engine* representation of the flow identity — the
        descriptor extractor's field packing, which is not necessarily
        :meth:`FlowKey.pack` order — so migration can delete and re-insert
        exactly the bytes the table stores.
        """
        return self._live_keys.get(flow_id)

    def live_items(self) -> List[Tuple[int, bytes]]:
        """Every live ``(flow_id, key_bytes)`` pair, sorted by flow ID.

        This is the table's live-key map — the engine-side flow identities
        a snapshot must carry so a warm restart can re-install exactly the
        keys the device held (:mod:`repro.persist`).
        """
        return sorted(self._live_keys.items())

    def live_flow_pairs(self) -> List[Tuple[bytes, Optional["FlowRecord"]]]:
        """Every live ``(key_bytes, record)`` pair of this device.

        The live-key map joined with the flow-state table: keys installed
        without state (:meth:`preload`, or no table attached) appear with
        a ``None`` record.  This is the single definition of "what a
        snapshot must capture" — the sharded engine and the persist codecs
        both build on it.
        """
        return [
            (key_bytes, self.flow_state.get(flow_id) if self.flow_state is not None else None)
            for flow_id, key_bytes in self.live_items()
        ]

    def live_packet_counts(self) -> Dict[bytes, int]:
        """``{key_bytes: packets}`` for every live flow that has a record.

        The cheap counterpart of :meth:`live_flow_pairs` for a reader that
        wants only the cumulative packet counts (the control loop's per-window
        marks): one unsorted pass over the live-key map joined with flow
        state.  Keys without a record (preloaded, or no table attached) are
        left out.
        """
        if self.flow_state is None:
            return {}
        get = self.flow_state.get
        return {
            key_bytes: record.packets
            for flow_id, key_bytes in self._live_keys.items()
            if (record := get(flow_id)) is not None
        }

    def restore_flow(self, record, key_bytes: Optional[bytes] = None) -> bool:
        """Re-home a migrated flow: functional insert plus state adoption.

        The cluster layer moves live flows between nodes when the ring
        changes.  Like :meth:`preload` this is functional (no simulated
        time): the key is inserted into the table, registered as live, and —
        when a flow-state table is attached — the record is adopted under
        the location-derived flow ID the new placement yields, keeping its
        accumulated packet/byte counters.  ``key_bytes`` must be the engine
        key the old owner's table stored (see :meth:`live_key`); it defaults
        to the standard 5-tuple packing for callers outside the migration
        path.  If the key already lives here (e.g. a packet of the flow
        arrived before its state did), the migrated counters are folded into
        the existing record.  Returns ``False`` only when the table cannot
        place the key (overflow), in which case the caller must account the
        flow as lost.
        """
        if key_bytes is None:
            key_bytes = record.key.pack()
        result = self.table.insert(key_bytes)
        if result.already_present:
            if self.flow_state is not None and result.flow_id is not None:
                existing = self.flow_state.get(result.flow_id)
                if existing is None:
                    self.flow_state.adopt(result.flow_id, record)
                else:
                    self.flow_state.fold(result.flow_id, record)
            return True
        if not result.inserted:
            return False
        if result.flow_id is not None:
            self._live_keys[result.flow_id] = key_bytes
            if self.flow_state is not None:
                self.flow_state.adopt(result.flow_id, record)
        return True

    # ------------------------------------------------------------------ #
    # Deletion and housekeeping
    # ------------------------------------------------------------------ #

    def delete_flow(self, key_bytes: bytes) -> bool:
        """Remove a flow entry, charging the DRAM write through the Update block."""
        indices = self.table.hash_indices(key_bytes)
        location = self.table.lookup(key_bytes, indices=indices)
        if not location.found:
            return False
        if location.stage in (LookupStage.MEM1, LookupStage.MEM2):
            address = self._bucket_address(location.bucket)
            self.updates[location.memory].request_delete(address, key_bytes)
        self.table.delete(key_bytes, indices=indices)
        if location.flow_id is not None:
            self._live_keys.pop(location.flow_id, None)
        return True

    def run_housekeeping(
        self,
        now_ps: Optional[int] = None,
        expired_out: Optional[List[Tuple[bytes, "FlowRecord"]]] = None,
    ) -> int:
        """One housekeeping pass: expire idle flows and delete their entries.

        Requires an attached flow-state table.  Returns the number of flows
        removed.  When ``expired_out`` is given, every expired flow's
        ``(key_bytes, record)`` pair is appended to it — the cluster layer
        uses this to purge replica copies of flows that have ended, so a
        later failover cannot resurrect them.
        """
        if self.flow_state is None:
            return 0
        now = self.sim.now if now_ps is None else now_ps
        expired = self.flow_state.expire(now)
        removed = 0
        for record in expired:
            key_bytes = self._live_keys.get(record.flow_id)
            if key_bytes is None:
                continue
            if expired_out is not None:
                expired_out.append((key_bytes, record))
            if self.delete_flow(key_bytes):
                removed += 1
        return removed

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
            "mean_latency_ns": self.latency.mean / 1000.0,
            "max_latency_ns": (self.latency.maximum / 1000.0) if self.latency.count else 0.0,
            "sequencer": self.sequencer.stats(),
            "dlus": [dlu.stats() for dlu in self.dlus],
            "updates": [update.stats() for update in self.updates],
            "flow_matches": [fm.stats() for fm in self.flow_matches],
            "controllers": [controller.report() for controller in self.controllers],
            "table": self.table.stats(),
        }
