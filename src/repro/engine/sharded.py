"""Sharded fast-path execution over independent Flow LUT instances.

The paper's Flow LUT is a line-rate design, but one timed instance can only
model one device.  Scaling the reproduction towards production traffic means
doing what deployments do: partition the flow space by hash across ``N``
independent Flow LUTs and drive them with *batches* of descriptors instead
of one packet at a time.

:class:`ShardedFlowLUT` implements that layer over one ingest body: a
:class:`~repro.columns.DescriptorBlock` is hashed once, steered by CRC-32
(independent of the per-shard H3 bucket hashing) and bulk-probed per shard
(:meth:`FlowLUT.process_block <repro.core.flow_lut.FlowLUT.process_block>`);
descriptor sequences are packed into a block at the entrance.  Every packet
of a flow lands on the same shard, so the aggregate hit / miss / new-flow
accounting is identical to a single LUT serving the whole stream.  The bulk
probe advances each shard along the sequencer's steady-state envelope, so
:attr:`ShardedFlowLUT.throughput_mdesc_s` — the slowest shard's simulated
time, the shards being parallel devices — is that envelope, not a
cycle-accurate figure; the cycle-accurate multi-device figures come from
:func:`repro.engine.runner.replay_timed`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.columns import backend as col_backend
from repro.columns.block import DescriptorBlock, OutcomeBlock
from repro.columns.hashing import crc32_partition
from repro.core.config import FlowLUTConfig
from repro.core.flow_lut import FlowLUT
from repro.core.flow_state import FlowRecord, FlowStateTable
from repro.hashing.crc import CRC32
from repro.net.parser import PacketDescriptor
from repro.obs.metrics import MetricsRegistry
from repro.obs.plane import Observability
from repro.sim.stats import busiest_over_mean


def _slice_column(column, indices):
    """Rows ``indices`` of a hash column (fancy-index or list fallback)."""
    np = col_backend.np
    if np is not None:
        return np.asarray(column)[np.asarray(indices, dtype=np.int64)]
    return [column[i] for i in indices]


class _NullBatchTimer:
    """The obs-off stage timer: every hook is a per-batch no-op.

    :meth:`ShardedFlowLUT.process_batch` is written once against this
    interface, so the instrumented and plain runs execute the same body and
    cannot drift; :class:`_BatchTimer` is what ``obs=`` swaps in.
    """

    def begin(self) -> None:
        pass

    def lap(self, stage: str, shard: int = -1, packets: int = 0) -> None:
        pass

    def finish(self, engine: "ShardedFlowLUT", block: DescriptorBlock) -> None:
        pass


class _BatchTimer(_NullBatchTimer):
    """Per-batch stage timings, counters, spans and window advance.

    ``lap`` closes the stage that ran since the previous clock read, so a
    batch costs one read per stage (one per non-empty shard for ``probe``);
    tracing reuses those reads as span boundaries and takes none of its own.
    Children are bound once here so the per-batch cost is a few attribute
    accesses, not label-dict hashing.
    """

    def __init__(
        self, registry: MetricsRegistry, labels: Dict[str, str], shards: int, windows, spans
    ) -> None:
        self.clock = registry.clock
        self.windows = windows
        self.spans = spans
        label_names = tuple(labels)
        stage_hist = registry.histogram(
            "repro_engine_stage_ns",
            "Host-side duration of each batch stage (hash/steer/probe/pack/telemetry)",
            labels=(*label_names, "stage"),
        )
        self._stages = {
            stage: stage_hist.labels(**labels, stage=stage)
            for stage in ("hash", "steer", "probe", "pack", "telemetry")
        }
        shard_counter = registry.counter(
            "repro_engine_shard_descriptors_total",
            "Descriptors ingested per shard",
            labels=(*label_names, "shard"),
        )
        self._shards = [
            shard_counter.labels(**labels, shard=str(index)) for index in range(shards)
        ]
        self._batches = registry.counter(
            "repro_engine_batches_total",
            "Merged descriptor batches processed",
            labels=label_names,
        ).labels(**labels)
        outcome_counter = registry.counter(
            "repro_engine_outcomes_total",
            "Lookup outcomes by result (hit/miss/new_flow)",
            labels=(*label_names, "result"),
        )
        self._outcomes = [
            outcome_counter.labels(**labels, result=result)
            for result in ("hit", "miss", "new_flow")
        ]
        self._prev_outcomes = (0, 0, 0)

    def begin(self) -> None:
        spans = self.spans
        self._traced, self._parent = (
            spans.batch_parent() if spans is not None else (False, None)
        )
        self._laps: List[Tuple[str, int, int, int, int]] = []
        self._mark = self.clock()

    def lap(self, stage: str, shard: int = -1, packets: int = 0) -> None:
        now = self.clock()
        self._laps.append((stage, self._mark, now, shard, packets))
        self._mark = now

    def finish(self, engine: "ShardedFlowLUT", block: DescriptorBlock) -> None:
        durations: Dict[str, int] = {}
        for stage, start, end, shard, packets in self._laps:
            durations[stage] = durations.get(stage, 0) + end - start
            if shard >= 0:
                self._shards[shard].inc(packets)
        for stage, duration in durations.items():
            self._stages[stage].observe(duration)
        self._batches.inc()
        totals = (engine.hits, engine.misses, engine.new_flows)
        for counter, total, previous in zip(self._outcomes, totals, self._prev_outcomes):
            if total != previous:
                counter.inc(total - previous)
        self._prev_outcomes = totals
        if self._traced:
            self._emit_spans(len(block))
        if self.windows is not None:
            self.windows.advance(int(block.timestamps[len(block) - 1]))

    def _emit_spans(self, packets: int) -> None:
        """Turn the batch's laps into one span tree (laps are contiguous)."""
        spans = self.spans
        laps = self._laps
        parent = self._parent
        if parent is None:
            parent = spans.emit("ingest_batch", laps[0][1], laps[-1][2], None, packets=packets)
        for stage, start, end, shard, shard_packets in laps:
            if shard >= 0:
                owner = spans.emit("shard", start, end, parent, shard=shard, packets=shard_packets)
                spans.emit(stage, start, end, owner)
            else:
                spans.emit(stage, start, end, parent)


class ShardedFlowLUT:
    """``N`` independent Flow LUTs behind one batched lookup API.

    Parameters
    ----------
    shards: number of Flow LUT instances (each a full dual-path device with
        its own memory sets and simulator).
    config: per-shard architecture configuration; defaults to the paper's
        prototype, like :class:`~repro.core.flow_lut.FlowLUT` itself.
    on_batch: optional callback invoked with every batch's merged
        :class:`~repro.columns.OutcomeBlock` (the telemetry plane rides
        this).
    obs: a :class:`~repro.obs.metrics.MetricsRegistry` — or a full
        :class:`~repro.obs.plane.Observability` plane — to instrument the
        batch path with: per-batch stage timings (``repro_engine_stage_ns``:
        hash → steer → probe → pack → telemetry), per-shard
        ingest counters (``repro_engine_shard_descriptors_total``), and
        per-batch outcome counters (``repro_engine_outcomes_total`` by
        ``result=hit|miss|new_flow``).  A plane additionally wires its
        windowed registry (advanced with the last descriptor timestamp of
        every batch) and its span recorder (emit-based batch traces from
        the clock reads the stage histograms already take).
        ``None`` (the default) disables instrumentation; the disabled
        path runs the same body over a no-op timer.
    obs_labels: extra label values stamped on every engine metric (the
        cluster layer passes ``node=<id>`` so per-node series coexist in
        one fleet registry).
    windows: override the plane's windowed registry — ``False`` suppresses
        per-batch window advance (the cluster coordinator does this and
        advances once per time-ordered ingest segment instead, since its
        node-major batch order would misattribute deltas).
    spans: override the plane's span recorder (``False`` suppresses).
    """

    def __init__(
        self,
        shards: int = 4,
        config: Optional[FlowLUTConfig] = None,
        on_batch: Optional[Callable[[OutcomeBlock], None]] = None,
        obs: Optional[MetricsRegistry] = None,
        obs_labels: Optional[Dict[str, str]] = None,
        windows=None,
        spans=None,
    ) -> None:
        if shards <= 0:
            raise ValueError("shards must be positive")
        self.config = config or FlowLUTConfig()
        self.num_shards = shards
        self.on_batch = on_batch
        self.shards: List[FlowLUT] = [FlowLUT(self.config) for _ in range(shards)]
        self.batches = 0
        if isinstance(obs, Observability):
            if windows is None:
                windows = obs.windows
            if spans is None:
                spans = obs.spans
            obs = obs.metrics
        self.obs = obs
        self._timer = (
            _BatchTimer(obs, dict(obs_labels or {}), shards, windows or None, spans or None)
            if obs is not None
            else _NullBatchTimer()
        )

    def set_span_recorder(self, spans) -> object:
        """Swap the engine's span recorder; returns the previous one.

        The parallel ingestion path (:mod:`repro.parallel`) parks the
        plane's shared recorder while a worker runs this engine — the
        shared recorder's counters are not thread-safe — and installs a
        private per-worker recorder instead (``None`` disables emission for
        the segment, like a suppressed subtree).  Without instrumentation
        (``obs=None``) there is no emit path to feed, so the call is a
        no-op returning ``None``.
        """
        if self.obs is None:
            return None
        previous = self._timer.spans
        self._timer.spans = spans if spans else None
        return previous

    # ------------------------------------------------------------------ #
    # Partitioning
    # ------------------------------------------------------------------ #

    def shard_of(self, key_bytes: bytes) -> int:
        """The shard a flow key is pinned to (CRC-32 of the packed key).

        CRC-32 is deliberately a different hash family from the per-shard H3
        bucket hashing, so shard placement does not correlate with bucket
        placement inside a shard.  The hash is the repo-wide
        :data:`repro.hashing.crc.CRC32` — the same implementation the
        cluster ring and the vectorised column partitioner use, so all
        three steering layers provably agree.
        """
        return CRC32.hash(key_bytes) % self.num_shards

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #

    def preload(self, keys) -> int:
        """Functionally pre-populate the shards (no simulated time)."""
        groups: List[List[bytes]] = [[] for _ in range(self.num_shards)]
        for key in keys:
            key_bytes = key.key_bytes if isinstance(key, PacketDescriptor) else key
            groups[self.shard_of(key_bytes)].append(key_bytes)
        return sum(shard.preload(group) for shard, group in zip(self.shards, groups))

    def process_batch(self, descriptors):
        """Run one batch through all shards and merge the outcomes.

        A :class:`~repro.columns.DescriptorBlock` returns an
        :class:`~repro.columns.OutcomeBlock`.  A ``Sequence[PacketDescriptor]``
        is packed into a block first — the whole sequence, before any shard
        or counter is touched, so a descriptor outside the standard 5-tuple
        layout raises ``ValueError`` and changes nothing — and answered with
        the ``LookupOutcome`` list in row order.  An empty batch of either
        kind is not a batch: nothing is counted, ``on_batch`` is not called
        and no window advances.

        The block is hashed once (both H3 bucket columns — every shard
        shares the same seed, so they are computed once and sliced per
        shard), steered with the vectorised CRC-32 partitioner, bulk-probed
        per shard, and the per-shard outcomes are scattered back into
        original row order.  Dispatch cost is paid per batch, not per
        packet.
        """
        if isinstance(descriptors, DescriptorBlock):
            return self._process_block(descriptors)
        return self._process_block(DescriptorBlock.from_descriptors(descriptors)).to_outcomes()

    def _process_block(self, block: DescriptorBlock) -> OutcomeBlock:
        count = len(block)
        if not count:
            return OutcomeBlock.merge_scatter(block, [])
        timer = self._timer
        timer.begin()
        idx1_col, idx2_col = self.shards[0].table.column_hash_indices(
            block.key_data, count, block.key_width
        )
        timer.lap("hash")
        if self.num_shards == 1:
            parts = [(0, range(count), block, (idx1_col, idx2_col))]
        else:
            groups = crc32_partition(block.key_data, count, block.key_width, self.num_shards)
            parts = [
                (
                    shard_index,
                    indices,
                    block.take(indices),
                    (_slice_column(idx1_col, indices), _slice_column(idx2_col, indices)),
                )
                for shard_index, indices in enumerate(groups)
                if len(indices)
            ]
        timer.lap("steer")
        outcomes = []
        for shard_index, indices, sub, columns in parts:
            outcome = self.shards[shard_index].process_block(sub, hash_columns=columns)
            outcomes.append((indices, outcome))
            timer.lap("probe", shard_index, len(sub))
        if len(outcomes) == 1:
            merged = outcomes[0][1]
        else:
            merged = OutcomeBlock.merge_scatter(block, outcomes)
        timer.lap("pack")
        self.batches += 1
        if self.on_batch is not None:
            self.on_batch(merged)
            timer.lap("telemetry")
        timer.finish(self, block)
        return merged

    def drain(self) -> None:
        """Drain every shard (in-flight lookups and pending burst writes)."""
        for shard in self.shards:
            shard.drain()

    # ------------------------------------------------------------------ #
    # Flow state, aging and migration
    # ------------------------------------------------------------------ #

    def attach_flow_state(self, timeout_us: Optional[float] = None) -> List[FlowStateTable]:
        """Give every shard its own flow-state table; returns the tables.

        ``timeout_us`` defaults to the configuration's housekeeping timeout.
        Flow state is per shard — flows are pinned to shards by key hash, so
        no record ever needs to be visible across shard boundaries — and
        enables :meth:`run_housekeeping` plus the cluster layer's live-flow
        migration.  Calling this again replaces the tables (records in the
        old ones are abandoned), so attach before processing traffic.
        """
        timeout = timeout_us if timeout_us is not None else self.config.flow_timeout_us
        for shard in self.shards:
            shard.flow_state = FlowStateTable(timeout_us=timeout)
        return [shard.flow_state for shard in self.shards]

    @property
    def flow_states(self) -> List[Optional[FlowStateTable]]:
        return [shard.flow_state for shard in self.shards]

    def flow_records(self) -> Iterator[FlowRecord]:
        """Every live flow record across all shards (needs attached state)."""
        for shard in self.shards:
            if shard.flow_state is not None:
                yield from shard.flow_state

    @property
    def active_flows(self) -> int:
        """Live flow records across all shards (0 without attached state)."""
        return sum(
            len(shard.flow_state) for shard in self.shards if shard.flow_state is not None
        )

    def live_flow_pairs(self) -> List[Tuple[bytes, Optional[FlowRecord]]]:
        """Every live ``(engine_key_bytes, record)`` pair across all shards.

        The non-destructive counterpart of the cluster layer's
        ``extract_flows``: the same pairs, but the records stay in place.
        Snapshots (:mod:`repro.persist`) and replica promotion filters are
        built from this view.  The walk follows each shard's *live-key
        map*, so keys installed without flow state (``preload``) appear
        with a ``None`` record — a snapshot must carry them or a warm
        restart would silently forget table entries.  Records without a
        table entry (deleted mid-migration) cannot appear, exactly as
        extraction skips them.
        """
        pairs: List[Tuple[bytes, Optional[FlowRecord]]] = []
        for shard in self.shards:
            pairs.extend(shard.live_flow_pairs())
        return pairs

    def live_packet_counts(self) -> Dict[bytes, int]:
        """``{engine_key_bytes: packets}`` for every live flow with a record.

        :meth:`FlowLUT.live_packet_counts` merged across shards (a key lives
        on exactly one shard): unsorted, no record objects handed out — the
        per-window read the control loop takes its packet marks from.
        """
        counts: Dict[bytes, int] = {}
        for shard in self.shards:
            counts.update(shard.live_packet_counts())
        return counts

    def drain_exported(self) -> List[FlowRecord]:
        """Drain every shard's export stream, in flow-termination order.

        The engine-level NetFlow hook: terminated and expired records are
        collected across shards (each shard's stream is cleared — see
        :meth:`~repro.core.flow_state.FlowStateTable.drain_exported`) and
        returned ordered by ``(last_seen_ps, first_seen_ps, key)``, so an
        exporter emits one deterministic record stream regardless of how
        flows were sharded.
        """
        drained: List[FlowRecord] = []
        for shard in self.shards:
            if shard.flow_state is not None:
                drained.extend(shard.flow_state.drain_exported())
        drained.sort(key=lambda r: (r.last_seen_ps, r.first_seen_ps, r.key.pack()))
        return drained

    def delete_flow(self, key_bytes: bytes) -> bool:
        """Remove one flow entry on its owning shard (routed, not fanned out)."""
        return self.shards[self.shard_of(key_bytes)].delete_flow(key_bytes)

    def restore_flow(self, record: FlowRecord, key_bytes: Optional[bytes] = None) -> bool:
        """Re-home a migrated flow record onto its owning shard.

        ``key_bytes`` is the engine key the record was stored under on its
        previous owner (defaults to the standard 5-tuple packing).
        """
        if key_bytes is None:
            key_bytes = record.key.pack()
        return self.shards[self.shard_of(key_bytes)].restore_flow(record, key_bytes)

    def run_housekeeping(
        self,
        now_ps: Optional[int] = None,
        expired_out: Optional[List[Tuple[bytes, FlowRecord]]] = None,
    ) -> int:
        """One aging pass over every shard; returns total flows removed.

        Fans out to each shard's :meth:`~repro.core.flow_lut.FlowLUT.
        run_housekeeping` (expire idle records, delete their table entries)
        and sums the removals.  ``now_ps`` should be the workload clock (the
        latest descriptor timestamp) because record idle times are measured
        in descriptor timestamps; it defaults to each shard's simulated time.
        ``expired_out`` collects the expired ``(key_bytes, record)`` pairs
        across all shards (see the single-LUT method).
        """
        return sum(shard.run_housekeeping(now_ps, expired_out) for shard in self.shards)

    # ------------------------------------------------------------------ #
    # Aggregate accounting
    # ------------------------------------------------------------------ #

    @property
    def submitted(self) -> int:
        return sum(shard.submitted for shard in self.shards)

    @property
    def completed(self) -> int:
        return sum(shard.completed for shard in self.shards)

    @property
    def hits(self) -> int:
        return sum(shard.hits for shard in self.shards)

    @property
    def misses(self) -> int:
        return sum(shard.misses for shard in self.shards)

    @property
    def new_flows(self) -> int:
        return sum(shard.new_flows for shard in self.shards)

    @property
    def insert_failures(self) -> int:
        return sum(shard.insert_failures for shard in self.shards)

    @property
    def miss_rate(self) -> float:
        completed = self.completed
        return self.misses / completed if completed else 0.0

    @property
    def shard_completed(self) -> List[int]:
        """Descriptors completed per shard (the load-balance picture)."""
        return [shard.completed for shard in self.shards]

    @property
    def load_imbalance(self) -> float:
        """Busiest shard's load over the mean (1.0 means perfectly even).

        Before any descriptor has completed there is no load to compare, so
        the ratio is defined as 0.0 — never a division error or NaN.
        """
        return busiest_over_mean(self.shard_completed)

    @property
    def elapsed_ps(self) -> int:
        """Wall-clock of the parallel array: the slowest shard's elapsed time."""
        return max((shard.elapsed_ps for shard in self.shards), default=0)

    @property
    def throughput_mdesc_s(self) -> float:
        """Aggregate processing rate in million descriptors per second.

        All shards run concurrently in hardware, so the array completes the
        whole stream in the slowest shard's time.
        """
        elapsed = self.elapsed_ps
        if elapsed <= 0:
            return 0.0
        return self.completed * 1e6 / elapsed

    def report(self) -> dict:
        return {
            "shards": self.num_shards,
            "batches": self.batches,
            "submitted": self.submitted,
            "completed": self.completed,
            "hits": self.hits,
            "misses": self.misses,
            "new_flows": self.new_flows,
            "insert_failures": self.insert_failures,
            "miss_rate": self.miss_rate,
            "throughput_mdesc_s": self.throughput_mdesc_s,
            "shard_completed": self.shard_completed,
            "load_imbalance": self.load_imbalance,
            "per_shard": [shard.report() for shard in self.shards],
        }
