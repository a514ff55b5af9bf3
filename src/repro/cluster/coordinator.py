"""Cluster-wide orchestration: steering, membership, global accounting.

:class:`ClusterCoordinator` is the control plane of the simulated fleet.  It
owns a :class:`~repro.cluster.ring.HashRing` and a set of
:class:`~repro.cluster.node.ClusterNode`\\ s, steers descriptor batches to
the nodes that own their flow keys, and keeps the books that make the
simulation honest:

* **Global accounting** — hit / miss / new-flow / throughput totals summed
  over alive nodes, with departed and failed nodes' contributions retained
  separately so ``cluster_totals()`` always balances against what was
  ingested, even across membership changes.
* **Membership** — :meth:`add_node` (join with live-flow migration onto the
  new owner), :meth:`remove_node` (graceful leave, flows re-homed), and
  :meth:`fail_node` (crash: live flow state and telemetry sketches are
  lost, and the loss is counted, not papered over).
* **Load imbalance** — observed per-node load versus the ring's expected
  arc share (:meth:`imbalance_report`), separating consistent-hashing
  unevenness from genuinely skewed traffic such as the ``hotspot_shift``
  scenario.
* **Mergeable telemetry** — :meth:`merged_telemetry` folds the per-node
  sketch pipelines into one cluster-wide measurement plane (exact for
  Count-Min and bitmap unions, bounded-error for Space-Saving), which is
  what an operator would query for fleet-level heavy hitters and
  superspreaders.

Because flows are pinned to nodes by ring hash — like shards inside one
node — the cluster's aggregate hit/miss/new-flow totals on a static
membership equal a single LUT serving the whole stream.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.columns.block import DescriptorBlock
from repro.core.config import FlowLUTConfig, small_test_config
from repro.core.flow_lut import LookupOutcome
from repro.core.flow_state import FlowRecord
from repro.cluster.load_signal import OUTCOMES_METRIC, window_node_loads
from repro.cluster.node import ClusterNode
from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.obs.alerts import default_cluster_rules
from repro.obs.export import registry_snapshot, to_prometheus_text
from repro.obs.plane import Observability
from repro.parallel import ExecutorSpec, NodeWork, resolve_executor
from repro.persist import (
    NodeSnapshot,
    dump_node_snapshot,
    dumps,
    load_node_snapshot,
    loads,
)
from repro.sim.rng import SeedLike
from repro.sim.stats import busiest_over_mean
from repro.telemetry.pipeline import TelemetryConfig, TelemetryPipeline

DEFAULT_BATCH_SIZE = 512


class ClusterCoordinator:
    """Batched ingestion across a ring-steered fleet of measurement nodes.

    Parameters
    ----------
    nodes: initial membership — a count (IDs ``node0..nodeN-1``) or explicit
        node IDs.
    config: per-shard Flow LUT configuration shared by every node; defaults
        to the small test prototype (like the scenario runner).
    shards_per_node: Flow LUT devices inside each node.
    vnodes: virtual nodes per ring member.
    telemetry: give every node a telemetry pipeline; all pipelines share
        ``telemetry_config`` / ``telemetry_seed`` so they merge.
    flow_timeout_us: housekeeping timeout for per-node flow state.
    batch_size: default sub-batch size for :meth:`ingest`.
    replication: size of each key's ring replica set — 1 (no replication)
        or 2.  With ``k = 2`` every processed outcome is mirrored —
        functionally, off the timed path — onto the key's backup node
        (:class:`~repro.cluster.replica.ReplicaStore` flow copies plus
        per-primary backup telemetry pipelines), and :meth:`fail_node`
        promotes the backups so failover is lossless for replicated keys.
        Exact recovery rests on each packet updating exactly *one* backup
        (copies partition the stream in time and re-merge by addition);
        ``k > 2`` would hand every backup a full copy and double-count on
        promotion, so it is rejected.
    checkpoint_interval: packets between automatic per-node checkpoints
        (``None`` disables the trigger).  A node is re-checkpointed as soon
        as it has completed at least this many descriptors since its last
        checkpoint, so at any point between :meth:`ingest` calls the
        un-checkpointed delta is below the interval — which bounds what a
        failure can cost: ``telemetry_packets_lost <= checkpoint_interval``
        per failure, and ``flows_lost`` shrinks to the flows the checkpoint
        missed.  :meth:`checkpoint_all` is the window-close trigger for
        callers that checkpoint at measurement-window boundaries instead.
    checkpoint_dir: persist checkpoints to disk files (``<node_id>.ckpt``,
        one :mod:`repro.persist` frame each) as well as memory.  Files
        matching *current members* are loaded at construction, so a fresh
        coordinator warm-starts from a previous incarnation's checkpoints:
        :meth:`fail_node` replays them exactly like in-memory ones, and
        :meth:`add_node` accepts a checkpoint file path as its
        ``snapshot``.  Files are consumed and retired together with their
        in-memory copies; files for node IDs outside the membership are
        left on disk untouched (import them explicitly via
        ``add_node(snapshot=<path>)``).
    obs: the unified observability plane — ``True`` builds a fresh
        :class:`~repro.obs.plane.Observability`, or pass one to share a
        registry/journal across coordinators.  When enabled, every node's
        engine writes per-batch stage timings and per-shard counters into
        the shared registry (labeled ``node=...``), checkpoint encode/
        decode cost lands under ``repro_persist_*``, membership and
        recovery actions are journaled with monotonic sequence numbers,
        and :meth:`metrics_snapshot` / :meth:`prometheus_text` export the
        fleet view.  The default (``False``/``None``) keeps the whole
        plane off the hot path.

        A plane built with ``window_ps=`` additionally gets its windowed
        registry advanced once per :meth:`ingest` segment (with the last
        descriptor's simulated timestamp — the coordinator, not the
        node-major engine batches, owns the time-ordered watermark) and
        flushed by :meth:`finalize_telemetry`; one built with spans gets
        ``ingest_batch -> steer -> node`` control-plane spans wrapping the
        engines' batch traces; one built with ``alerts=True`` has the
        shipped cluster watchdogs (:func:`~repro.obs.alerts.
        default_cluster_rules`) installed, with the imbalance rule wired
        to :meth:`imbalance_report` for point-of-onset diagnosis.
    executor: how per-node work of an :meth:`ingest` segment runs — an
        :class:`~repro.parallel.IngestExecutor`, a spec string
        (``"thread"``, ``"thread:8"``, ``"process:2"``, ``"off"``), or an
        int (thread workers).  ``None`` reads ``REPRO_PARALLEL`` and
        defaults to the sequential reference.  Every executor produces
        bit-identical books, merged top-k and obs streams: the segment is
        steered on the caller thread, node work runs on the pool, and all
        order-sensitive effects (replication, checkpoint triggers, window
        advance, span grafting) are applied at a per-segment barrier in
        stable node order — see :mod:`repro.parallel`.  Process-executor
        nodes are built without the shared obs plane (a registry cannot
        cross the pickle boundary); the barrier re-credits their outcome
        counters (:meth:`_credit_outcomes`), while stage timings, span
        traces and per-shard counters stay thread/sequential-mode
        features.  Call :meth:`close` (or reuse one shared executor) when
        done with a pool-backed coordinator.
    """

    def __init__(
        self,
        nodes: Union[int, Sequence[str]] = 4,
        config: Optional[FlowLUTConfig] = None,
        shards_per_node: int = 1,
        vnodes: int = DEFAULT_VNODES,
        telemetry: bool = True,
        telemetry_config: Optional[TelemetryConfig] = None,
        telemetry_seed: SeedLike = 0,
        flow_timeout_us: Optional[float] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        replication: int = 1,
        checkpoint_interval: Optional[int] = None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        obs: Union[None, bool, Observability] = None,
        executor: ExecutorSpec = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if replication not in (1, 2):
            raise ValueError(
                "replication must be 1 (off) or 2: promotion re-merges backup "
                "copies by addition, which is only exact when each packet "
                "updates exactly one backup"
            )
        if checkpoint_interval is not None and checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive (or None)")
        if isinstance(nodes, int):
            if nodes <= 0:
                raise ValueError("node count must be positive")
            node_ids: List[str] = [f"node{index}" for index in range(nodes)]
        else:
            node_ids = list(nodes)
            if not node_ids:
                raise ValueError("at least one node is required")
            if len(set(node_ids)) != len(node_ids):
                raise ValueError("node IDs must be unique")
        self.config = config or small_test_config()
        self.shards_per_node = shards_per_node
        self.telemetry_enabled = telemetry
        self.telemetry_config = telemetry_config
        self.telemetry_seed = telemetry_seed
        self.flow_timeout_us = flow_timeout_us
        self.batch_size = batch_size
        self.obs = Observability.coerce(obs)
        self.executor = resolve_executor(executor)
        # Process-mode outcome reconciliation: last hit/miss/new-flow
        # totals credited per node (see _credit_outcomes).
        self._outcome_marks: Dict[str, Tuple[int, int, int]] = {}
        # Host-side parallel ingestion accounting (see parallel_report).
        self._segments = 0
        self._steer_ns = 0
        self._wall_ns = 0
        self._node_busy_ns: Dict[str, int] = {}

        self.ring = HashRing(vnodes=vnodes)
        self.nodes: Dict[str, ClusterNode] = {}
        for node_id in node_ids:
            self.ring.add_node(node_id)
            self.nodes[node_id] = self._make_node(node_id)

        self.replication = replication
        self.checkpoint_interval = checkpoint_interval

        if self.obs is not None:
            metrics = self.obs.metrics
            self._obs_ingested = metrics.counter(
                "repro_cluster_ingested_total", "Descriptors steered into the fleet"
            ).labels()
            self._obs_flows_lost = metrics.counter(
                "repro_cluster_flows_lost_total",
                "Flow records lost to node failures or unplaceable migrations",
            ).labels()
            self._obs_replicated = metrics.counter(
                "repro_cluster_replicated_packets_total",
                "Outcome copies mirrored onto backup nodes",
            ).labels()
            alerts = self.obs.alerts
            if alerts is not None:
                if alerts.auto_defaults and not alerts.rules:
                    alerts.add_rules(default_cluster_rules(replication=replication))
                # The imbalance watchdog's onset event carries a per-node
                # diagnosis taken at that window — windowed when a windowed
                # registry exists, lifetime otherwise (_imbalance_context).
                alerts.set_context("node_imbalance", self._imbalance_context)

        self.ingested = 0
        self.flows_migrated = 0
        self.flows_lost = 0
        self.flows_restored = 0
        self.telemetry_packets_lost = 0
        self.replicated_packets = 0
        self.checkpoints_taken = 0
        self.joins = 0
        self.leaves = 0
        self.failures = 0
        # Latest binary checkpoint per node (repro.persist frames) and the
        # completed-count watermark the packet-count trigger compares against.
        self.checkpoints: Dict[str, bytes] = {}
        self._checkpoint_meta: Dict[str, dict] = {}
        self._checkpointed_at: Dict[str, int] = {}
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
        if self.checkpoint_dir is not None:
            self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
            for file in sorted(self.checkpoint_dir.glob("*.ckpt")):
                if file.stem not in self.nodes:
                    # A checkpoint for a node this membership does not have
                    # (a previous incarnation's layout): leave it on disk —
                    # replaying it automatically could resurrect state this
                    # cluster never lost.  The operator imports it
                    # explicitly via ``add_node(snapshot=<path>)``.
                    continue
                data = file.read_bytes()
                try:
                    snapshot = self._load_snapshot(data)
                except Exception as error:
                    raise ValueError(
                        f"checkpoint file {file} is not a readable node "
                        f"snapshot: {error}"
                    ) from error
                if snapshot.node_id != file.stem:
                    raise ValueError(
                        f"checkpoint file {file} holds a snapshot of node "
                        f"{snapshot.node_id!r}, not {file.stem!r}; to import "
                        "another node's state use add_node(snapshot=<path>)"
                    )
                self.checkpoints[file.stem] = data
                self._journal(
                    "checkpoint_load", node=file.stem, source="disk", size_bytes=len(data)
                )
        # Steering overrides: flow key -> node id, consulted before the ring.
        # The rebalance policy pins individual hot flows onto explicit
        # owners (weight changes move whole arcs; a handful of elephant
        # flows needs per-key placement).  Empty unless a policy (or an
        # operator via pin_flows) installed pins, so the unpinned hot path
        # costs one truthiness check.
        self._pins: Dict[bytes, str] = {}
        # Export records handed over by graceful leavers, awaiting the next
        # cluster-wide drain (a failed node's undrained exports die with it).
        self._pending_exports: List[FlowRecord] = []
        self.exports_drained = 0
        self.routed: Dict[str, int] = {node_id: 0 for node_id in node_ids}
        # Departed/failed nodes' final accounting, so the cluster-wide books
        # keep balancing after membership changes.
        self._retired_reports: List[dict] = []
        self._retired_pipelines: List[TelemetryPipeline] = []
        self.events: List[dict] = []

    def _make_node(self, node_id: str) -> ClusterNode:
        # A node that ships across a process boundary cannot carry the
        # shared obs plane (registries, journals and recorders are
        # process-local); its outcome counters are re-credited from node
        # accounting at the ingest barrier instead (_credit_outcomes).
        self._outcome_marks[node_id] = (0, 0, 0)
        return ClusterNode(
            node_id,
            config=self.config,
            shards=self.shards_per_node,
            telemetry=self.telemetry_enabled,
            telemetry_config=self.telemetry_config,
            telemetry_seed=self.telemetry_seed,
            flow_timeout_us=self.flow_timeout_us,
            obs=None if self.executor.ships_state else self.obs,
        )

    # ------------------------------------------------------------------ #
    # Steering and ingestion
    # ------------------------------------------------------------------ #

    def owner_of(self, key_bytes: bytes) -> str:
        """The node currently owning a flow key: its pin, else the ring."""
        if self._pins:
            pinned = self._pins.get(key_bytes)
            if pinned is not None:
                return pinned
        return self.ring.lookup(key_bytes)

    def backups_of(self, key_bytes: bytes) -> List[str]:
        """The key's backup replica set under the current placement.

        Without pins this is the classic ring walk
        (:meth:`HashRing.lookup_n` minus the primary).  A pinned key's
        primary is its pin target, so the backups become the first distinct
        ring-walk nodes that are *not* that target — replicas must still
        land on different machines than the primary, wherever the primary
        was pinned.  Empty with replication off or a one-node ring.
        """
        if self.replication <= 1 or len(self.ring) < 2:
            return []
        pinned = self._pins.get(key_bytes) if self._pins else None
        if pinned is None:
            return self.ring.lookup_n(key_bytes, self.replication)[1:]
        walk = self.ring.lookup_n(key_bytes, self.replication + 1)
        return [node_id for node_id in walk if node_id != pinned][: self.replication - 1]

    def _steer_works(self, block: DescriptorBlock, size: int, trace: bool) -> List[NodeWork]:
        """Partition one segment into per-node :class:`NodeWork` units.

        One vectorised ring pass
        (:meth:`~repro.cluster.ring.HashRing.lookup_column`) and a
        per-owner row gather.  The works come out in membership
        order — the order the sequential loop visits nodes — which is what
        makes the barrier's replication/checkpoint/span ordering (and so
        every downstream stream) executor-independent.  A single-member
        fleet skips hashing entirely: every key belongs to the one node.
        """
        collect = self.replication > 1
        # ``trace`` means the segment's root span was sampled, so spans exist.
        span_clock = self.obs.spans.clock if trace else None
        trace = trace and not self.executor.ships_state

        def work_for(node_id: str, group: DescriptorBlock) -> NodeWork:
            return NodeWork(
                node_id=node_id,
                node=self.nodes[node_id],
                group=group,
                batch_size=size,
                collect_outcomes=collect,
                trace=trace,
                span_clock=span_clock,
            )

        if len(self.nodes) == 1:
            (node_id,) = self.nodes
            return [work_for(node_id, block)]
        owners = self.ring.lookup_column(block.key_data, len(block), block.key_width)
        if self._pins:
            # Pin overrides ride on top of the vectorised ring pass:
            # only the pinned rows are patched, so the common all-ring
            # block keeps the single-searchsorted fast path.
            pins = self._pins
            for row, key_bytes in enumerate(block.keys()):
                pinned = pins.get(key_bytes)
                if pinned is not None:
                    owners[row] = pinned
        rows: Dict[str, List[int]] = {}
        for row, owner in enumerate(owners):
            bucket = rows.get(owner)
            if bucket is None:
                bucket = rows[owner] = []
            bucket.append(row)
        return [
            work_for(node_id, block.take(rows[node_id]))
            for node_id in self.nodes
            if node_id in rows
        ]

    def ingest(self, descriptors, batch_size: Optional[int] = None) -> dict:
        """Steer one stream segment across the fleet in per-node batches.

        Every descriptor is routed to exactly one alive node and processed
        there in sub-batches of ``batch_size``.  The segment is a
        :class:`~repro.columns.DescriptorBlock`; a descriptor sequence is
        packed into one first — the whole sequence, before any node, book
        or obs counter is touched, so a descriptor outside the standard
        5-tuple layout raises ``ValueError`` and changes nothing.  Blocks
        are steered with one vectorised ring pass and each node bulk-probes
        its slice.  Returns the per-node packet counts of this call; an
        empty segment is not a segment (nothing is counted, traced or
        advanced).

        The segment is a steer → fan-out → barrier pipeline: steering runs
        on the caller thread, the per-node works run on :attr:`executor`
        (concurrently, on the pooled executors), and every order-sensitive
        effect — replication mirroring, checkpoint triggers, span grafting,
        outcome-counter reconciliation, the windowed-clock ``advance`` —
        happens after the barrier in membership order, so results and obs
        streams are identical whichever executor ran the segment.
        """
        size = self.batch_size if batch_size is None else batch_size
        if size <= 0:
            raise ValueError("batch_size must be positive")
        block = (
            descriptors
            if isinstance(descriptors, DescriptorBlock)
            else DescriptorBlock.from_descriptors(descriptors)
        )
        count = len(block)
        per_node: Dict[str, int] = {}
        if not count:
            return {"packets": 0, "per_node": per_node}
        spans = self.obs.spans if self.obs is not None else None
        t_start = time.perf_counter_ns()
        with (
            spans.root("ingest_batch", packets=count)
            if spans is not None
            else nullcontext()
        ):
            # Inside the root: sampled away means current_id is None and
            # the segment traces nothing, exactly like the old suppressed
            # subtree (engines' recorders are parked for the duration).
            parent_id = spans.current_id if spans is not None else None
            with spans.span("steer") if spans is not None else nullcontext():
                works = self._steer_works(block, size, trace=parent_id is not None)
            t_steered = time.perf_counter_ns()
            results = self.executor.run(works)
            # Barrier, pass 1 — adopt worker state.  A process executor
            # returns round-tripped node copies; they must all be resident
            # before any replication below mirrors outcomes onto backups.
            for result in results:
                if result.node is not self.nodes[result.node_id]:
                    self.nodes[result.node_id] = result.node
                if result.recorder is not None and spans is not None:
                    spans.graft(result.recorder, parent_id)
                busy = self._node_busy_ns.get(result.node_id, 0)
                self._node_busy_ns[result.node_id] = busy + result.busy_ns
            # Barrier, pass 2 — order-sensitive effects, membership order.
            for work, result in zip(works, results):
                node_id = result.node_id
                if result.outcomes is not None:
                    for outcomes in result.outcomes:
                        self._replicate(node_id, outcomes)
                if self.executor.ships_state and self.obs is not None:
                    self._credit_outcomes(node_id)
                if (
                    self.checkpoint_interval is not None
                    and self.nodes[node_id].completed
                    - self._checkpointed_at.get(node_id, 0)
                    >= self.checkpoint_interval
                ):
                    self.checkpoint_node(node_id)
                per_node[node_id] = len(work.group)
                self.routed[node_id] = self.routed.get(node_id, 0) + len(work.group)
        t_end = time.perf_counter_ns()
        self._segments += 1
        self._steer_ns += t_steered - t_start
        self._wall_ns += t_end - t_start
        self.ingested += count
        if self.obs is not None:
            self._obs_ingested.inc(count)
            # The windowed clock advances once per segment: ingestion is
            # node-major inside this call, so only the segment boundary is
            # a safe time-ordered watermark (callers feed monotone streams).
            if self.obs.windows is not None:
                self.obs.windows.advance(int(block.timestamps[count - 1]))
        return {"packets": count, "per_node": per_node}

    def _credit_outcomes(self, node_id: str) -> None:
        """Re-credit one node's outcome counters from its accounting.

        Process-mode nodes run without the shared registry (it cannot cross
        the pickle boundary), so the ``repro_engine_outcomes_total`` series
        the windowed registry and watchdog rules read would stay flat.  The
        barrier closes that gap from the node accounting that *does* round-
        trip: hit/miss/new-flow deltas since the last credit, labelled like
        the engine would have.  Stage timings, per-shard counters and span
        traces remain thread/sequential-mode features.
        """
        node = self.nodes[node_id]
        marks = (node.hits, node.misses, node.new_flows)
        previous = self._outcome_marks.get(node_id, (0, 0, 0))
        if marks == previous:
            return
        counter = self.obs.metrics.counter(
            OUTCOMES_METRIC,
            "Lookup outcomes by result (hit/miss/new_flow)",
            labels=("node", "result"),
        )
        for result, now, before in zip(("hit", "miss", "new_flow"), marks, previous):
            if now != before:
                counter.inc(now - before, node=node_id, result=result)
        self._outcome_marks[node_id] = marks

    def parallel_report(self) -> dict:
        """Host-side ingestion cost accounting for the configured executor.

        Everything here is measured: ``wall_ns`` is the wall clock spent
        inside :meth:`ingest` (``steer_ns`` of it steering on the caller
        thread), ``wall_mdesc_s`` is ingested descriptors over that wall,
        and ``per_node_busy_ns`` is each node's worker-thread CPU time.
        """
        return {
            "mode": self.executor.kind,
            "workers": self.executor.workers,
            "segments": self._segments,
            "ingested": self.ingested,
            "steer_ns": self._steer_ns,
            "wall_ns": self._wall_ns,
            "wall_mdesc_s": self.ingested * 1e3 / self._wall_ns if self._wall_ns else 0.0,
            "per_node_busy_ns": dict(sorted(self._node_busy_ns.items())),
        }

    def close(self) -> None:
        """Release the executor's pool (safe to call repeatedly)."""
        self.executor.close()

    def _replicate(self, primary_id: str, outcomes: Sequence[LookupOutcome]) -> None:
        """Mirror a primary's outcome batch onto its keys' backup nodes.

        The replica set is memoised per *batch* only: flows repeat heavily
        within a batch (that is what flow tables exploit), so the memo
        captures most repeated ring walks, while its size stays bounded by
        the batch instead of growing one entry per distinct flow key for
        the life of a membership.
        """
        if len(self.ring) < 2:
            return  # a one-node ring has nowhere to put a backup
        backups: Dict[bytes, List[str]] = {}
        groups: Dict[str, List[LookupOutcome]] = {}
        for outcome in outcomes:
            key_bytes = outcome.descriptor.key_bytes
            backup_ids = backups.get(key_bytes)
            if backup_ids is None:
                backup_ids = self.backups_of(key_bytes)
                backups[key_bytes] = backup_ids
            for backup_id in backup_ids:
                groups.setdefault(backup_id, []).append(outcome)
        for backup_id, group in groups.items():
            self.nodes[backup_id].replicate(primary_id, group)
            self.replicated_packets += len(group)
            if self.obs is not None:
                self._obs_replicated.inc(len(group))

    def run_housekeeping(self, now_ps: Optional[int] = None) -> int:
        """One flow-aging pass across every alive node; returns removals.

        With replication on, the expired flows' replica copies are purged
        from every backup store in the same pass — an expired flow has
        ended, and a later failover must not resurrect it — and the expiry
        *sizing* the primary just recorded in its flow-size histogram is
        mirrored into the key's backup pipeline, so a later promotion
        reconstructs the dead primary's histogram too, not only its
        streaming sketches.
        """
        removed = 0
        for node in list(self.nodes.values()):
            expired: List[Tuple[bytes, FlowRecord]] = []
            removed += node.run_housekeeping(now_ps, expired)
            self._mirror_sizings(node.node_id, expired, ended=True)
        return removed

    def _mirror_sizings(
        self,
        primary_id: str,
        flows: Iterable[Tuple[bytes, Optional[FlowRecord]]],
        ended: bool,
    ) -> None:
        """Mirror flow sizings a primary just recorded into the backup plane.

        Each record sized into ``primary_id``'s flow-size histogram is sized
        into the key's backup pipeline as well; an ``ended`` (expired)
        flow's replica copy is dropped in the same step.  After a resync
        exactly the key's current backup holds a copy, so only the replica
        set needs touching — and :meth:`backups_of` is empty with
        replication off or a one-node ring, which makes this a no-op there.
        """
        for key_bytes, record in flows:
            for backup_id in self.backups_of(key_bytes):
                backup = self.nodes[backup_id]
                if ended:
                    backup.replica_flows.drop(key_bytes)
                # Bare preloaded entries (no record) are never sized.
                if self.telemetry_enabled and record is not None:
                    backup.backup_pipeline(primary_id).flow_sizes.observe_flow(
                        record.packets, record.bytes
                    )

    def finalize_telemetry(self) -> int:
        """Close the measurement window on every alive node.

        Sizes the flows still live into each node's flow-size distribution
        (expired flows were sized by :meth:`run_housekeeping`), so a
        subsequent :meth:`merged_telemetry` carries the fleet-wide
        flow-size histogram, not just the streaming sketches.  Call once
        per window, before merging.

        With replication on, the window-close sizings are mirrored into
        the backup pipelines exactly like the expiry sizings in
        :meth:`run_housekeeping` — otherwise a failure after the window
        close would lose the victim's histogram contributions while still
        reporting the recovery lossless.
        """
        added = 0
        for node in list(self.nodes.values()):
            # Capture the sized set first; finalize does not mutate it.
            pairs = node.engine.live_flow_pairs() if self.replication > 1 else ()
            added += node.finalize_telemetry()
            self._mirror_sizings(node.node_id, pairs, ended=False)
        # Closing the measurement window also closes the partial metrics
        # window, so the tail of the stream is observable (and alertable).
        if self.obs is not None and self.obs.windows is not None:
            self.obs.windows.flush()
        return added

    # ------------------------------------------------------------------ #
    # Checkpointing (repro.persist)
    # ------------------------------------------------------------------ #

    def checkpoint_node(self, node_id: str) -> dict:
        """Write a durable binary checkpoint of one node; returns its metadata.

        The checkpoint (a :mod:`repro.persist` node frame: live flows plus
        the telemetry pipeline) replaces the node's previous one — recovery
        always replays the latest — and resets the packet-count trigger.
        """
        node = self.nodes.get(node_id)
        if node is None:
            raise KeyError(f"node {node_id!r} is not a member")
        data = dump_node_snapshot(node, obs=self._metrics)
        if self.checkpoint_dir is not None:
            # Write-then-rename so a crash mid-write never leaves a torn
            # frame where the next incarnation expects a checkpoint.  The
            # disk step goes first: if it fails, the scratch file is removed
            # and the in-memory checkpoint still matches the file on disk.
            target = self.checkpoint_dir / f"{node_id}.ckpt"
            scratch = target.with_name(target.name + ".tmp")
            try:
                scratch.write_bytes(data)
                os.replace(scratch, target)
            except BaseException:
                scratch.unlink(missing_ok=True)
                raise
        self.checkpoints[node_id] = data
        self._checkpointed_at[node_id] = node.completed
        self.checkpoints_taken += 1
        meta = {
            "node": node_id,
            "completed": node.completed,
            "flows": node.active_flows,
            # Telemetry packets covered; 0 without a pipeline, matching
            # NodeSnapshot.packets for the same frame.
            "packets": node.pipeline.packets if node.pipeline is not None else 0,
            "size_bytes": len(data),
        }
        if self.checkpoint_dir is not None:
            meta["path"] = str(self.checkpoint_dir / f"{node_id}.ckpt")
        self._checkpoint_meta[node_id] = meta
        self._journal(
            "checkpoint_write",
            node=node_id,
            size_bytes=len(data),
            flows=meta["flows"],
            completed=meta["completed"],
        )
        return meta

    def checkpoint_all(self) -> List[dict]:
        """The window-close trigger: checkpoint every member now."""
        return [self.checkpoint_node(node_id) for node_id in sorted(self.nodes)]

    def _consume_checkpoint(self, node_id: str) -> Optional[bytes]:
        """Consume a node's retained checkpoint: frame bytes out, nothing kept.

        Deliberately consume-semantics, not a read: the in-memory frame is
        popped and the disk file retired in the same step.  A checkpoint is
        single-use recovery material — once its node leaves or the frame is
        replayed into a failover, a retained copy could only be replayed a
        *second* time, resurrecting flows the books already settled.
        Returns the frame bytes, or ``None`` if the node had none.
        """
        data = self.checkpoints.pop(node_id, None)
        self._checkpoint_meta.pop(node_id, None)
        self._checkpointed_at.pop(node_id, None)
        if self.checkpoint_dir is not None:
            try:
                (self.checkpoint_dir / f"{node_id}.ckpt").unlink()
            except FileNotFoundError:
                pass
        return data

    def _load_snapshot(self, data: bytes) -> NodeSnapshot:
        """Decode a checkpoint frame, decode cost on the ``repro_persist_*`` books."""
        return load_node_snapshot(data, obs=self._metrics)

    @property
    def checkpoint_bytes(self) -> int:
        """Total size of the retained checkpoints (the durability footprint)."""
        return sum(len(data) for data in self.checkpoints.values())

    @property
    def replica_memory_bytes(self) -> int:
        """Provisioned bytes of the replication plane across the fleet."""
        return sum(node.replica_memory_bytes for node in self.nodes.values())

    # ------------------------------------------------------------------ #
    # Membership: join / leave / failure with flow-state migration
    # ------------------------------------------------------------------ #

    def _reconcile_placement(self) -> dict:
        """Migrate every live flow not sitting on its current owner.

        The one migration body.  Between public calls every live flow sits
        on :meth:`owner_of` its key, so whatever just changed the placement
        function — a joiner's arcs, a pin or unpin, a weight delta — the
        flows to move are exactly those whose owner is now elsewhere:
        extract them from every node and re-home them.
        """
        moved: List[Tuple[bytes, FlowRecord]] = []
        for node in list(self.nodes.values()):
            moved.extend(
                node.extract_flows(
                    lambda key_bytes, record, node_id=node.node_id: (
                        self.owner_of(key_bytes) != node_id
                    )
                )
            )
        return self._rehome(moved)

    def _rehome(self, flows: Iterable[Tuple[bytes, FlowRecord]]) -> dict:
        """Restore extracted flows onto their current owners (pin or ring),
        then rebuild the replication plane (backup sets follow placement)."""
        migrated = 0
        lost = 0
        pending: Dict[str, List[Tuple[bytes, FlowRecord]]] = {}
        for key_bytes, record in flows:
            pending.setdefault(self.owner_of(key_bytes), []).append((key_bytes, record))
        for node_id, group in pending.items():
            restored, failed = self.nodes[node_id].absorb_flows(group)
            migrated += restored
            lost += failed
        self.flows_migrated += migrated
        self.flows_lost += lost
        if self.obs is not None and lost:
            self._obs_flows_lost.inc(lost)
        if migrated or lost:
            self._journal("migration", migrated=migrated, lost=lost)
        self._resync_replication_plane()
        return {"migrated": migrated, "lost": lost}

    def _restore_flows(self, flows: Iterable[Tuple[bytes, Optional[FlowRecord]]]) -> int:
        """Install recovered flow copies on their current ring owners.

        The recovery counterpart of :meth:`_rehome`: each record lands on
        the node now owning its key (folding into an already re-learned
        record if one exists).  A ``None`` record is a bare preloaded
        table entry — the key is re-installed functionally but counts as
        no flow instance (it was never in the flow books).  Re-replication
        of the restored flows is the plane resync's job — every membership
        change ends with :meth:`_resync_replication_plane`, which rebuilds
        the backups from the post-recovery primary state.  Returns the
        number of flow records installed; a flow the table cannot place
        stays lost (it was already counted when its node died).
        """
        restored = 0
        for key_bytes, record in flows:
            owner = self.owner_of(key_bytes)
            if record is None:
                self.nodes[owner].engine.preload([key_bytes])
            elif self.nodes[owner].restore_flow(key_bytes, record):
                restored += 1
        return restored

    def add_node(
        self,
        node_id: str,
        snapshot: Optional[Union[bytes, str, Path, NodeSnapshot]] = None,
    ) -> dict:
        """A node joins: ring arcs remap and the affected live flows follow.

        The new member takes over roughly ``1/N`` of the keyspace; every
        live flow record in those arcs is extracted from its previous owner
        (table entry deleted, record detached without export) and re-homed
        onto the joiner, so packets arriving after the join hit existing
        state instead of being miscounted as new flows.

        ``snapshot`` warm-starts the join from a :mod:`repro.persist` node
        checkpoint — frame bytes, a decoded :class:`NodeSnapshot`, or the
        path of a ``checkpoint_dir`` file (for example one retained by a
        previous coordinator incarnation): the snapshot's flow records are restored
        onto their current ring owners — counted in ``flows_restored`` and
        credited against ``flows_lost`` — and its telemetry pipeline is
        merged into the joiner's.  The snapshot is read and decoded
        *before* membership changes, like every other restore guard: a
        corrupt or truncated frame raises
        :class:`~repro.persist.SnapshotFormatError` with the ring, the
        membership and the flow books untouched, never a half-applied
        join.  Only pass a snapshot that recovers state
        the cluster actually lost: unlike :meth:`fail_node`'s checkpoint
        replay, this path has no live-at-failure filter (the node that
        knew is long gone), so replaying still-live state folds harmlessly
        into the resident records but double-credits the loss books, and
        replaying flows that have since *ended* resurrects them — they
        will be sized a second time at the next expiry or window close,
        and ``flows_lost`` / ``telemetry_packets_lost`` can go negative
        (the conservation identity still balances; the negative counter is
        the visible symptom of the over-credit).
        """
        if node_id in self.nodes:
            raise ValueError(f"node {node_id!r} is already a member")
        # Decode and guard-check the snapshot *before* touching any state
        # (fail-before-mutate, like the merge/restore guards): a corrupt
        # frame must raise with membership, ring and books untouched — not
        # after the join has already remapped arcs and migrated flows.
        if snapshot is not None:
            if isinstance(snapshot, (str, Path)):
                snapshot = Path(snapshot).read_bytes()
            if not isinstance(snapshot, NodeSnapshot):
                snapshot = self._load_snapshot(snapshot)
                self._journal("checkpoint_load", node=node_id, source="import")
        node = self._make_node(node_id)
        self.ring.add_node(node_id)
        self.nodes[node_id] = node
        self.routed.setdefault(node_id, 0)
        outcome = self._reconcile_placement()
        restored = 0
        if snapshot is not None:
            restored = self._restore_flows(snapshot.flows)
            self.flows_restored += restored
            self.flows_lost -= restored
            if snapshot.pipeline is not None and node.pipeline is not None:
                node.pipeline.merge(snapshot.pipeline)
                self.telemetry_packets_lost -= snapshot.pipeline.packets
            if restored:
                self._journal("restore", node=node_id, flows=restored, source="import")
            self._resync_replication_plane()  # the restore changed the primaries
        self.joins += 1
        return self._emit("join", {"node": node_id, **outcome, "restored": restored})

    def remove_node(self, node_id: str) -> dict:
        """A node leaves gracefully: its live flows migrate to the survivors.

        The leaver hands its telemetry sketches over, so any backup copies
        of its stream held elsewhere must not survive (they would
        double-count its packets); the plane resync at the end guarantees
        that — it rebuilds every backup from the remaining members, so the
        leaver's stream copies and the segments it hosted for others all
        disappear together.  Its retained checkpoint is dropped too.
        """
        node = self._pop_member(node_id, action="remove")
        records = node.extract_flows()
        # The leaver also hands over its undrained export stream, so a
        # graceful departure loses no NetFlow records.
        self._pending_exports.extend(node.drain_exported())
        self.ring.remove_node(node_id)
        self._consume_checkpoint(node_id)
        self._retire(node, reason="leave")
        outcome = self._rehome(records)
        self.leaves += 1
        return self._emit("leave", {"node": node_id, **outcome})

    def fail_node(self, node_id: str) -> dict:
        """A node crashes; recovery shrinks the loss to what was unprotected.

        Without protection the node's live flows and telemetry die with it
        — counted in ``flows_lost`` / ``telemetry_packets_lost``, never
        papered over.  With ``replication >= 2`` the survivors' replica
        copies of the dead node's live flows are promoted onto the keys'
        new owners and its per-primary backup pipelines are merged back,
        making the failure lossless for replicated keys; otherwise, if a
        checkpoint exists, its flows (filtered to the flows still live at
        failure, so ended flows are not resurrected) and pipeline are
        replayed, shrinking both losses to the since-checkpoint delta.
        Packets of genuinely lost flows arriving later are misses / new
        flows on the surviving owners, exactly as a real collector fleet
        would re-learn them.

        Failing the **last** node is refused with :class:`ValueError`
        before any state changes: an empty ring could steer no flow key,
        so the cluster must always keep at least one member (add a
        replacement first, then fail the old node).
        """
        node = self._pop_member(node_id, action="fail")
        live_keys = {key for key, _ in node.engine.live_flow_pairs()}

        # Gather the recovery material before anything is torn down; the
        # victim's live-key set is the promotion filter (copies of flows
        # that already ended must not be resurrected).  One merge over
        # whatever protection exists: replica copies first, then a retained
        # checkpoint — both are exact lower bounds on each flow, so each
        # flow is recovered from whichever source saw more of it, and the
        # pipeline with the wider packet coverage wins.
        sources: List[str] = []
        merged: Dict[bytes, Optional[FlowRecord]] = {}
        recovered_pipeline: Optional[TelemetryPipeline] = None
        if self.replication > 1:
            sources.append("replicas")
            for other in self.nodes.values():
                for key, record in other.replica_flows.pop_matching(
                    lambda key: key in live_keys
                ):
                    existing = merged.get(key)
                    if existing is None:
                        merged[key] = record
                    else:
                        # Segments from re-pointed backups partition the
                        # packet stream; absorbing them reassembles it.
                        existing.absorb(record)
            pieces = [
                other.backup_pipelines.pop(node_id)
                for other in self.nodes.values()
                if node_id in other.backup_pipelines
            ]
            if pieces:
                recovered_pipeline = TelemetryPipeline(
                    self.telemetry_config, seed=self.telemetry_seed
                )
                for piece in pieces:
                    recovered_pipeline.merge(piece)
        checkpoint_data = self._consume_checkpoint(node_id)
        if checkpoint_data is not None:
            snapshot = self._load_snapshot(checkpoint_data)
            # With no replica plane the checkpoint is the recovery; beside
            # one it is named only when it supplied something the replicas
            # had not.
            used_checkpoint = not sources
            for key, record in snapshot.flows:
                if key not in live_keys:
                    continue
                if record is None:
                    # A bare preloaded entry: worth re-installing, but
                    # never preferable to any replica record.
                    better = key not in merged
                else:
                    existing = merged.get(key)
                    better = existing is None or existing.packets < record.packets
                if better:
                    merged[key] = record
                    used_checkpoint = True
            if snapshot.pipeline is not None and (
                recovered_pipeline is None
                or snapshot.pipeline.packets > recovered_pipeline.packets
            ):
                recovered_pipeline = snapshot.pipeline
                used_checkpoint = True
            if used_checkpoint:
                sources.append("checkpoint")
        recovery = "+".join(sources) or "none"

        lost = node.fail()
        self.ring.remove_node(node_id)
        self.flows_lost += lost
        pipeline_packets = node.pipeline.packets if node.pipeline is not None else 0
        self.telemetry_packets_lost += pipeline_packets
        self._retire(node, reason="failure", keep_telemetry=False)

        restored = self._restore_flows(merged.items())
        self.flows_restored += restored
        self.flows_lost -= restored
        recovered_packets = 0
        if recovered_pipeline is not None:
            self._retired_pipelines.append(recovered_pipeline)
            recovered_packets = recovered_pipeline.packets
            self.telemetry_packets_lost -= recovered_packets
        self._resync_replication_plane()

        if self.obs is not None and lost - restored > 0:
            self._obs_flows_lost.inc(lost - restored)
        self.failures += 1
        event = self._emit(
            "failure",
            {
                "node": node_id,
                "migrated": 0,
                "lost": lost - restored,
                "restored": restored,
                "recovery": recovery,
                "telemetry_packets_lost": pipeline_packets - recovered_packets,
            },
        )
        if "replicas" in sources:
            self._journal(
                "replica_promotion",
                node=node_id,
                flows=restored,
                telemetry_packets=recovered_packets,
            )
        if "checkpoint" in sources:
            self._journal("checkpoint_load", node=node_id, source="failover")
        if restored:
            self._journal("restore", node=node_id, flows=restored, source=recovery)
        return event

    def _resync_replication_plane(self) -> None:
        """Rebuild every backup from current primary state after a
        membership change.

        Joins, leaves and failures all invalidate parts of the backup
        plane — a failed or departed node takes the segments and backup
        pipelines it hosted with it, and a joiner may arrive into a
        cluster that ran alone (mirroring nothing) for a while.  Rather
        than patching each hole, the plane is rebuilt wholesale from the
        one source that is always complete, the primaries themselves:
        every live flow is re-seeded onto its current backup (the full
        record supersedes every partial segment), and every primary's
        pipeline is deep-copied (via its own snapshot codec) onto one
        backup host.  Exactness of a later promotion follows from the
        time-partition argument — full copy as of now, plus whatever the
        per-key backups mirror afterwards.  Membership changes are rare,
        so the O(live flows + pipeline size) rebuild is cheap insurance
        against silently degraded redundancy.
        """
        if self.replication <= 1:
            return
        for node in self.nodes.values():
            node.replica_flows.clear()
            node.backup_pipelines.clear()
        if len(self.ring) < 2:
            return  # alone again: nothing to mirror onto
        for node in self.nodes.values():
            for key_bytes, record in node.engine.live_flow_pairs():
                if record is None:
                    continue  # a bare preloaded entry has no state to copy
                for backup_id in self.backups_of(key_bytes):
                    self.nodes[backup_id].replica_flows.seed(key_bytes, record)
            if node.pipeline is not None and node.pipeline.packets:
                hosts = [other for other in self.nodes if other != node.node_id]
                self.nodes[min(hosts)].backup_pipelines[node.node_id] = loads(
                    dumps(node.pipeline)
                )

    # ------------------------------------------------------------------ #
    # Adaptive placement: weights and flow pins (the rebalance levers)
    # ------------------------------------------------------------------ #

    @property
    def pins(self) -> Dict[bytes, str]:
        """Current flow-pin overlay (a copy; mutate via :meth:`pin_flows`)."""
        return dict(self._pins)

    def pin_flows(self, assignments: Dict[bytes, str]) -> dict:
        """Pin flow keys onto explicit owner nodes, migrating live state.

        The targeted-migration lever of the rebalance policy: a handful of
        elephant flows concentrated by a skewed workload cannot be separated
        by weight changes (those move whole arcs), so each hot key is pinned
        to an explicit node.  Pins override the ring in :meth:`owner_of` /
        :meth:`route`, survive unrelated membership changes, and die with
        their target's membership.  Live flows affected by a changed pin are
        migrated (detach/absorb — no export, no miscount) and the
        replication plane is resynced.  Unknown target nodes are rejected
        before any pin is installed.
        """
        for key_bytes, target in assignments.items():
            if target not in self.nodes:
                raise KeyError(f"pin target {target!r} is not a member")
        changed = 0
        for key_bytes, target in assignments.items():
            if self._pins.get(key_bytes) != target:
                self._pins[key_bytes] = target
                changed += 1
        if not changed:
            return {"event": "pin", "pinned": 0, "migrated": 0, "lost": 0}
        return self._emit(
            "pin",
            {"pinned": changed, **self._reconcile_placement()},
            total_pins=len(self._pins),
        )

    def unpin_flows(self, keys: Optional[Iterable[bytes]] = None) -> dict:
        """Remove pins (all of them by default); flows return to ring owners."""
        targets = list(self._pins) if keys is None else list(keys)
        removed = {key for key in targets if self._pins.pop(key, None) is not None}
        if not removed:
            return {"event": "unpin", "unpinned": 0, "migrated": 0, "lost": 0}
        return self._emit(
            "unpin",
            {"unpinned": len(removed), **self._reconcile_placement()},
            total_pins=len(self._pins),
        )

    def set_node_weight(self, node_id: str, weight: int) -> dict:
        """Change a member's ring weight and migrate the flows whose arcs moved.

        The diffuse lever of the rebalance policy: ring-share unevenness
        (as opposed to a few hot keys) is corrected by shrinking the hot
        node's vnode count or growing a cold one's —
        :meth:`HashRing.set_weight` does the delta rebuild, and the
        placement reconciliation migrates exactly the live flows whose
        arcs changed owner.  Pinned flows stay put: pins outrank the ring.
        """
        if node_id not in self.nodes:
            raise KeyError(f"node {node_id!r} is not a member")
        previous = self.ring.weight_of(node_id)
        self.ring.set_weight(node_id, weight)
        fields = {"node": node_id, "previous_weight": previous, "weight": weight}
        if weight == previous:
            return {"event": "reweight", **fields, "migrated": 0, "lost": 0}
        return self._emit("reweight", {**fields, **self._reconcile_placement()})

    def _pop_member(self, node_id: str, action: str) -> ClusterNode:
        """Take a node out of the membership (leave and failure both start
        here).  Pins onto it die with it, so whatever is re-homed or
        recovered next lands on live owners, never the departed node."""
        if node_id not in self.nodes:
            raise KeyError(f"node {node_id!r} is not a member")
        if len(self.nodes) == 1:
            raise ValueError(
                f"cannot {action} node {node_id!r}: it is the cluster's last "
                "member, and an empty ring could steer no flow key; add a "
                "replacement node first"
            )
        for key in [key for key, target in self._pins.items() if target == node_id]:
            del self._pins[key]
        return self.nodes.pop(node_id)

    def _retire(self, node: ClusterNode, reason: str, keep_telemetry: bool = True) -> None:
        self._retired_reports.append(
            {
                "node_id": node.node_id,
                "reason": reason,
                "elapsed_ps": node.elapsed_ps,
                "flow_books": node.flow_state_books(),
                **node.totals(),
            }
        )
        if keep_telemetry and node.pipeline is not None:
            # A graceful leaver hands its sketches over before departing.
            self._retired_pipelines.append(node.pipeline)

    # ------------------------------------------------------------------ #
    # Global accounting
    # ------------------------------------------------------------------ #

    def alive_totals(self) -> dict:
        """Hit/miss/new-flow accounting summed over the surviving nodes."""
        totals = {"completed": 0, "hits": 0, "misses": 0, "new_flows": 0}
        for node in self.nodes.values():
            for key, value in node.totals().items():
                totals[key] += value
        return totals

    def cluster_totals(self) -> dict:
        """Alive totals plus departed/failed nodes' retained contributions.

        This is the figure that must always balance: every ingested
        descriptor was completed by exactly one node, member or not, so
        ``cluster_totals()["completed"] == ingested`` whenever all batches
        have been processed.
        """
        totals = self.alive_totals()
        for report in self._retired_reports:
            for key in totals:
                totals[key] += report[key]
        return totals

    @property
    def active_flows(self) -> int:
        return sum(node.active_flows for node in self.nodes.values())

    def flow_books(self) -> dict:
        """Cluster-wide flow-record conservation: every instance created is
        retired exactly once.

        A record instance is *born* by a flow-state creation or by a
        recovery install (checkpoint replay / replica promotion, counted
        in ``flows_restored``), and *retired* by expiry/termination
        (``exported``), by folding into an already-resident record
        (``folded``), or by being lost (node death or an unplaceable
        migration).  Because each successful restore also decrements the
        net loss, the restores cancel and the identity reduces to::

            flows_created == live + exported + folded + flows_lost

        summed over alive and retired nodes.  ``balanced`` is that check;
        the invariant tests assert it after arbitrary membership histories.
        """
        created = exported = folded = 0
        every_books = [node.flow_state_books() for node in self.nodes.values()]
        every_books += [report["flow_books"] for report in self._retired_reports]
        for books in every_books:
            created += books["created"]
            exported += books["exported"]
            folded += books["folded"]
        live = self.active_flows
        return {
            "flows_created": created,
            "live": live,
            "exported": exported,
            "folded": folded,
            "flows_lost": self.flows_lost,
            "flows_migrated": self.flows_migrated,
            "flows_restored": self.flows_restored,
            "balanced": created == live + exported + folded + self.flows_lost,
        }

    @property
    def elapsed_ps(self) -> int:
        """Cluster wall clock: the slowest node's simulated time."""
        elapsed = [node.elapsed_ps for node in self.nodes.values()]
        elapsed.extend(report["elapsed_ps"] for report in self._retired_reports)
        return max(elapsed, default=0)

    @property
    def throughput_mdesc_s(self) -> float:
        """Aggregate processing rate: all nodes run concurrently."""
        elapsed = self.elapsed_ps
        if elapsed <= 0:
            return 0.0
        return self.cluster_totals()["completed"] * 1e6 / elapsed

    @property
    def load_imbalance(self) -> float:
        """Busiest alive node's completed load over the mean (0.0 when idle)."""
        return busiest_over_mean(node.completed for node in self.nodes.values())

    def imbalance_report(self, threshold: float = 1.25) -> dict:
        """Observed load versus the ring's expected share, per alive node.

        A node is flagged *overloaded* when its observed share of completed
        descriptors exceeds ``threshold`` times its expected arc share —
        the signal that traffic is skewed (or the ring needs more vnodes).
        """
        return self._imbalance_table(
            {node_id: node.completed for node_id, node in self.nodes.items()}, threshold
        )

    def _imbalance_table(self, loads: Dict[str, float], threshold: float) -> dict:
        """The share table behind both imbalance reports, over any load signal."""
        if threshold <= 1.0:
            raise ValueError("threshold must exceed 1.0")
        total = sum(loads.values())
        shares = self.ring.arc_shares()
        rows = []
        overloaded = []
        for node_id in sorted(loads):
            observed = loads[node_id] / total if total else 0.0
            expected = shares.get(node_id, 0.0)
            flagged = bool(total) and expected > 0.0 and observed > threshold * expected
            if flagged:
                overloaded.append(node_id)
            rows.append(
                {
                    "node": node_id,
                    "completed": loads[node_id],
                    "observed_share": round(observed, 4),
                    "expected_share": round(expected, 4),
                    "overloaded": flagged,
                }
            )
        return {
            "rows": rows,
            "load_imbalance": busiest_over_mean(loads.values()),
            "overloaded": overloaded,
            "imbalance_detected": bool(overloaded),
            "threshold": threshold,
        }

    def windowed_node_loads(self, windows: int = 1) -> Dict[str, float]:
        """Per-node completed descriptors over the last closed window(s).

        The control loop's load signal: hit + miss deltas of
        ``repro_engine_outcomes_total`` from the windowed registry, summed
        per alive node over the most recent ``windows`` closed windows (a
        node idle in that span reads 0.0).  That counter is credited by the
        engines in sequential/thread mode and reconciled at the barrier in
        process mode, so the signal exists under every executor.  Requires
        the coordinator's obs plane to carry a windowed registry
        (``window_ps=``); fewer closed windows than asked for means the sum
        covers what exists.
        """
        obs = self._require_obs()
        if obs.windows is None:
            raise RuntimeError(
                "windowed load signals need a windowed registry: build the "
                "Observability with window_ps="
            )
        return window_node_loads(obs.windows.last(windows), self.nodes)

    def windowed_imbalance_report(
        self, threshold: float = 1.25, windows: int = 1
    ) -> dict:
        """The time-resolved :meth:`imbalance_report`: last window(s) only.

        Same shape and flagging rule as the lifetime report, but observed
        shares come from :meth:`windowed_node_loads` instead of cumulative
        ``completed`` totals.  The distinction matters exactly when the
        control loop does: a hotspot that starts mid-run (``hotspot_shift``)
        is diluted by the steady first half in the lifetime shares and
        under-flagged, while the windowed shares show the post-shift
        concentration at full strength.  ``load_imbalance`` here is the
        windowed figure (busiest node's window load over the mean).
        """
        table = self._imbalance_table(self.windowed_node_loads(windows), threshold)
        return {**table, "windows": windows}

    def _imbalance_context(self) -> dict:
        """Diagnosis payload for the ``node_imbalance`` watchdog's onset.

        Windowed when closed windows exist — the rule itself is windowed,
        so the diagnosis must describe the window that tripped it, not a
        lifetime average that dilutes mid-run hotspots — with the lifetime
        report as the fallback for plain (un-windowed) registries.
        """
        if (
            self.obs is not None
            and self.obs.windows is not None
            and self.obs.windows.windows
        ):
            return self.windowed_imbalance_report()
        return self.imbalance_report()

    # ------------------------------------------------------------------ #
    # Cluster-wide NetFlow export
    # ------------------------------------------------------------------ #

    def drain_exported(self) -> List[FlowRecord]:
        """The cluster-wide merged export stream: every record retired
        anywhere in the fleet since the last drain, handed over exactly once.

        Collects each alive node's drained export stream (see
        :meth:`FlowStateTable.drain_exported
        <repro.core.flow_state.FlowStateTable.drain_exported>`) plus the
        records graceful leavers handed over on departure, ordered by
        ``(last_seen_ps, first_seen_ps, key)`` so the stream an exporter
        (e.g. :class:`~repro.trace.netflow.NetFlowV5Exporter`) emits is
        deterministic under any node count.  A *failed* node's undrained
        exports die with it — like its sketches, the loss is visible in
        the books (its retired report still counts them as exported)
        rather than papered over.
        """
        drained = list(self._pending_exports)
        self._pending_exports.clear()
        for node_id in sorted(self.nodes):
            drained.extend(self.nodes[node_id].drain_exported())
        drained.sort(key=lambda r: (r.last_seen_ps, r.first_seen_ps, r.key.pack()))
        self.exports_drained += len(drained)
        if self.obs is not None:
            self.obs.metrics.counter(
                "repro_cluster_exports_drained_total",
                "Flow records handed to the cluster-wide export stream",
            ).inc(len(drained))
            self.obs.record("drain", records=len(drained))
        return drained

    # ------------------------------------------------------------------ #
    # Cluster-wide telemetry
    # ------------------------------------------------------------------ #

    def merged_telemetry(self, include_departed: bool = True) -> TelemetryPipeline:
        """The fleet-level measurement plane: all per-node pipelines merged.

        Builds a fresh pipeline from the shared config/seed and folds in
        every alive node's sketches, plus graceful leavers' retained
        pipelines (``include_departed``).  Failed nodes contributed nothing
        — their sketches died with them; ``telemetry_packets_lost`` says
        how much of the stream the merged view is therefore missing.
        """
        if not self.telemetry_enabled:
            raise RuntimeError("cluster was built with telemetry disabled")
        merged = TelemetryPipeline(self.telemetry_config, seed=self.telemetry_seed)
        for node in self.nodes.values():
            merged.merge(node.pipeline)
        if include_departed:
            for pipeline in self._retired_pipelines:
                merged.merge(pipeline)
        return merged

    # ------------------------------------------------------------------ #
    # Observability exports
    # ------------------------------------------------------------------ #

    def _require_obs(self) -> Observability:
        if self.obs is None:
            raise RuntimeError("cluster was built with obs disabled (pass obs=True)")
        return self.obs

    @property
    def _metrics(self):
        """The plane's registry, or ``None`` with obs off (codec ``obs=`` hooks)."""
        return self.obs.metrics if self.obs is not None else None

    def _journal(self, kind: str, **fields: object) -> None:
        """Journal one control-plane entry (a no-op with obs off)."""
        if self.obs is not None:
            self.obs.record(kind, **fields)

    def _emit(self, kind: str, fields: dict, **journal_only: object) -> dict:
        """Build a placement/membership event once and feed both streams:
        the :attr:`events` list and the journal (which may carry extras)."""
        event = {"event": kind, **fields}
        self.events.append(event)
        self._journal(kind, **fields, **journal_only)
        return event

    @property
    def journal(self):
        """The cluster's event journal (requires ``obs``)."""
        return self._require_obs().journal

    def observe_fleet(self) -> None:
        """Refresh the point-in-time fleet gauges from current state.

        Counters and timings accumulate inline on the hot path; gauges
        (live flows, loss books, retained checkpoint bytes, sketch
        occupancy) describe *now* and are sampled here — called by
        :meth:`metrics_snapshot` / :meth:`prometheus_text`, or directly
        before scraping a shared registry.
        """
        obs = self._require_obs()
        metrics = obs.metrics
        fleet = metrics.gauge(
            "repro_cluster_fleet",
            "Point-in-time fleet state (see the 'figure' label)",
            labels=("figure",),
        )
        fleet.set(len(self.nodes), figure="nodes_alive")
        fleet.set(self.active_flows, figure="active_flows")
        fleet.set(self.flows_migrated, figure="flows_migrated")
        fleet.set(self.flows_lost, figure="flows_lost")
        fleet.set(self.flows_restored, figure="flows_restored")
        fleet.set(self.telemetry_packets_lost, figure="telemetry_packets_lost")
        fleet.set(self.checkpoint_bytes, figure="checkpoint_bytes")
        fleet.set(self.replica_memory_bytes, figure="replica_memory_bytes")
        fleet.set(len(self._pending_exports), figure="exports_pending")
        node_flows = metrics.gauge(
            "repro_node_active_flows", "Live flow records per node", labels=("node",)
        )
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            node_flows.set(node.active_flows, node=node_id)
            if node.pipeline is not None:
                node.pipeline.record_occupancy(metrics, node=node_id)

    def metrics_snapshot(self) -> dict:
        """The ``repro.obs/v1`` JSON view of the fleet registry (gauges fresh)."""
        self.observe_fleet()
        return registry_snapshot(self._require_obs().metrics)

    def prometheus_text(self) -> str:
        """Prometheus text exposition of the fleet registry (gauges fresh)."""
        self.observe_fleet()
        return to_prometheus_text(self._require_obs().metrics)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def report(self) -> dict:
        return {
            "nodes": sorted(self.nodes),
            "shards_per_node": self.shards_per_node,
            "ingested": self.ingested,
            "alive_totals": self.alive_totals(),
            "cluster_totals": self.cluster_totals(),
            "active_flows": self.active_flows,
            "throughput_mdesc_s": self.throughput_mdesc_s,
            "parallel": self.parallel_report(),
            "load_imbalance": self.load_imbalance,
            "pinned_flows": len(self._pins),
            "flows_migrated": self.flows_migrated,
            "flows_lost": self.flows_lost,
            "flows_restored": self.flows_restored,
            "flow_books": self.flow_books(),
            "telemetry_packets_lost": self.telemetry_packets_lost,
            "replication": self.replication,
            "replicated_packets": self.replicated_packets,
            "replica_memory_bytes": self.replica_memory_bytes,
            "checkpoint_interval": self.checkpoint_interval,
            "checkpoint_dir": str(self.checkpoint_dir) if self.checkpoint_dir else None,
            "checkpoints_taken": self.checkpoints_taken,
            "checkpoint_bytes": self.checkpoint_bytes,
            "exports_drained": self.exports_drained,
            "exports_pending": len(self._pending_exports),
            "checkpoints": {
                node_id: dict(meta) for node_id, meta in self._checkpoint_meta.items()
            },
            "joins": self.joins,
            "leaves": self.leaves,
            "failures": self.failures,
            "routed": dict(self.routed),
            "events": list(self.events),
            "per_node": [
                self.nodes[node_id].report() for node_id in sorted(self.nodes)
            ],
            "retired": list(self._retired_reports),
            "ring": self.ring.stats(),
        }
