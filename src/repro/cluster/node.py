"""One measurement node of the simulated cluster.

A :class:`ClusterNode` is what one rack slot runs: a
:class:`~repro.engine.sharded.ShardedFlowLUT` (one or more timed Flow LUT
devices) with per-shard flow state attached, and — unless disabled — a
:class:`~repro.telemetry.TelemetryPipeline` riding the merged outcome
batches so the node summarises its slice of the traffic in mergeable
sketches.  The coordinator steers descriptor batches to nodes via the hash
ring and, on membership changes, moves live flow state between nodes with
:meth:`extract_flows` / :meth:`absorb_flows`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.replica import ReplicaStore
from repro.core.config import FlowLUTConfig
from repro.core.flow_lut import LookupOutcome
from repro.core.flow_state import FlowRecord
from repro.engine.sharded import ShardedFlowLUT
from repro.obs.metrics import MetricsRegistry
from repro.obs.plane import Observability
from repro.sim.rng import SeedLike
from repro.telemetry.pipeline import TelemetryConfig, TelemetryPipeline


class ClusterNode:
    """A sharded engine plus telemetry plane behind one node identity.

    Parameters
    ----------
    node_id: the node's ring identity (stable across the node's life).
    config: per-shard Flow LUT configuration.
    shards: Flow LUT devices inside this node (the PR-2 scale-up axis; the
        cluster is the scale-out axis on top of it).
    telemetry: build a per-node telemetry pipeline fed by the engine's
        outcome batches.  All nodes of a cluster share ``telemetry_config``
        and ``telemetry_seed`` so their pipelines are mergeable.
    flow_timeout_us: housekeeping timeout for the per-shard flow state.
    obs: a shared :class:`~repro.obs.plane.Observability` (or bare
        :class:`~repro.obs.metrics.MetricsRegistry`): the node labels
        every engine metric with its ``node_id`` and counts its own
        migration traffic (``repro_node_flows_moved_total``).  ``None``
        disables instrumentation.
    """

    def __init__(
        self,
        node_id: str,
        config: Optional[FlowLUTConfig] = None,
        shards: int = 1,
        telemetry: bool = True,
        telemetry_config: Optional[TelemetryConfig] = None,
        telemetry_seed: SeedLike = 0,
        flow_timeout_us: Optional[float] = None,
        obs: Optional[object] = None,
    ) -> None:
        if not node_id:
            raise ValueError("node_id must be non-empty")
        self.node_id = node_id
        self.telemetry_config = telemetry_config
        self.telemetry_seed = telemetry_seed
        metrics: Optional[MetricsRegistry]
        if isinstance(obs, Observability):
            metrics = obs.metrics
        elif obs is None or isinstance(obs, MetricsRegistry):
            metrics = obs
        else:
            raise TypeError(
                "obs must be an Observability, MetricsRegistry or None, "
                f"not {type(obs).__name__}"
            )
        self.obs = metrics
        if metrics is not None:
            moved = metrics.counter(
                "repro_node_flows_moved_total",
                "Flow records migrated or restored per node and direction",
                labels=("node", "direction"),
            )
            self._obs_moved = {
                direction: moved.labels(node=node_id, direction=direction)
                for direction in ("in", "out", "restored")
            }
        self.pipeline: Optional[TelemetryPipeline] = (
            TelemetryPipeline(telemetry_config, seed=telemetry_seed) if telemetry else None
        )
        # Replication plane (populated only when the coordinator runs with
        # k >= 2): passive copies of flows this node backs up, and one
        # telemetry pipeline per primary whose packets it mirrors, so a
        # failed primary's sketch state can be reassembled exactly.
        self.replica_flows = ReplicaStore()
        self.backup_pipelines: Dict[str, TelemetryPipeline] = {}
        # The engine inherits the plane's span recorder (its batch spans
        # nest under the coordinator's node span) but never its windowed
        # registry: the coordinator ingests node-major, so only it knows a
        # time-ordered watermark — it advances the windows once per
        # ingest segment instead.
        self.engine = ShardedFlowLUT(
            shards=shards,
            config=config,
            on_batch=self.pipeline.observe_outcomes if self.pipeline is not None else None,
            obs=obs,
            obs_labels={"node": node_id} if metrics is not None else None,
            windows=False,
        )
        self.engine.attach_flow_state(timeout_us=flow_timeout_us)
        self.alive = True
        self.flows_migrated_in = 0
        self.flows_migrated_out = 0
        self.flows_restored_in = 0

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #

    def process_batch(self, descriptors):
        """Run one batch (a ``DescriptorBlock``, or a descriptor sequence
        the engine packs into one) through this node's engine."""
        if not self.alive:
            raise RuntimeError(f"node {self.node_id!r} has failed; cannot ingest")
        return self.engine.process_batch(descriptors)

    def set_span_recorder(self, spans) -> object:
        """Swap the engine's span recorder (see
        :meth:`ShardedFlowLUT.set_span_recorder
        <repro.engine.sharded.ShardedFlowLUT.set_span_recorder>`); the
        parallel executor uses this to give each worker a private recorder."""
        return self.engine.set_span_recorder(spans)

    def preload(self, keys) -> int:
        return self.engine.preload(keys)

    def run_housekeeping(
        self,
        now_ps: Optional[int] = None,
        expired_out: Optional[List[Tuple[bytes, FlowRecord]]] = None,
    ) -> int:
        """One aging pass; expired flows also feed the flow-size sketches.

        On the analyzer path the pipeline hears ``FLOW_EXPIRED`` events;
        the engine path has no event engine, so the expired records are
        picked out of each shard's export stream here and sized exactly
        once — migration uses :meth:`~repro.core.flow_state.FlowStateTable.
        detach`, which does not export, so moved flows never appear.
        ``expired_out`` collects the expired ``(key_bytes, record)`` pairs
        (the coordinator purges replica copies with them).
        """
        if self.pipeline is None:
            return self.engine.run_housekeeping(now_ps, expired_out)
        watermarks = [
            len(shard.flow_state.exported) if shard.flow_state is not None else 0
            for shard in self.engine.shards
        ]
        removed = self.engine.run_housekeeping(now_ps, expired_out)
        for shard, mark in zip(self.engine.shards, watermarks):
            state = shard.flow_state
            if state is None:
                continue
            for record in state.exported[mark:]:
                self.pipeline.flow_sizes.observe_flow(record.packets, record.bytes)
        return removed

    def drain_exported(self) -> List[FlowRecord]:
        """Drain this node's export stream (see the engine-level hook)."""
        return self.engine.drain_exported()

    def finalize_telemetry(self) -> int:
        """Close the measurement window: size the flows still live here.

        Mirrors :meth:`~repro.telemetry.TelemetryPipeline.finalize` on the
        analyzer path; together with the expiry accounting in
        :meth:`run_housekeeping` every flow is sized exactly once.  Returns
        the number of records added (0 with telemetry disabled).
        """
        if self.pipeline is None:
            return 0
        added = 0
        for state in self.engine.flow_states:
            if state is not None:
                added += self.pipeline.finalize(state)
        return added

    # ------------------------------------------------------------------ #
    # Flow-state migration
    # ------------------------------------------------------------------ #

    def live_records(self) -> List[FlowRecord]:
        """Snapshot of every live flow record on this node."""
        return list(self.engine.flow_records())

    @property
    def active_flows(self) -> int:
        return self.engine.active_flows

    def extract_flows(
        self, predicate: Optional[Callable[[bytes, FlowRecord], bool]] = None
    ) -> List[Tuple[bytes, FlowRecord]]:
        """Remove and return live flows matching ``predicate`` (all if None).

        Yields ``(key_bytes, record)`` pairs where ``key_bytes`` is the
        *engine* key the flow table stored (the descriptor extractor's field
        packing — the same bytes the ring steers on), so the caller can
        re-home each flow on the ring owner of exactly that identity.  The
        records are detached (not exported — the flows are moving, not
        terminating) and their table entries deleted, so this node stops
        claiming them; the caller re-homes them with :meth:`absorb_flows`
        on the new owner.
        """
        extracted: List[Tuple[bytes, FlowRecord]] = []
        for shard in self.engine.shards:
            state = shard.flow_state
            if state is None:
                continue
            victims = []
            for record in state:
                key_bytes = shard.live_key(record.flow_id)
                if key_bytes is None:
                    continue  # record without a table entry cannot migrate
                if predicate is None or predicate(key_bytes, record):
                    victims.append((key_bytes, record))
            for key_bytes, record in victims:
                state.detach(record.flow_id)
                shard.delete_flow(key_bytes)
                extracted.append((key_bytes, record))
        if extracted:
            self.flows_migrated_out += len(extracted)
            if self.obs is not None:
                self._obs_moved["out"].inc(len(extracted))
            self.engine.drain()  # retire the deletion writes before handoff
        return extracted

    def absorb_flows(self, flows: Sequence[Tuple[bytes, FlowRecord]]) -> Tuple[int, int]:
        """Adopt migrated ``(key_bytes, record)`` pairs; returns ``(restored, failed)``.

        A flow fails only when the table cannot place its key (overflow);
        the coordinator accounts those flows as lost.
        """
        restored = 0
        failed = 0
        for key_bytes, record in flows:
            if self.engine.restore_flow(record, key_bytes):
                restored += 1
            else:
                failed += 1
        self.flows_migrated_in += restored
        if restored and self.obs is not None:
            self._obs_moved["in"].inc(restored)
        return restored, failed

    def restore_flow(self, key_bytes: bytes, record: FlowRecord) -> bool:
        """Adopt one flow recovered from a checkpoint or replica promotion.

        Like :meth:`absorb_flows` but accounted separately — a restore is
        recovery of state that was about to be lost, not a migration.
        Returns ``False`` when the table cannot place the key.
        """
        if self.engine.restore_flow(record, key_bytes):
            self.flows_restored_in += 1
            if self.obs is not None:
                self._obs_moved["restored"].inc()
            return True
        return False

    # ------------------------------------------------------------------ #
    # Replication (backup role)
    # ------------------------------------------------------------------ #

    def replicate(self, primary_id: str, outcomes: Sequence[LookupOutcome]) -> int:
        """Mirror a primary's outcome batch into this node's backup plane.

        Flow-record copies land in :attr:`replica_flows` (only outcomes
        that produced a flow ID — see :meth:`ReplicaStore.observe_outcome
        <repro.cluster.replica.ReplicaStore.observe_outcome>`), and, with
        telemetry enabled, every outcome also feeds a per-primary backup
        pipeline so the primary's sketches can be reassembled exactly
        after a failure.  Returns the number of outcomes mirrored.
        """
        if not self.alive:
            raise RuntimeError(f"node {self.node_id!r} has failed; cannot replicate")
        for outcome in outcomes:
            self.replica_flows.observe_outcome(outcome)
        if self.pipeline is not None and outcomes:
            self.backup_pipeline(primary_id).observe_outcomes(outcomes)
        return len(outcomes)

    def backup_pipeline(self, primary_id: str) -> TelemetryPipeline:
        """The (lazily created) backup pipeline mirroring ``primary_id``.

        All backup pipelines share the cluster's telemetry config/seed, so
        the segments scattered across backups merge exactly into the
        primary's measurement plane on promotion.
        """
        backup = self.backup_pipelines.get(primary_id)
        if backup is None:
            backup = TelemetryPipeline(self.telemetry_config, seed=self.telemetry_seed)
            self.backup_pipelines[primary_id] = backup
        return backup

    @property
    def replica_memory_bytes(self) -> int:
        """Provisioned bytes of the backup plane (the replication
        overhead the durability experiment charges against k=2)."""
        pipelines = sum(p.memory_bytes for p in self.backup_pipelines.values())
        return self.replica_flows.memory_bytes + pipelines

    def fail(self) -> int:
        """Mark the node failed; returns the live flows lost with it.

        A failed node takes its flow state *and* its telemetry sketches
        down — nothing is migrated.  The engine object is kept so the
        coordinator can still report what the node had completed before
        dying, but it accepts no further traffic.
        """
        self.alive = False
        return self.active_flows

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #

    @property
    def completed(self) -> int:
        return self.engine.completed

    @property
    def hits(self) -> int:
        return self.engine.hits

    @property
    def misses(self) -> int:
        return self.engine.misses

    @property
    def new_flows(self) -> int:
        return self.engine.new_flows

    @property
    def insert_failures(self) -> int:
        return self.engine.insert_failures

    @property
    def elapsed_ps(self) -> int:
        return self.engine.elapsed_ps

    def totals(self) -> dict:
        """The outcome accounting the cluster books balance over."""
        return {
            "completed": self.completed,
            "hits": self.hits,
            "misses": self.misses,
            "new_flows": self.new_flows,
        }

    def flow_state_books(self) -> dict:
        """Record-instance accounting summed across this node's shards.

        The cluster's conservation identity (every record instance is
        created once and retired once) is balanced over these figures plus
        the coordinator's lost/restored counters.
        """
        books = {"created": 0, "expired": 0, "adopted": 0, "folded": 0, "exported": 0}
        for state in self.engine.flow_states:
            if state is None:
                continue
            books["created"] += state.created
            books["expired"] += state.expired
            books["adopted"] += state.adopted
            books["folded"] += state.folded
            # Records handed to a NetFlow exporter are still retired
            # records; exported_total keeps the identity balanced.
            books["exported"] += state.exported_total
        return books

    def report(self) -> dict:
        report = {
            "node_id": self.node_id,
            "alive": self.alive,
            "shards": self.engine.num_shards,
            "active_flows": self.active_flows,
            "flows_migrated_in": self.flows_migrated_in,
            "flows_migrated_out": self.flows_migrated_out,
            "flows_restored_in": self.flows_restored_in,
            "insert_failures": self.insert_failures,
            "throughput_mdesc_s": self.engine.throughput_mdesc_s,
            **self.totals(),
        }
        if self.pipeline is not None:
            report["telemetry_packets"] = self.pipeline.packets
        if len(self.replica_flows) or self.backup_pipelines:
            report["replica"] = self.replica_flows.stats()
            report["backup_pipelines"] = len(self.backup_pipelines)
            report["replica_memory_bytes"] = self.replica_memory_bytes
        return report

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "failed"
        return f"ClusterNode({self.node_id!r}, {state}, completed={self.completed})"
