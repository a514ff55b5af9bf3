"""Per-layer metrics: the span books of a traced repetition, plus the
standalone measurements that spans cannot give.

Two sources, kept apart:

* :func:`span_metrics` reads one traced repetition's spans — total and self
  time per wrapped call — and closes the books: every nanosecond of the
  traced wall is some span's self time, and what the outside view cannot
  split (driver glue plus ``coordinator.ingest``'s own steer bucketing and
  barrier) is reported as ``cluster.coordinator.unattributed_share``.
* the standalone functions time what is called once per *row* (sketch
  updates, key packing) in loops over the workload's own keys, and what the
  driven loop never calls (snapshot codecs on the final node state, the
  object-path adapter, the pooled executors); each workload picks the ones
  that apply to it (``standalone_metrics`` in :mod:`pipebench.workloads`).
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List

from repro.persist import dump_node_snapshot, load_node_snapshot
from repro.telemetry.heavy_hitters import SpaceSavingTracker
from repro.telemetry.pipeline import TelemetryConfig, TelemetryPipeline
from repro.telemetry.sketches import CountMinSketch
from repro.telemetry.superspreader import SuperSpreaderDetector

from pipebench.tracing import self_times

# metric name -> (span name, which figure of the span's books, unit scale)
_TOTAL, _SELF = 1, 2
_SPAN_METRICS = {
    "columns.slice_rows_s": ("columns.slice_rows", _TOTAL, 1e-9),
    "columns.take_s": ("columns.take", _TOTAL, 1e-9),
    "columns.hash_s": ("columns.hash", _TOTAL, 1e-9),
    "columns.to_outcomes_s": ("columns.to_outcomes", _TOTAL, 1e-9),
    "cluster.ring.lookup_column_s": ("cluster.ring.lookup_column", _TOTAL, 1e-9),
    "cluster.ring.backups_of_s": ("cluster.coordinator.backups_of", _TOTAL, 1e-9),
    "cluster.coordinator.ingest_s": ("cluster.coordinator.ingest", _TOTAL, 1e-9),
    "cluster.coordinator.ingest_self_s": ("cluster.coordinator.ingest", _SELF, 1e-9),
    "cluster.coordinator.checkpoint_s": ("cluster.coordinator.checkpoint_node", _TOTAL, 1e-9),
    "cluster.coordinator.add_node_ms": ("cluster.coordinator.add_node", _TOTAL, 1e-6),
    "cluster.coordinator.fail_node_ms": ("cluster.coordinator.fail_node", _TOTAL, 1e-6),
    "cluster.coordinator.finalize_ms": ("cluster.coordinator.finalize_telemetry", _TOTAL, 1e-6),
    "cluster.coordinator.merged_telemetry_ms": (
        "cluster.coordinator.merged_telemetry", _TOTAL, 1e-6),
    "cluster.node.process_batch_self_s": ("cluster.node.process_batch", _SELF, 1e-9),
    "cluster.node.replicate_s": ("cluster.node.replicate", _TOTAL, 1e-9),
    "cluster.node.replicate_self_s": ("cluster.node.replicate", _SELF, 1e-9),
    "engine.process_batch_self_s": ("engine.process_batch", _SELF, 1e-9),
    "core.process_block_s": ("core.process_block", _TOTAL, 1e-9),
    "core.run_experiment_s": ("core.run_lookup_experiment", _TOTAL, 1e-9),
    "telemetry.observe_outcomes_s": ("telemetry.observe_outcomes", _TOTAL, 1e-9),
    "telemetry.backup_observe_s": ("telemetry.backup_observe", _TOTAL, 1e-9),
    "obs.windows_advance_s": ("obs.windows_advance", _TOTAL, 1e-9),
    "sim.run_s": ("sim.run", _TOTAL, 1e-9),
    "cluster.control.step_s": ("cluster.control.step", _TOTAL, 1e-9),
}


def span_metrics(spans) -> Dict[str, float]:
    """Layer figures of one traced repetition (see the module docstring)."""
    books = self_times(spans)
    empty = (0, 0, 0)
    metrics = {
        name: books.get(span, empty)[figure] * scale
        for name, (span, figure, scale) in _SPAN_METRICS.items()
    }
    wall_ns = books["driver"][_TOTAL]
    unattributed_ns = (
        books["driver"][_SELF] + books.get("cluster.coordinator.ingest", empty)[_SELF]
    )
    telemetry_ns = (
        books.get("telemetry.observe_outcomes", empty)[_SELF]
        + books.get("telemetry.backup_observe", empty)[_SELF]
    )
    # The driven loop: every ingest()/control.step() call (or paper sweep).
    ingest_ns = sum(
        books.get(span, empty)[_TOTAL]
        for span in (
            "cluster.coordinator.ingest",
            "cluster.control.step",
            "core.run_lookup_experiment",
        )
    )
    metrics["trace.wall_s"] = wall_ns * 1e-9
    metrics["trace.spans"] = len(spans)
    metrics["cluster.coordinator.unattributed_share"] = unattributed_ns / wall_ns
    metrics["telemetry.ingest_share"] = telemetry_ns / ingest_ns
    return metrics


def _per_row_us(loop: Callable[[], None], rows: int) -> float:
    start = time.perf_counter_ns()
    loop()
    return (time.perf_counter_ns() - start) / 1e3 / rows


def _median_ms(call: Callable[[], object], repeats: int = 3) -> float:
    walls = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        call()
        walls.append((time.perf_counter_ns() - start) / 1e6)
    return statistics.median(walls)


def telemetry_micro(block, rows: int, seed: int) -> Dict[str, float]:
    """Per-row sketch costs over the workload's own first ``rows`` keys."""
    piece = block.slice_rows(0, rows)
    rows = len(piece)
    config = TelemetryConfig()
    keys: List[bytes] = []
    packed_us = _per_row_us(lambda: keys.extend(piece.packed_keys()), rows)
    lengths = piece.lengths.tolist()
    sources, destinations = piece.src_ips(), piece.dst_ips()
    sketch = CountMinSketch(config.cm_width, config.cm_depth, key_bits=104, seed=seed)
    tracker = SpaceSavingTracker(config.heavy_hitter_capacity)
    detector = SuperSpreaderDetector(
        config.spreader_sources,
        config.spreader_bitmap_bits,
        threshold=config.spreader_threshold,
        seed=seed,
    )

    def count_min():
        update = sketch.update
        for key in keys:
            update(key)

    def space_saving():
        update = tracker.update
        for key, length in zip(keys, lengths):
            update(key, length)

    def spreader():
        update = detector.update
        for source, destination in zip(sources, destinations):
            update(source, destination)

    return {
        "telemetry.packed_keys_us": packed_us,
        "telemetry.cms_update_us": _per_row_us(count_min, rows),
        "telemetry.space_saving_update_us": _per_row_us(space_saving, rows),
        "telemetry.spreader_update_us": _per_row_us(spreader, rows),
    }


def distinct_keys_per_block(block, sub_batch: int = 512) -> float:
    """Distinct ÷ rows per sub-batch: the sharing an aggregation can exploit."""
    keys = block.keys()
    shares = [
        len(set(keys[offset : offset + sub_batch])) / len(keys[offset : offset + sub_batch])
        for offset in range(0, len(keys), sub_batch)
    ]
    return statistics.fmean(shares)


def node_state_metrics(coordinator) -> Dict[str, float]:
    """Snapshot codec and sketch-merge cost on the busiest node's final state."""
    nodes = coordinator.nodes
    node = nodes[max(nodes, key=lambda node_id: (nodes[node_id].completed, node_id))]
    frame = dump_node_snapshot(node)
    metrics = {
        "persist.dump_node_ms": _median_ms(lambda: dump_node_snapshot(node)),
        "persist.load_node_ms": _median_ms(lambda: load_node_snapshot(frame)),
        "persist.snapshot_bytes": len(frame),
        "telemetry.merge_ms": 0.0,
    }
    if node.pipeline is not None:
        metrics["telemetry.merge_ms"] = _median_ms(
            lambda: TelemetryPipeline(
                coordinator.telemetry_config, seed=coordinator.telemetry_seed
            ).merge(node.pipeline)
        )
    return metrics


def object_ingest_kdesc_s(workload) -> float:
    """The first rows re-fed as ``to_descriptors()`` lists (the object path)."""
    descriptors = workload.block.slice_rows(0, workload.warm_rows).to_descriptors()
    rig = workload.build()
    start = time.perf_counter_ns()
    for offset in range(0, len(descriptors), workload.segment_rows):
        rig.coordinator.ingest(descriptors[offset : offset + workload.segment_rows])
    return len(descriptors) * 1e6 / (time.perf_counter_ns() - start)


def parallel_wall_ratios(workload) -> Dict[str, float]:
    """Sequential wall ÷ pooled-executor wall at 2 workers, one insert pass.

    Real wall clock, fresh fleet per executor; the pools are shut down (and
    their worker processes joined) before returning.
    """
    segments = [block for index, block in workload.segments if index == 0]
    walls = {}
    for executor in ("off", "thread:2", "process:2"):
        rig = workload.build(executor=executor)
        try:
            start = time.perf_counter_ns()
            for segment in segments:
                rig.coordinator.ingest(segment)
            walls[executor] = time.perf_counter_ns() - start
        finally:
            rig.coordinator.close()
    return {
        "parallel.thread_w2_wall_ratio": walls["off"] / walls["thread:2"],
        "parallel.process_w2_wall_ratio": walls["off"] / walls["process:2"],
    }

