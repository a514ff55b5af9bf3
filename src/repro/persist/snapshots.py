"""Versioned binary snapshot/restore codecs for the durable state of the
reproduction: flow state, Flow-LUT live-key maps, and every mergeable
telemetry structure.

Each codec produces one CRC-framed, versioned frame (see
:mod:`repro.persist.codec`) and restores it to an object that is
*merge-compatible* with the original: the snapshots carry the resolved
hash seeds and geometries, and every restore validates them with the same
strictness the ``merge`` guards apply — a snapshot from a different hash
family or geometry fails loudly instead of silently producing a structure
that can never be reconciled with its peers.

Two shapes of API:

* **Value codecs** — :func:`dumps` / :func:`loads` round-trip
  self-contained structures (sketches, trackers, detectors, histograms,
  pipelines, flow records, flow-state tables) to fresh, fully functional
  objects.
* **Device codecs** — a timed Flow LUT cannot be conjured from bytes
  alone (it owns simulators and DDR3 models), so :func:`dump_flow_lut` /
  :func:`dump_sharded` / :func:`dump_node_snapshot` capture the *durable*
  part — the live-key map with its flow records (plus the node's
  telemetry pipeline) — and :func:`restore_flow_lut` /
  :func:`restore_sharded` replay it into a freshly built device.
  :func:`loads` on these frames returns the intermediate
  :class:`FlowLUTSnapshot` / :class:`ShardedSnapshot` /
  :class:`NodeSnapshot` views.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.flow_lut import FlowLUT
from repro.core.flow_state import FlowRecord, FlowStateTable
from repro.engine.sharded import ShardedFlowLUT
from repro.net.fivetuple import FLOW_KEY_BYTES, FlowKey
from repro.sim.rng import make_rng
from repro.persist.codec import (
    ByteReader,
    ByteWriter,
    SnapshotError,
    SnapshotFormatError,
    pack_frame,
    unpack_frame,
)
from repro.telemetry.flow_size import FlowSizeDistribution
from repro.telemetry.heavy_hitters import SpaceSavingTracker
from repro.telemetry.pipeline import TelemetryConfig, TelemetryPipeline
from repro.telemetry.sketches import CountMinSketch, DistinctCounter
from repro.telemetry.superspreader import SuperSpreaderDetector

MAGIC_COUNT_MIN = b"RCMS"
MAGIC_DISTINCT = b"RDCT"
MAGIC_SPACE_SAVING = b"RSST"
MAGIC_SPREADER = b"RSSD"
MAGIC_FLOW_SIZES = b"RFSD"
MAGIC_PIPELINE = b"RTPL"
MAGIC_FLOW_RECORD = b"RFRC"
MAGIC_FLOW_STATE = b"RFST"
MAGIC_FLOW_LUT = b"RFLU"
MAGIC_SHARDED = b"RSHD"
MAGIC_NODE = b"RNOD"


# --------------------------------------------------------------------------- #
# Codec registry
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class _Codec:
    magic: bytes
    version: int
    encode: Callable[[object], bytes]  # object -> body bytes
    decode: Callable[[ByteReader, int], object]  # (body reader, version) -> object


_BY_MAGIC: Dict[bytes, _Codec] = {}
_BY_TYPE: Dict[type, _Codec] = {}


def _register(magic: bytes, version: int, type_: Optional[type]):
    def decorator(pair):
        encode, decode = pair
        codec = _Codec(magic=magic, version=version, encode=encode, decode=decode)
        _BY_MAGIC[magic] = codec
        if type_ is not None:
            _BY_TYPE[type_] = codec
        return pair

    return decorator


def dumps(obj) -> bytes:
    """Serialise any snapshot-capable object to one framed blob.

    Value types round-trip through :func:`loads`; device types
    (:class:`~repro.core.flow_lut.FlowLUT`,
    :class:`~repro.engine.sharded.ShardedFlowLUT`, cluster nodes) load
    back as their snapshot views, to be replayed with the ``restore_*``
    helpers.
    """
    codec = _BY_TYPE.get(type(obj))
    if codec is None:
        # The cluster node lives above this package; dispatch lazily so the
        # package import graph stays acyclic.
        from repro.cluster.node import ClusterNode

        if isinstance(obj, ClusterNode):
            return dump_node_snapshot(obj)
        if isinstance(obj, ShardedFlowLUT):
            return dump_sharded(obj)
        if isinstance(obj, FlowLUT):
            return dump_flow_lut(obj)
        raise SnapshotError(f"no snapshot codec for {type(obj).__name__!r}")
    return pack_frame(codec.magic, codec.version, codec.encode(obj))


def loads(data: bytes):
    """Restore one framed snapshot, dispatching on its magic."""
    if len(data) < 4:
        raise SnapshotFormatError("snapshot too short to carry a magic")
    codec = _BY_MAGIC.get(bytes(data[:4]))
    if codec is None:
        raise SnapshotFormatError(f"unknown snapshot magic {bytes(data[:4])!r}")
    _, version, body = unpack_frame(data, codec.magic, max_version=codec.version)
    reader = ByteReader(body)
    obj = codec.decode(reader, version)
    reader.expect_end()
    return obj


# --------------------------------------------------------------------------- #
# Telemetry structures
# --------------------------------------------------------------------------- #


def _encode_count_min(sketch: CountMinSketch) -> bytes:
    writer = ByteWriter()
    writer.u32(sketch.width).u32(sketch.depth).u32(sketch.key_bits)
    writer.u64(sketch.hash_seed).u64(sketch.total)
    for row in sketch.counter_rows():
        writer.u64s(row)  # bulk-packed: the grid dominates the frame
    return writer.getvalue()


def _decode_count_min(reader: ByteReader, version: int) -> CountMinSketch:
    width, depth, key_bits = reader.u32(), reader.u32(), reader.u32()
    hash_seed, total = reader.u64(), reader.u64()
    rows = [reader.u64s(width) for _ in range(depth)]
    return CountMinSketch.from_state(
        width=width, depth=depth, key_bits=key_bits,
        hash_seed=hash_seed, rows=rows, total=total,
    )


_register(MAGIC_COUNT_MIN, 1, CountMinSketch)((_encode_count_min, _decode_count_min))


def _encode_distinct(counter: DistinctCounter) -> bytes:
    writer = ByteWriter()
    writer.u32(counter.bitmap_bits).u32(counter.key_bits)
    writer.u64(counter.hash_seed).u64(counter.items_added)
    bitmap = counter.bitmap_value
    writer.blob(bitmap.to_bytes((counter.bitmap_bits + 7) // 8, "big"))
    return writer.getvalue()


def _decode_distinct(reader: ByteReader, version: int) -> DistinctCounter:
    bitmap_bits, key_bits = reader.u32(), reader.u32()
    hash_seed, items_added = reader.u64(), reader.u64()
    bitmap = int.from_bytes(reader.blob(), "big")
    return DistinctCounter.from_state(
        bitmap_bits=bitmap_bits, key_bits=key_bits,
        hash_seed=hash_seed, bitmap=bitmap, items_added=items_added,
    )


_register(MAGIC_DISTINCT, 1, DistinctCounter)((_encode_distinct, _decode_distinct))


def _encode_space_saving(tracker: SpaceSavingTracker) -> bytes:
    writer = ByteWriter()
    entries = tracker.entry_states()
    writer.u32(tracker.capacity).u64(tracker.total).u64(tracker.evictions)
    writer.u32(len(entries))
    for key, count, error in entries:
        writer.key(key).u64(count).u64(error)
    return writer.getvalue()


def _decode_space_saving(reader: ByteReader, version: int) -> SpaceSavingTracker:
    capacity, total, evictions = reader.u32(), reader.u64(), reader.u64()
    entries = [(reader.key(), reader.u64(), reader.u64()) for _ in range(reader.u32())]
    return SpaceSavingTracker.from_state(
        capacity=capacity, entries=entries, total=total, evictions=evictions
    )


_register(MAGIC_SPACE_SAVING, 1, SpaceSavingTracker)(
    (_encode_space_saving, _decode_space_saving)
)


def _encode_spreader(detector: SuperSpreaderDetector) -> bytes:
    writer = ByteWriter()
    writer.u32(detector.max_sources).u32(detector.bitmap_bits)
    writer.f64(detector.threshold).u32(detector.key_bits)
    writer.u64(detector.hash_seed).u64(detector.updates).u64(detector.evictions)
    sources = detector.source_states()
    writer.u32(len(sources))
    for source, counter in sources:
        writer.key(source).u64(counter.items_added)
        writer.blob(counter.bitmap_value.to_bytes((counter.bitmap_bits + 7) // 8, "big"))
    return writer.getvalue()


def _decode_spreader(reader: ByteReader, version: int) -> SuperSpreaderDetector:
    max_sources, bitmap_bits = reader.u32(), reader.u32()
    threshold, key_bits = reader.f64(), reader.u32()
    hash_seed, updates, evictions = reader.u64(), reader.u64(), reader.u64()
    # Per-source bitmaps hash with the seed *derived* from the detector
    # seed (see SuperSpreaderDetector.counter_hash_seed), not the detector
    # seed itself.
    counter_seed = make_rng(hash_seed).getrandbits(64)
    sources = []
    for _ in range(reader.u32()):
        source = reader.key()
        items_added = reader.u64()
        bitmap = int.from_bytes(reader.blob(), "big")
        counter = DistinctCounter.from_state(
            bitmap_bits=bitmap_bits, key_bits=key_bits,
            hash_seed=counter_seed, bitmap=bitmap, items_added=items_added,
        )
        sources.append((source, counter))
    return SuperSpreaderDetector.from_state(
        max_sources=max_sources, bitmap_bits=bitmap_bits, threshold=threshold,
        key_bits=key_bits, hash_seed=hash_seed, sources=sources,
        updates=updates, evictions=evictions,
    )


_register(MAGIC_SPREADER, 1, SuperSpreaderDetector)((_encode_spreader, _decode_spreader))


def _encode_flow_sizes(distribution: FlowSizeDistribution) -> bytes:
    writer = ByteWriter()
    buckets = distribution.bucket_counts()
    writer.u32(distribution.max_bucket).u64(distribution.flows)
    writer.u64(distribution.total_packets).u64(distribution.total_bytes)
    writer.u32(len(buckets))
    for bucket in sorted(buckets):
        writer.u32(bucket).u64(buckets[bucket])
    return writer.getvalue()


def _decode_flow_sizes(reader: ByteReader, version: int) -> FlowSizeDistribution:
    max_bucket, flows = reader.u32(), reader.u64()
    total_packets, total_bytes = reader.u64(), reader.u64()
    buckets = {reader.u32(): reader.u64() for _ in range(reader.u32())}
    return FlowSizeDistribution.from_state(
        max_bucket=max_bucket, buckets=buckets, flows=flows,
        total_packets=total_packets, total_bytes=total_bytes,
    )


_register(MAGIC_FLOW_SIZES, 1, FlowSizeDistribution)(
    (_encode_flow_sizes, _decode_flow_sizes)
)


def _encode_pipeline(pipeline: TelemetryPipeline) -> bytes:
    writer = ByteWriter()
    cfg = pipeline.config
    writer.u32(cfg.cm_width).u32(cfg.cm_depth).u32(cfg.heavy_hitter_capacity)
    writer.u32(cfg.spreader_sources).u32(cfg.spreader_bitmap_bits)
    writer.f64(cfg.spreader_threshold).f64(cfg.scan_threshold)
    writer.f64(cfg.syn_flood_fraction).u32(cfg.syn_flood_min_packets)
    writer.u64(pipeline.packets).u64(pipeline.bytes)
    writer.u64(pipeline.syn_packets).u64(pipeline.events_seen)
    for component in (
        pipeline.packet_counts,
        pipeline.byte_counts,
        pipeline.heavy_hitters,
        pipeline.spreaders,
        pipeline.port_scanners,
        pipeline.flow_sizes,
    ):
        writer.blob(dumps(component))
    return writer.getvalue()


def _decode_pipeline(reader: ByteReader, version: int) -> TelemetryPipeline:
    config = TelemetryConfig(
        cm_width=reader.u32(),
        cm_depth=reader.u32(),
        heavy_hitter_capacity=reader.u32(),
        spreader_sources=reader.u32(),
        spreader_bitmap_bits=reader.u32(),
        spreader_threshold=reader.f64(),
        scan_threshold=reader.f64(),
        syn_flood_fraction=reader.f64(),
        syn_flood_min_packets=reader.u32(),
    )
    packets, bytes_ = reader.u64(), reader.u64()
    syn_packets, events_seen = reader.u64(), reader.u64()
    components = [loads(reader.blob()) for _ in range(6)]
    return TelemetryPipeline.from_components(
        config,
        packet_counts=components[0],
        byte_counts=components[1],
        heavy_hitters=components[2],
        spreaders=components[3],
        port_scanners=components[4],
        flow_sizes=components[5],
        packets=packets,
        bytes_=bytes_,
        syn_packets=syn_packets,
        events_seen=events_seen,
    )


_register(MAGIC_PIPELINE, 1, TelemetryPipeline)((_encode_pipeline, _decode_pipeline))


# --------------------------------------------------------------------------- #
# Flow records and flow-state tables
# --------------------------------------------------------------------------- #


_RECORD = struct.Struct(f"<QI{FLOW_KEY_BYTES}sQQQQH")
"""One flow record as :func:`_read_record` reads it: u64 flow ID, the packed
key as a blob (u32 length + 13 bytes), u64 packets / bytes / first seen /
last seen, u16 TCP flags — packed in one call, snapshots carry ~80 k of them."""


def _write_record(writer: ByteWriter, record: FlowRecord) -> None:
    writer.raw(
        _RECORD.pack(
            record.flow_id, FLOW_KEY_BYTES, record.key.pack(), record.packets, record.bytes,
            record.first_seen_ps, record.last_seen_ps, record.tcp_flags,
        )
    )


def _read_record(reader: ByteReader) -> FlowRecord:
    flow_id = reader.u64()
    packed = reader.blob()
    if len(packed) != FLOW_KEY_BYTES:
        raise SnapshotFormatError(
            f"flow record key is {len(packed)} bytes, expected {FLOW_KEY_BYTES}"
        )
    record = FlowRecord(flow_id=flow_id, key=FlowKey.unpack(packed))
    record.packets = reader.u64()
    record.bytes = reader.u64()
    record.first_seen_ps = reader.u64()
    record.last_seen_ps = reader.u64()
    record.tcp_flags = reader.u16()
    return record


def _encode_record(record: FlowRecord) -> bytes:
    writer = ByteWriter()
    _write_record(writer, record)
    return writer.getvalue()


def _decode_record(reader: ByteReader, version: int) -> FlowRecord:
    return _read_record(reader)


_register(MAGIC_FLOW_RECORD, 1, FlowRecord)((_encode_record, _decode_record))


def _encode_flow_state(table: FlowStateTable) -> bytes:
    writer = ByteWriter()
    writer.f64(table.timeout_us)
    writer.u64(table.created).u64(table.updated).u64(table.expired)
    writer.u64(table.adopted).u64(table.folded).u64(table.drained)
    live = sorted(table, key=lambda record: record.flow_id)
    writer.u32(len(live))
    for record in live:
        _write_record(writer, record)
    writer.u32(len(table.exported))
    for record in table.exported:
        _write_record(writer, record)
    return writer.getvalue()


def _decode_flow_state(reader: ByteReader, version: int) -> FlowStateTable:
    timeout_us = reader.f64()
    created, updated, expired = reader.u64(), reader.u64(), reader.u64()
    adopted, folded = reader.u64(), reader.u64()
    # Version 1 predates the NetFlow export drain (PR 5): no drained counter.
    drained = reader.u64() if version >= 2 else 0
    records = [_read_record(reader) for _ in range(reader.u32())]
    exported = [_read_record(reader) for _ in range(reader.u32())]
    return FlowStateTable.from_state(
        timeout_us=timeout_us, records=records, exported=exported,
        created=created, updated=updated, expired=expired,
        adopted=adopted, folded=folded, drained=drained,
    )


_register(MAGIC_FLOW_STATE, 2, FlowStateTable)((_encode_flow_state, _decode_flow_state))


# --------------------------------------------------------------------------- #
# Flow LUT / sharded engine live-key maps
# --------------------------------------------------------------------------- #


FlowEntry = Tuple[bytes, Optional[FlowRecord]]
"""One snapshotted flow: the engine key bytes the table stored, plus the
flow-state record when one is attached (preloaded keys have none)."""


@dataclass(frozen=True)
class FlowLUTSnapshot:
    """The durable view of one Flow LUT: its live-key map and records."""

    config_seed: int
    buckets_per_memory: int
    entries: List[FlowEntry]


@dataclass(frozen=True)
class ShardedSnapshot:
    """The durable view of a sharded engine (flows re-shard on restore)."""

    num_shards: int
    config_seed: int
    buckets_per_memory: int
    entries: List[FlowEntry]


@dataclass(frozen=True)
class NodeSnapshot:
    """A cluster node checkpoint: flows plus the telemetry pipeline."""

    node_id: str
    completed: int
    flows: List[FlowEntry]
    pipeline: Optional[TelemetryPipeline]

    @property
    def packets(self) -> int:
        """Telemetry packets covered by this checkpoint (0 without telemetry)."""
        return self.pipeline.packets if self.pipeline is not None else 0


_ENTRY = struct.Struct(f"<I{FLOW_KEY_BYTES}sB{_RECORD.format[1:]}")
"""One snapshotted flow with a record and a 13-byte engine key, as
:func:`_read_entries` reads it: the key blob (u32 length + 13 bytes), the
present flag (1), then the record laid out as :data:`_RECORD`."""


def _write_entries(writer: ByteWriter, entries: List[FlowEntry]) -> None:
    writer.u32(len(entries))
    pack, raw = _ENTRY.pack, writer.raw
    for key_bytes, record in entries:
        if record is not None and len(key_bytes) == FLOW_KEY_BYTES:
            raw(
                pack(
                    FLOW_KEY_BYTES, key_bytes, 1,
                    record.flow_id, FLOW_KEY_BYTES, record.key.pack(), record.packets,
                    record.bytes, record.first_seen_ps, record.last_seen_ps, record.tcp_flags,
                )
            )
            continue
        # Preloaded keys (no record) and keys of another width: field by field.
        writer.blob(key_bytes)
        if record is None:
            writer.u8(0)
        else:
            writer.u8(1)
            _write_record(writer, record)


def _read_entries(reader: ByteReader) -> List[FlowEntry]:
    entries: List[FlowEntry] = []
    for _ in range(reader.u32()):
        key_bytes = reader.blob()
        record = _read_record(reader) if reader.u8() else None
        entries.append((key_bytes, record))
    return entries


def dump_flow_lut(lut: FlowLUT) -> bytes:
    """Snapshot a Flow LUT's live-key map (and attached flow records)."""
    writer = ByteWriter()
    writer.i64(lut.config.seed).u32(lut.table.buckets_per_memory)
    _write_entries(writer, lut.live_flow_pairs())
    return pack_frame(MAGIC_FLOW_LUT, 1, writer.getvalue())


def _decode_flow_lut(reader: ByteReader, version: int) -> FlowLUTSnapshot:
    return FlowLUTSnapshot(
        config_seed=reader.i64(),
        buckets_per_memory=reader.u32(),
        entries=_read_entries(reader),
    )


_register(MAGIC_FLOW_LUT, 1, None)((None, _decode_flow_lut))


def dump_sharded(engine: ShardedFlowLUT) -> bytes:
    """Snapshot a sharded engine's live flows (all shards, one frame)."""
    writer = ByteWriter()
    writer.u32(engine.num_shards)
    writer.i64(engine.config.seed).u32(engine.shards[0].table.buckets_per_memory)
    _write_entries(writer, engine.live_flow_pairs())
    return pack_frame(MAGIC_SHARDED, 1, writer.getvalue())


def _decode_sharded(reader: ByteReader, version: int) -> ShardedSnapshot:
    return ShardedSnapshot(
        num_shards=reader.u32(),
        config_seed=reader.i64(),
        buckets_per_memory=reader.u32(),
        entries=_read_entries(reader),
    )


_register(MAGIC_SHARDED, 1, None)((None, _decode_sharded))


def _check_geometry(
    what: str, snapshot_seed: int, snapshot_buckets: int, seed: int, buckets: int
) -> None:
    if snapshot_seed != seed:
        raise SnapshotError(
            f"cannot restore {what}: snapshot hash seed {snapshot_seed} does not "
            f"match the target's {seed} (bucket placement would diverge)"
        )
    if snapshot_buckets != buckets:
        raise SnapshotError(
            f"cannot restore {what}: snapshot table geometry "
            f"({snapshot_buckets} buckets/memory) does not match the target's "
            f"({buckets})"
        )


def restore_flow_lut(lut: FlowLUT, snapshot) -> int:
    """Replay a Flow LUT snapshot into a freshly built LUT; returns the
    number of flows installed.

    ``snapshot`` is the raw frame or a :class:`FlowLUTSnapshot`.  The
    target must share the snapshot's hash seed and bucket geometry —
    mirroring the merge guards — because the live-key map is only
    meaningful for the hash family that placed it.  Restoration is
    functional (no simulated time), like ``preload``; flow IDs are
    location-derived and may differ from the originals, but every key is
    live again and every record keeps its accumulated counters.
    """
    if isinstance(snapshot, (bytes, bytearray, memoryview)):
        snapshot = loads(bytes(snapshot))
    if not isinstance(snapshot, FlowLUTSnapshot):
        raise SnapshotError(f"not a Flow LUT snapshot: {type(snapshot).__name__!r}")
    _check_geometry(
        "Flow LUT", snapshot.config_seed, snapshot.buckets_per_memory,
        lut.config.seed, lut.table.buckets_per_memory,
    )
    return _install_entries(snapshot.entries, lut.restore_flow, lut.preload)


def restore_sharded(engine: ShardedFlowLUT, snapshot) -> int:
    """Replay a sharded-engine snapshot; returns the flows installed.

    Flows re-partition through ``shard_of`` on the way back in, so the
    target may even run a *different shard count* than the snapshot came
    from — key-hash pinning makes the placement self-describing.  Per-LUT
    hash seed and bucket geometry must still match.
    """
    if isinstance(snapshot, (bytes, bytearray, memoryview)):
        snapshot = loads(bytes(snapshot))
    if not isinstance(snapshot, ShardedSnapshot):
        raise SnapshotError(f"not a sharded-engine snapshot: {type(snapshot).__name__!r}")
    _check_geometry(
        "sharded engine", snapshot.config_seed, snapshot.buckets_per_memory,
        engine.config.seed, engine.shards[0].table.buckets_per_memory,
    )
    return _install_entries(snapshot.entries, engine.restore_flow, engine.preload)


def _install_entries(entries, restore_flow, preload) -> int:
    installed = 0
    for key_bytes, record in entries:
        if record is None:
            installed += preload([key_bytes])
        elif restore_flow(record, key_bytes):
            installed += 1
    return installed


# --------------------------------------------------------------------------- #
# Cluster node checkpoints
# --------------------------------------------------------------------------- #


def _record_persist_obs(obs, op: str, kind: str, elapsed_ns: int, size: int) -> None:
    """Account one codec operation on a metrics registry (never on the
    disabled path — callers guard with ``obs is not None``)."""
    obs.histogram(
        "repro_persist_ns",
        "Host-side duration of snapshot encode/decode operations",
        labels=("kind", "op"),
    ).observe(elapsed_ns, kind=kind, op=op)
    obs.histogram(
        "repro_persist_bytes",
        "Snapshot frame sizes",
        labels=("kind", "op"),
        buckets=_SIZE_BUCKETS,
    ).observe(size, kind=kind, op=op)
    obs.counter(
        "repro_persist_frames_total",
        "Snapshot frames encoded/decoded",
        labels=("kind", "op"),
    ).inc(1, kind=kind, op=op)


_SIZE_BUCKETS = tuple(float(64 << (2 * index)) for index in range(16))


def dump_node_snapshot(node, obs=None) -> bytes:
    """Checkpoint one cluster node: its live flows and telemetry pipeline.

    ``node`` is a :class:`~repro.cluster.node.ClusterNode` (duck-typed:
    anything with ``node_id`` / ``engine`` / ``pipeline`` / ``completed``
    works).  The checkpoint is self-contained — restoring needs no access
    to the node that produced it, which is the point: the node may be gone.

    ``obs`` (a :class:`~repro.obs.metrics.MetricsRegistry`) records the
    encode duration and frame size under ``repro_persist_*``.
    """
    start = obs.clock() if obs is not None else 0
    writer = ByteWriter()
    writer.text(node.node_id)
    writer.u64(node.completed)
    pipeline = node.pipeline
    if pipeline is None:
        writer.u8(0)
    else:
        writer.u8(1)
        writer.blob(dumps(pipeline))
    _write_entries(writer, node.engine.live_flow_pairs())
    frame = pack_frame(MAGIC_NODE, 1, writer.getvalue())
    if obs is not None:
        _record_persist_obs(obs, "dump", "node", obs.clock() - start, len(frame))
    return frame


def _decode_node(reader: ByteReader, version: int) -> NodeSnapshot:
    node_id = reader.text()
    completed = reader.u64()
    pipeline = loads(reader.blob()) if reader.u8() else None
    flows = _read_entries(reader)
    return NodeSnapshot(
        node_id=node_id, completed=completed, flows=flows, pipeline=pipeline
    )


_register(MAGIC_NODE, 1, None)((None, _decode_node))


def load_node_snapshot(data: bytes, obs=None) -> NodeSnapshot:
    """Decode a node checkpoint produced by :func:`dump_node_snapshot`.

    ``obs`` (a :class:`~repro.obs.metrics.MetricsRegistry`) records the
    decode duration and frame size under ``repro_persist_*``.
    """
    start = obs.clock() if obs is not None else 0
    snapshot = loads(data)
    if not isinstance(snapshot, NodeSnapshot):
        raise SnapshotError(f"not a node checkpoint: {type(snapshot).__name__!r}")
    if obs is not None:
        _record_persist_obs(obs, "load", "node", obs.clock() - start, len(data))
    return snapshot
