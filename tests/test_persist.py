"""repro.persist: frame validation, guard errors, wire-format edge cases.

The round-trip identities live in ``tests/test_invariants.py``; this file
covers the failure surface — corrupted frames must be rejected before a
decoder misreads them, and restores into an incompatible world must fail
with the same strictness the merge guards apply.
"""

import struct
from types import SimpleNamespace

import pytest

from repro.columns import DescriptorBlock
from repro.core.config import small_test_config
from repro.core.flow_lut import FlowLUT
from repro.core.flow_state import FlowRecord, FlowStateTable
from repro.engine.sharded import ShardedFlowLUT
from repro.net.fivetuple import FlowKey
from repro.persist import (
    ByteReader,
    ByteWriter,
    SnapshotError,
    SnapshotFormatError,
    dump_flow_lut,
    dump_node_snapshot,
    dump_sharded,
    dumps,
    load_node_snapshot,
    loads,
    pack_frame,
    restore_flow_lut,
    restore_sharded,
    unpack_frame,
)
from repro.telemetry import TelemetryConfig, TelemetryPipeline
from repro.telemetry.sketches import CountMinSketch
from repro.traffic import generate_scenario, scenario_descriptors

CONFIG = small_test_config()


# --------------------------------------------------------------------------- #
# Frame validation
# --------------------------------------------------------------------------- #


def _sketch():
    sketch = CountMinSketch(32, 2, seed=1)
    for key in range(100):
        sketch.update(key)
    return sketch


def test_truncated_and_empty_snapshots_are_rejected():
    data = dumps(_sketch())
    with pytest.raises(SnapshotFormatError):
        loads(b"")
    with pytest.raises(SnapshotFormatError):
        loads(data[:3])
    with pytest.raises(SnapshotFormatError):
        loads(data[:-10])  # body shorter than the header declares


def test_unknown_magic_is_rejected():
    data = dumps(_sketch())
    with pytest.raises(SnapshotFormatError, match="magic"):
        loads(b"XXXX" + data[4:])


def test_corrupted_body_fails_the_crc():
    data = bytearray(dumps(_sketch()))
    data[-1] ^= 0xFF
    with pytest.raises(SnapshotFormatError, match="CRC"):
        loads(bytes(data))


def test_newer_codec_version_is_refused():
    _, _, body = unpack_frame(dumps(_sketch()))
    too_new = pack_frame(b"RCMS", 99, body)
    with pytest.raises(SnapshotFormatError, match="version"):
        loads(too_new)


def test_trailing_bytes_are_detected():
    magic, version, body = unpack_frame(dumps(_sketch()))
    padded = pack_frame(magic, version, body + b"\x00")
    with pytest.raises(SnapshotFormatError, match="trailing"):
        loads(padded)


def test_bytes_beyond_the_declared_body_are_rejected():
    # A checkpoint file that was concatenated or partially overwritten
    # past its frame must not restore as if intact.
    with pytest.raises(SnapshotFormatError, match="beyond"):
        loads(dumps(_sketch()) + b"corrupt-tail")


def test_byte_writer_reader_primitives_round_trip():
    writer = ByteWriter()
    writer.u8(7).u16(65535).u32(1 << 31).u64(1 << 60).i64(-5).f64(2.5)
    writer.blob(b"abc").text("café").bigint(-(1 << 80))
    writer.key(b"k").key(-12).key("label").key(1 << 90)
    reader = ByteReader(writer.getvalue())
    assert reader.u8() == 7 and reader.u16() == 65535
    assert reader.u32() == 1 << 31 and reader.u64() == 1 << 60
    assert reader.i64() == -5 and reader.f64() == 2.5
    assert reader.blob() == b"abc" and reader.text() == "café"
    assert reader.bigint() == -(1 << 80)
    assert [reader.key() for _ in range(4)] == [b"k", -12, "label", 1 << 90]
    reader.expect_end()


def test_unserialisable_summary_key_is_refused():
    with pytest.raises(SnapshotError, match="key"):
        ByteWriter().key((1, 2))
    with pytest.raises(SnapshotError, match="key"):
        ByteWriter().key(True)  # bool is not a stable wire identity


def test_dumps_rejects_unknown_objects():
    with pytest.raises(SnapshotError, match="codec"):
        dumps(object())


# --------------------------------------------------------------------------- #
# Restore guards (mirroring the merge guards)
# --------------------------------------------------------------------------- #


def test_restored_sketch_refuses_to_merge_across_seeds():
    restored = loads(dumps(_sketch()))
    stranger = CountMinSketch(32, 2, seed=2)
    with pytest.raises(ValueError, match="seed"):
        restored.merge(stranger)


def test_pipeline_restore_guards_component_geometry():
    pipeline = TelemetryPipeline(TelemetryConfig(cm_width=64), seed=3)
    pipeline.observe_packets(generate_scenario("zipf_mix", 200, seed=3))
    with pytest.raises(ValueError, match="geometry"):
        TelemetryPipeline.from_components(
            TelemetryConfig(cm_width=128),  # disagrees with the components
            packet_counts=pipeline.packet_counts,
            byte_counts=pipeline.byte_counts,
            heavy_hitters=pipeline.heavy_hitters,
            spreaders=pipeline.spreaders,
            port_scanners=pipeline.port_scanners,
            flow_sizes=pipeline.flow_sizes,
            packets=pipeline.packets,
            bytes_=pipeline.bytes,
            syn_packets=pipeline.syn_packets,
            events_seen=pipeline.events_seen,
        )


def test_flow_state_restore_rejects_duplicate_ids():
    key = FlowKey("10.0.0.1", "10.0.0.2", 1, 2, 6)
    records = [FlowRecord(flow_id=9, key=key), FlowRecord(flow_id=9, key=key)]
    with pytest.raises(ValueError, match="duplicate"):
        FlowStateTable.from_state(timeout_us=1.0, records=records, exported=[])


def _populated_lut(config=CONFIG, seed=4):
    lut = FlowLUT(config, flow_state=FlowStateTable())
    for descriptor in scenario_descriptors("zipf_mix", 200, seed=seed):
        lut.submit_blocking(descriptor)
    lut.drain()
    return lut


def test_flow_lut_restore_guards_hash_seed_and_geometry():
    snapshot = dump_flow_lut(_populated_lut())
    with pytest.raises(SnapshotError, match="seed"):
        restore_flow_lut(FlowLUT(CONFIG.with_overrides(seed=999)), snapshot)
    bigger = CONFIG.with_overrides(num_flows=CONFIG.num_flows * 2)
    with pytest.raises(SnapshotError, match="geometry"):
        restore_flow_lut(FlowLUT(bigger), snapshot)


def test_sharded_restore_guards_and_wrong_frame_types():
    engine = ShardedFlowLUT(shards=2, config=CONFIG)
    engine.attach_flow_state()
    engine.process_batch(scenario_descriptors("zipf_mix", 150, seed=5))
    snapshot = dump_sharded(engine)
    twin = ShardedFlowLUT(shards=2, config=CONFIG.with_overrides(seed=77))
    twin.attach_flow_state()
    with pytest.raises(SnapshotError, match="seed"):
        restore_sharded(twin, snapshot)
    # A frame of the wrong type is refused by the restore entry points.
    with pytest.raises(SnapshotError, match="snapshot"):
        restore_flow_lut(FlowLUT(CONFIG), snapshot)
    with pytest.raises(SnapshotError, match="snapshot"):
        restore_sharded(engine, dumps(_sketch()))
    with pytest.raises(SnapshotError, match="checkpoint"):
        load_node_snapshot(dumps(_sketch()))


def test_node_snapshot_round_trips_through_loads():
    from repro.cluster import ClusterNode

    node = ClusterNode("n0", config=CONFIG, telemetry_seed=6)
    node.process_batch(scenario_descriptors("node_failover", 200, seed=6))
    snapshot = load_node_snapshot(dump_node_snapshot(node))
    assert snapshot.node_id == "n0"
    assert snapshot.completed == node.completed == 200
    assert snapshot.packets == node.pipeline.packets
    assert len(snapshot.flows) == node.active_flows
    assert {key for key, _ in snapshot.flows} == {
        key for key, _ in node.engine.live_flow_pairs()
    }
    # dumps() dispatches cluster nodes to the node codec.
    assert dumps(node)[:4] == dump_node_snapshot(node)[:4]


def test_frames_taken_straight_after_ingest_carry_every_record(each_backend):
    # The writer packs each record, key included, from the flow-state columns
    # the block body filled; no record of these flows exists before the dump.
    from repro.cluster import ClusterNode

    descriptors = scenario_descriptors("node_failover", 300, seed=8)
    for _, context in each_backend():
        with context:
            node = ClusterNode("n0", config=CONFIG, telemetry_seed=8)
            node.process_batch(descriptors)
            flows = load_node_snapshot(dump_node_snapshot(node)).flows
            assert flows == node.engine.live_flow_pairs()
            assert all(record is not None for _, record in flows)
            assert {record.key for _, record in flows} == {d.key for d in descriptors}

            lut = FlowLUT(CONFIG, flow_state=FlowStateTable())
            lut.process_block(DescriptorBlock.from_descriptors(descriptors))
            entries = loads(dump_flow_lut(lut)).entries
            assert entries == lut.live_flow_pairs()
            assert len(entries) == len({d.key for d in descriptors})


# --------------------------------------------------------------------------- #
# Golden bytes: the flow-record wire layout
# --------------------------------------------------------------------------- #

# Frames of a fixed record set, written by the codec as it stood when every
# record field was its own ``ByteWriter`` call; records are now packed in one
# ``Struct`` and must come out byte for byte the same.
GOLDEN_RECORD = (
    "5246524301003b000000d89d7ef307000000000000000d0000000a000001c0a8010904d20050060300000000"
    "00000094110000000000000a00000000000000e7030000000000001200"
)
GOLDEN_RECORD_ALL_ONES = (
    "5246524301003b0000002274a633ffffffffffffffff0d000000ffffffffffffffffffffffffffffffffffff"
    "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
)
GOLDEN_FLOW_STATE = (
    "524653540200f10000006966fb4a0000000000002e4003000000000000000500000000000000010000000000"
    "00000000000000000000000000000000000000000000000000000200000000000000000000000d0000000000"
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"
    "0007000000000000000d0000000a000001c0a8010904d2005006030000000000000094110000000000000a00"
    "000000000000e703000000000000120001000000ffffffffffffffff0d000000ffffffffffffffffffffffff"
    "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
)
GOLDEN_FLOW_LUT = (
    "52464c550100bc000000b1fcce71142000000000000000400000030000000d00000000000000000000000000"
    "0000000100000000000000000d00000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000d0000000a000001c0a8010904d2005006016c480000000000"
    "000d0000000a000001c0a8010904d2005006030000000000000094110000000000000a00000000000000e703"
    "00000000000012000d000000000102030405060708090a0b0c00"
)


def _golden_records():
    return [
        FlowRecord(7, FlowKey("10.0.0.1", "192.168.1.9", 1234, 80, 6), 3, 4500, 10, 999, 0x12),
        FlowRecord(0, FlowKey(0, 0, 0, 0, 0)),
        FlowRecord(2**64 - 1, FlowKey(0xFFFFFFFF, 0xFFFFFFFF, 0xFFFF, 0xFFFF, 0xFF),
                   2**64 - 1, 2**64 - 1, 2**64 - 1, 2**64 - 1, 0xFFFF),
    ]


def test_flow_record_frames_are_the_recorded_bytes():
    records = _golden_records()
    assert dumps(records[0]).hex() == GOLDEN_RECORD
    assert dumps(records[2]).hex() == GOLDEN_RECORD_ALL_ONES
    table = FlowStateTable.from_state(
        timeout_us=15.0, records=records[:2], exported=records[2:], created=3, updated=5, expired=1
    )
    assert dumps(table).hex() == GOLDEN_FLOW_STATE
    lut = FlowLUT(CONFIG, flow_state=FlowStateTable())
    for record in _golden_records()[:2]:
        assert lut.restore_flow(record)
    lut.preload([bytes(range(13))])
    assert dump_flow_lut(lut).hex() == GOLDEN_FLOW_LUT
    # ... and the unchanged reader takes them back.
    assert loads(bytes.fromhex(GOLDEN_RECORD)) == records[0]
    assert [entry[1] for entry in loads(bytes.fromhex(GOLDEN_FLOW_LUT)).entries] == [
        lut.flow_state.get(flow_id) for flow_id, _ in lut.live_items()
    ]


def test_out_of_range_record_fields_are_refused_not_truncated():
    record = _golden_records()[0]
    record.tcp_flags = 0x1_0000
    with pytest.raises(struct.error):
        dumps(record)
    record.tcp_flags, record.packets = 0, -1
    with pytest.raises(struct.error):
        dumps(record)


# A node checkpoint whose entries mix the four kinds ``_write_entries`` meets:
# a 13-byte key with a record, a key with no record (preloaded), a key of
# another width, and all-ones field values.  Recorded when every entry was
# written field by field from ``FlowRecord`` s; entries with a record and a
# 13-byte key are now packed from the flow-state columns, record key included.
GOLDEN_NODE = (
    "524e4f4401000d0100008ab1626e06000000676f6c64656effffffffffffffff00050000000d000000000102"
    "030405060708090a0b0c0107000000000000000d0000000a000001c0a8010904d20050060300000000000000"
    "94110000000000000a00000000000000e70300000000000012000d0000001415161718191a1b1c1d1e1f2000"
    "030000000506070100000000000000000d000000000000000000000000000000000000000000000000000000"
    "00000000000000000000000000000000000000000000000d000000ffffffffffffffffffffffffff01ffffff"
    "ffffffffff0d000000ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
    "ffffffffffffffffffffffff02000000010200"
)


def _golden_node_entries():
    records = _golden_records()
    return [
        (bytes(range(13)), records[0]),
        (bytes(range(20, 33)), None),
        (b"\x05\x06\x07", records[1]),
        (b"\xff" * 13, records[2]),
        (b"\x01\x02", None),
    ]


def _golden_node_table():
    """A flow table's two reads the checkpoint writer makes — ``live_items``
    and a real flow-state table — holding :func:`_golden_node_entries`
    (flow IDs 1 and 2 have no record)."""
    records = _golden_records()
    state = FlowStateTable.from_state(timeout_us=15.0, records=records, exported=[])
    flow_ids = [records[0].flow_id, 1, records[1].flow_id, records[2].flow_id, 2]
    live = [(flow_id, key) for flow_id, (key, _) in zip(flow_ids, _golden_node_entries())]
    return SimpleNamespace(live_items=lambda: live, flow_state=state)


def test_node_checkpoint_frame_is_the_recorded_bytes():
    node = SimpleNamespace(
        node_id="golden", completed=2**64 - 1, pipeline=None,
        engine=SimpleNamespace(shards=[_golden_node_table()]),
    )
    assert dump_node_snapshot(node).hex() == GOLDEN_NODE
    snapshot = load_node_snapshot(bytes.fromhex(GOLDEN_NODE))
    assert (snapshot.node_id, snapshot.completed, snapshot.pipeline) == ("golden", 2**64 - 1, None)
    assert snapshot.flows == _golden_node_entries()
