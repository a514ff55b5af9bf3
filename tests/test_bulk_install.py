"""Differential test of the one install body against the per-key loop it replaced.

``FlowTable.install`` hashes the keys as one column and probes/places them
in order; before it, ``preload`` / ``restore_flow`` / the snapshot restore
each ran ``HashCamTable.insert`` once per key.  That per-key code is kept
here as the reference (``reference_preload``, ``reference_restore_flow``,
``reference_install_entries``; verbatim but for the writes to the table's
old live-key dict, whose part the key index ``insert`` keeps now plays),
and random call
sequences — duplicate keys within one call, keys already present (fold),
bare ``None`` records, CAM overflow, a full table refusing inserts, keys of
several widths in one call — must leave a bulk-installed table and a
reference table identical: CAM contents, both memories' buckets in stored
order, live keys, flow-state records, return values and counters, on both
column backends.  Every flow ID and bucket index the bulk body stores must
be a Python ``int`` (the timed path reads them per event).

Extraction (``FlowTable.extract_flows``) is held to the per-record
``detach`` + ``delete_flow`` loop the cluster node ran before it.
"""

from hypothesis import given, settings, strategies as st

from repro.core.config import small_test_config
from repro.core.flow_lut import FlowTable
from repro.core.flow_state import FlowRecord, FlowStateTable
from repro.engine.sharded import ShardedFlowLUT
from repro.net.fivetuple import FlowKey
from repro.net.parser import PacketDescriptor

FLOW_KEYS = [
    FlowKey(src_ip=0x0A000000 + i * 7919, dst_ip=0xC0A80000 + i, src_port=2000 + i,
            dst_port=443, protocol=6)
    for i in range(16)
]
# Engine keys of four widths: 13-byte 5-tuples, 4-byte keys, 14-byte keys
# (wider than the 104 key bits, hashed per key — a leading zero byte keeps
# their value in range) and the empty key.
KEY_POOL = (
    [key.pack() for key in FLOW_KEYS]
    + [bytes([i, 0x5A, i * 3 % 256, 0xC3]) for i in range(8)]
    + [b"\x00" + bytes([i] * 13) for i in range(1, 5)]
    + [b""]
)
SHAPES = [(8, 2, 2), (12, 3, 1), (16, 2, 4), (65_536, 2, 32)]
SETTINGS = settings(max_examples=60, deadline=None)

picks = st.integers(0, len(KEY_POOL) - 1)
record_specs = st.one_of(
    st.none(), st.tuples(st.integers(1, 50), st.integers(0, 10**6), st.integers(0, 0x3F))
)
calls = st.lists(
    st.one_of(
        st.tuples(st.just("preload"), st.lists(picks, max_size=12)),
        st.tuples(st.just("restore"), picks, record_specs.filter(lambda spec: spec is not None)),
        st.tuples(st.just("install"), st.lists(st.tuples(picks, record_specs), max_size=12)),
    ),
    min_size=1,
    max_size=6,
)


# --------------------------------------------------------------------------- #
# The per-key install loop from before the bulk body
# --------------------------------------------------------------------------- #


def reference_preload(self, keys) -> int:
    inserted = 0
    for key in keys:
        key_bytes = key.key_bytes if isinstance(key, PacketDescriptor) else key
        result = self.table.insert(key_bytes)
        if result.inserted:
            inserted += 1
    return inserted


def reference_restore_flow(self, record, key_bytes=None) -> bool:
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
        if self.flow_state is not None:
            self.flow_state.adopt(result.flow_id, record)
    return True


def reference_install_entries(entries, restore_flow, preload) -> int:
    installed = 0
    for key_bytes, record in entries:
        if record is None:
            installed += preload([key_bytes])
        elif restore_flow(record, key_bytes):
            installed += 1
    return installed


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #


def make_record(pick, spec):
    if spec is None:
        return None
    packets, seen_ps, flags = spec
    return FlowRecord(
        flow_id=0, key=FLOW_KEYS[pick % len(FLOW_KEYS)], packets=packets, bytes=64 * packets,
        first_seen_ps=seen_ps, last_seen_ps=seen_ps + packets, tcp_flags=flags,
    )


def make_table(shape, flow_state):
    num_flows, bucket_entries, cam_entries = shape
    config = small_test_config(
        num_flows=num_flows, bucket_entries=bucket_entries, cam_entries=cam_entries
    )
    return FlowTable(config, flow_state=FlowStateTable() if flow_state else None)


def observable(lut):
    table = lut.table
    state = lut.flow_state
    return {
        "cam": list(table.cam),
        "memories": [
            [(bucket, [(entry.key, entry.flow_id) for entry in entries])
             for bucket, entries in memory.items()]
            for memory in table._memories
        ],
        "occupancy": list(table._occupancy),
        "live_keys": list(table._index.items()),
        "records": None if state is None else [
            (r.flow_id, r.key, r.packets, r.bytes, r.first_seen_ps, r.last_seen_ps, r.tcp_flags)
            for r in state
        ],
        "state_books": None if state is None else (state.created, state.adopted, state.folded),
        "counters": (
            table.lookups, dict(table.stage_hits), table.insert_failures, lut.insert_failures,
            table.cam.searches, table.cam.hits, table.cam.insertions, table.cam.overflows,
        ),
    }


def assert_python_ints(lut):
    table = lut.table
    for key, value in table.cam:
        assert type(value) is int, (key, type(value))
    for memory in table._memories:
        for bucket, entries in memory.items():
            assert type(bucket) is int
            for entry in entries:
                assert type(entry.flow_id) is int
    for flow_id in table._index.values():
        assert type(flow_id) is int
    if lut.flow_state is not None:
        for record in lut.flow_state:
            assert type(record.flow_id) is int


def run_bulk(lut, call):
    kind = call[0]
    if kind == "preload":
        return lut.preload([KEY_POOL[pick] for pick in call[1]])
    if kind == "restore":
        _, pick, spec = call
        return lut.restore_flow(make_record(pick, spec), KEY_POOL[pick])
    pairs = [(KEY_POOL[pick], make_record(pick, spec)) for pick, spec in call[1]]
    return list(lut.install(pairs))


def run_reference(lut, call):
    kind = call[0]
    if kind == "preload":
        return reference_preload(lut, [KEY_POOL[pick] for pick in call[1]])
    if kind == "restore":
        _, pick, spec = call
        return reference_restore_flow(lut, make_record(pick, spec), KEY_POOL[pick])
    flags = []
    for pick, spec in call[1]:
        record = make_record(pick, spec)
        if record is None:
            flags.append(reference_preload(lut, [KEY_POOL[pick]]))
        else:
            flags.append(int(reference_restore_flow(lut, record, KEY_POOL[pick])))
    return flags


# --------------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------------- #


@SETTINGS
@given(shape=st.sampled_from(SHAPES), flow_state=st.booleans(), sequence=calls)
def test_the_bulk_body_matches_the_per_key_loop(each_backend, shape, flow_state, sequence):
    for _, context in each_backend():
        with context:
            bulk = make_table(shape, flow_state)
            reference = make_table(shape, flow_state)
            for call in sequence:
                assert run_bulk(bulk, call) == run_reference(reference, call), call
                assert observable(bulk) == observable(reference), call
                assert_python_ints(bulk)


@SETTINGS
@given(
    shape=st.sampled_from(SHAPES),
    entries=st.lists(st.tuples(picks, record_specs), max_size=24),
)
def test_a_snapshot_install_counts_like_the_per_entry_replay(each_backend, shape, entries):
    for _, context in each_backend():
        with context:
            bulk = make_table(shape, True)
            reference = make_table(shape, True)
            installed = bulk.install(
                [(KEY_POOL[pick], make_record(pick, spec)) for pick, spec in entries]
            ).count(1)
            expected = reference_install_entries(
                [(KEY_POOL[pick], make_record(pick, spec)) for pick, spec in entries],
                lambda record, key_bytes: reference_restore_flow(reference, record, key_bytes),
                lambda keys: reference_preload(reference, keys),
            )
            assert installed == expected
            assert observable(bulk) == observable(reference)


@SETTINGS
@given(
    shards=st.integers(1, 4),
    entries=st.lists(st.tuples(picks, record_specs), max_size=24),
)
def test_the_sharded_install_matches_per_key_routing(each_backend, shards, entries):
    """``ShardedFlowLUT.install`` (one CRC column, one hash column, rows
    grouped per shard) against routing each pair through ``shard_of``."""
    config = small_test_config(num_flows=16, bucket_entries=2, cam_entries=2)
    for _, context in each_backend():
        with context:
            bulk = ShardedFlowLUT(shards=shards, config=config)
            reference = ShardedFlowLUT(shards=shards, config=config)
            bulk.attach_flow_state()
            reference.attach_flow_state()
            flags = bulk.install(
                [(KEY_POOL[pick], make_record(pick, spec)) for pick, spec in entries]
            )
            expected = []
            for pick, spec in entries:
                key_bytes = KEY_POOL[pick]
                shard = reference.shards[reference.shard_of(key_bytes)]
                record = make_record(pick, spec)
                if record is None:
                    expected.append(reference_preload(shard, [key_bytes]))
                else:
                    expected.append(int(reference_restore_flow(shard, record, key_bytes)))
            assert list(flags) == expected
            for got, want in zip(bulk.shards, reference.shards):
                assert observable(got) == observable(want)
                assert_python_ints(got)


@SETTINGS
@given(
    shape=st.sampled_from(SHAPES),
    entries=st.lists(st.tuples(picks, record_specs), max_size=24),
    chosen=st.sets(picks),
)
def test_extraction_matches_detach_and_delete_per_record(each_backend, shape, entries, chosen):
    for _, context in each_backend():
        with context:
            bulk = make_table(shape, True)
            reference = make_table(shape, True)
            for lut in (bulk, reference):
                lut.install(
                    [(KEY_POOL[pick], make_record(pick, spec)) for pick, spec in entries]
                )
            picked = {KEY_POOL[pick] for pick in chosen}
            moved = bulk.extract_flows(lambda keys: [key in picked for key in keys])

            victims = []
            for record in reference.flow_state:
                key_bytes = reference.live_key(record.flow_id)
                if key_bytes is not None and key_bytes in picked:
                    victims.append((key_bytes, record))
            for key_bytes, record in victims:
                reference.flow_state.detach(record.flow_id)
                reference.delete_flow(key_bytes)

            assert [(key, record.flow_id) for key, record in moved] == [
                (key, record.flow_id) for key, record in victims
            ]
            assert observable(bulk) == observable(reference)
            if moved.pairs:
                index1s, index2s, family = moved.indices
                assert family == bulk.table.index_family
                assert list(zip(index1s, index2s)) == [
                    bulk.table.hash_indices(key) for key, _ in moved
                ]
