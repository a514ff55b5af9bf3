"""Columnar hot path (repro.columns): blocks, vectorised hashing, equivalence.

Three layers of safety net around the columnar batch representation:

1. **Block round trips** — ``DescriptorBlock`` converts losslessly between
   the object and columnar representations, and its views (field columns,
   packed keys, ``take``) agree with the per-object accessors.
2. **Hashing equivalence** — the vectorised CRC-32 and H3 column hashers
   reproduce the scalar implementations bit for bit across seeds, key
   widths and output geometries, on both the numpy and stdlib backends.
3. **End-to-end equivalence** — the bulk probe (``FlowTable.process_block``)
   is checked against the cycle-accurate timed ``FlowLUT``, its oracle, on
   every registered scenario and both column backends; the engine and cluster
   tiers have one ingest body, so there the check is the entrance adapter:
   a descriptor sequence in equals a block in, on books, flow state,
   telemetry report and (canonicalised) top-k.

The stdlib fallback is exercised in-process by monkeypatching
``repro.columns.backend.np`` to ``None`` (CI additionally runs the whole
tier-1 suite under ``REPRO_NO_NUMPY=1``).
"""

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.columns import backend
from repro.columns import hashing as column_hashing
from repro.columns.block import ENGINE_KEY_WIDTH, DescriptorBlock, OutcomeBlock
from repro.columns.hashing import (
    H3ColumnHasher,
    column_hasher,
    crc32_column,
    crc32_partition,
    tabulation_column,
)
from repro.core.config import small_test_config
from repro.core.flow_lut import FlowLUT, FlowTable
from repro.core.flow_state import FlowStateTable
from repro.cluster import ClusterCoordinator
from repro.cluster.ring import HashRing
from repro.engine import ShardedFlowLUT
from repro.hashing.crc import CRC32, CRCHash
from repro.hashing.h3 import H3Hash
from repro.hashing.tabulation import TabulationHash
from repro.net.fivetuple import FlowKey
from repro.obs import MetricsRegistry
from repro.sim.rng import make_rng
from repro.telemetry import TelemetryConfig
from repro.telemetry.pipeline import TelemetryPipeline
from repro.traffic import list_scenarios, scenario_block, scenario_descriptors

CONFIG = small_test_config()


def _ample_telemetry(packets: int) -> TelemetryPipeline:
    """A pipeline sized so no summary structure ever evicts.

    Space-Saving top-k and the spreader tables are order-sensitive under
    eviction, and the timed path feeds outcomes in completion-time order
    where the bulk probe feeds row order; with ample capacity every view is
    exact and therefore order-independent.
    """
    return TelemetryPipeline(
        TelemetryConfig(
            heavy_hitter_capacity=8 * packets, spreader_sources=8 * packets
        ),
        seed=5,
    )


def _books(pipeline: TelemetryPipeline, packets: int):
    """The full heavy-hitter book as an order-canonical sorted list."""
    return sorted(
        (entry.count, entry.key, entry.error)
        for entry in pipeline.top_talkers(8 * packets)
    )


@pytest.fixture
def no_numpy(monkeypatch):
    """Force the stdlib-``array`` fallback for one test."""
    monkeypatch.setattr(backend, "np", None)


# --------------------------------------------------------------------------- #
# Block construction and round trips
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("scenario", ["zipf_mix", "syn_flood", "churn"])
@pytest.mark.parametrize("seed", [3, 23])
def test_block_object_round_trip(scenario, seed):
    descriptors = scenario_descriptors(scenario, 200, seed=seed)
    block = DescriptorBlock.from_descriptors(descriptors)
    assert len(block) == 200
    assert DescriptorBlock.from_descriptors(block.to_descriptors()) == block
    back = block.to_descriptors()
    assert back == descriptors


def test_scenario_block_matches_descriptors_on_every_scenario():
    for name in list_scenarios():
        block = scenario_block(name, 150, seed=23)
        reference = DescriptorBlock.from_descriptors(
            scenario_descriptors(name, 150, seed=23)
        )
        assert block == reference, name


def test_block_field_columns_match_flow_keys():
    block = scenario_block("uniform_random", 100, seed=9)
    keys = block.flow_keys()
    assert block.src_ips() == [key.src_ip for key in keys]
    assert block.dst_ips() == [key.dst_ip for key in keys]
    assert block.src_ports() == [key.src_port for key in keys]
    assert block.dst_ports() == [key.dst_port for key in keys]
    assert block.protocols() == [key.protocol for key in keys]
    assert block.packed_keys() == [key.pack() for key in keys]


def test_block_take_reorders_every_column():
    block = scenario_block("zipf_mix", 60, seed=1)
    indices = list(range(59, -1, -2))
    sub = block.take(indices)
    reference = DescriptorBlock.from_descriptors(
        [block.to_descriptors()[i] for i in indices]
    )
    assert sub == reference


def test_block_validates_column_lengths():
    block = scenario_block("zipf_mix", 10, seed=1)
    with pytest.raises(ValueError):
        DescriptorBlock(block.key_data, block.lengths[:5], block.timestamps, block.flags)
    with pytest.raises(ValueError):
        DescriptorBlock(block.key_data[:-1], block.lengths, block.timestamps, block.flags)


def test_outcome_block_merge_scatter_round_trip():
    engine = ShardedFlowLUT(shards=4, config=CONFIG)
    block = scenario_block("zipf_mix", 120, seed=7)
    merged = engine.process_batch(block)
    assert isinstance(merged, OutcomeBlock)
    assert len(merged) == len(block)
    outcomes = merged.to_outcomes()
    assert [outcome.descriptor for outcome in outcomes] == block.to_descriptors()
    assert sum(outcome.hit for outcome in outcomes) == engine.hits
    assert sum(outcome.new_flow for outcome in outcomes) == engine.new_flows


# --------------------------------------------------------------------------- #
# Vectorised hashing vs the scalar implementations
# --------------------------------------------------------------------------- #


def _random_column(rng, count, width):
    return bytes(rng.getrandbits(8) for _ in range(count * width))


@pytest.mark.parametrize("width", [4, 13, 16])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_crc32_column_matches_scalar(width, seed):
    rng = make_rng(seed)
    count = 257
    data = _random_column(rng, count, width)
    column = crc32_column(data, count, width)
    expected = [CRC32.hash(data[i * width : (i + 1) * width]) for i in range(count)]
    assert [int(value) for value in column] == expected


@pytest.mark.parametrize("count", [0, 1, 2, 25])
@pytest.mark.parametrize("width", [1, 13])
def test_crc32_column_matches_scalar_for_any_reflected_crc(each_backend, count, width):
    # The numpy column is built from per-position tables of the scalar
    # function (a CRC is affine in its message), so a non-IEEE polynomial
    # with a non-zero initial value and final XOR must agree too, down to
    # empty and one-row columns.
    crc = CRCHash(0x82F63B78, 32, initial=0x12345678, final_xor=0xABCDEF01, reflected=True)
    data = _random_column(make_rng(count * 31 + width), count, width)
    expected = [crc.hash(data[i * width : (i + 1) * width]) for i in range(count)]
    for label, context in each_backend():
        with context:
            column = crc32_column(data, count, width, crc)
            assert [int(value) for value in column] == expected, label


@pytest.mark.parametrize("output_bits", [10, 17, 32])
@pytest.mark.parametrize("seed", [11, 12, 13])
def test_h3_column_matches_scalar(output_bits, seed):
    width = ENGINE_KEY_WIDTH
    h3 = H3Hash(key_bits=8 * width, output_bits=output_bits, seed=seed)
    hasher = H3ColumnHasher(h3, width)
    rng = make_rng(seed + 100)
    count = 129
    data = _random_column(rng, count, width)
    column = hasher.hash_column(data, count)
    expected = [h3.hash(data[i * width : (i + 1) * width]) for i in range(count)]
    assert [int(value) for value in column] == expected


def test_h3_column_rejects_too_wide_keys():
    h3 = H3Hash(key_bits=16, output_bits=8, seed=0)
    with pytest.raises(ValueError):
        H3ColumnHasher(h3, width=3)


def test_h3_tables_built_by_doubling_match_the_definition():
    """``T[p][b]`` is the XOR of the matrix rows the set bits of ``b`` select."""
    h3 = H3Hash(key_bits=24, output_bits=32, seed=3)
    rows = h3.matrix
    for position, table in enumerate(H3ColumnHasher(h3, 3)._tables):
        for byte in range(256):
            expected = 0
            for bit in range(8):
                if byte >> bit & 1:
                    expected ^= rows[8 * position + bit]
            assert table[byte] == expected


def test_column_hasher_is_shared_per_function_and_width():
    width = ENGINE_KEY_WIDTH
    first = column_hasher(H3Hash(8 * width, 32, seed=41), width)
    assert column_hasher(H3Hash(8 * width, 32, seed=41), width) is first
    assert column_hasher(H3Hash(8 * width, 32, seed=42), width) is not first
    assert column_hasher(H3Hash(8 * width, 32, seed=41), width - 1) is not first
    assert column_hasher(H3Hash(8 * width, 17, seed=41), width) is not first
    with pytest.raises(ValueError):
        column_hasher(H3Hash(16, 8, seed=0), 3)
    # Two tables on one config seed probe through one compiled pair.
    one, other = FlowTable(CONFIG).table, FlowTable(CONFIG).table
    block = scenario_block("zipf_mix", 64, seed=5)
    before = len(column_hashing._HASHER_CACHE)
    one.column_hash_indices(block.key_data, len(block), block.key_width)
    after = len(column_hashing._HASHER_CACHE)
    other.column_hash_indices(block.key_data, len(block), block.key_width)
    assert len(column_hashing._HASHER_CACHE) == after <= before + 2


def test_column_hasher_memo_is_bounded_and_safe_under_threads():
    """More workers than cores, more functions than the memo holds, a short
    switch interval: every hand-out still hashes like its scalar function
    and the memo never outgrows its bound."""
    width = 4
    seeds = range(column_hashing._HASHER_CACHE_MAX + 16)
    data = _random_column(make_rng(1), 8, width)
    expected = {
        seed: [H3Hash(32, 32, seed=seed).hash(data[i * width : (i + 1) * width]) for i in range(8)]
        for seed in seeds
    }
    wrong = []

    def worker(offset):
        for step in range(2 * len(seeds)):
            seed = seeds[(offset + step) % len(seeds)]
            column = column_hasher(H3Hash(32, 32, seed=seed), width).hash_column(data, 8)
            if [int(value) for value in column] != expected[seed]:
                wrong.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(7 * n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert len(column_hashing._HASHER_CACHE) <= column_hashing._HASHER_CACHE_MAX


@settings(max_examples=40, deadline=None)
@given(
    key_bytes=st.sampled_from([1, 4, 6, 8, 9]),
    output_bits=st.sampled_from([9, 32, 64]),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_tabulation_column_matches_scalar(each_backend, key_bytes, output_bits, seed, data):
    tab = TabulationHash(key_bytes, output_bits, seed=seed)
    top = (1 << (8 * key_bytes)) - 1
    values = data.draw(st.lists(st.integers(0, top) | st.sampled_from([0, top]), max_size=40))
    expected = [tab.hash(value) for value in values]
    for label, context in each_backend():
        with context:
            assert [int(h) for h in tabulation_column(tab, values)] == expected, label
            with pytest.raises(OverflowError):  # as int.to_bytes in the scalar hash
                tabulation_column(tab, values + [top + 1])


@pytest.mark.parametrize("scenario", ["zipf_mix", "uniform_random"])
def test_packed_key_data_is_the_pack_order_column(each_backend, scenario):
    block = scenario_block(scenario, 90, seed=8)
    expected = [key.pack() for key in block.flow_keys()]
    for label, context in each_backend():
        with context:
            assert block.packed_key_data() == b"".join(expected), label
            assert block.packed_keys() == expected, label
    empty = block.slice_rows(0, 0)
    assert empty.packed_key_data() == b"" and empty.packed_keys() == []


def test_crc32_partition_matches_shard_of():
    for shards in (1, 3, 4, 8):
        engine = ShardedFlowLUT(shards=shards, config=CONFIG)
        block = scenario_block("uniform_random", 200, seed=3)
        groups = crc32_partition(block.key_data, len(block), block.key_width, shards)
        keys = block.keys()
        seen = []
        for shard, indices in enumerate(groups):
            for index in indices:
                assert engine.shard_of(keys[index]) == shard
                seen.append(int(index))
        assert sorted(seen) == list(range(len(block)))


def test_table_column_hash_indices_match_scalar():
    lut = FlowTable(CONFIG)
    block = scenario_block("zipf_mix", 150, seed=5)
    idx1_col, idx2_col = lut.table.column_hash_indices(
        block.key_data, len(block), block.key_width
    )
    for i, key in enumerate(block.keys()):
        assert (int(idx1_col[i]), int(idx2_col[i])) == lut.table.hash_indices(key)


def test_ring_lookup_column_matches_scalar():
    ring = HashRing()
    for node in ("alpha", "beta", "gamma", "delta"):
        ring.add_node(node)
    block = scenario_block("uniform_random", 300, seed=4)
    owners = ring.lookup_column(block.key_data, len(block), block.key_width)
    assert owners == [ring.lookup(key) for key in block.keys()]


# --------------------------------------------------------------------------- #
# End-to-end equivalence: bulk probe == timed oracle; sequence in == block in
# --------------------------------------------------------------------------- #


def _flow_state(luts):
    return {
        record.key: (record.packets, record.bytes, record.first_seen_ps, record.last_seen_ps)
        for lut in luts
        for record in lut.flow_state
    }


def _telemetry_view(pipeline: TelemetryPipeline, packets: int):
    return pipeline.report(), _books(pipeline, packets), pipeline.superspreaders()


def _table_contents(table):
    """The CAM's entries and every bucket of both memories, in stored order."""
    return sorted(table.cam), [
        {bucket: [(entry.key, entry.flow_id) for entry in entries]
         for bucket, entries in memory.items()}
        for memory in table._memories
    ]


def test_flow_lut_process_block_matches_timed_path(monkeypatch):
    """The two-object oracle: on every registered scenario and both column
    backends, a functional ``FlowTable``'s bulk probe leaves the same
    totals, flow state, telemetry, CAM and bucket contents and live-key map
    as the cycle-accurate ``FlowLUT``'s submit/drain loop."""
    packets = 300
    for name in list_scenarios():
        descriptors = scenario_descriptors(name, packets, seed=17)
        timed = FlowLUT(CONFIG, flow_state=FlowStateTable(timeout_us=CONFIG.flow_timeout_us))
        for descriptor in descriptors:
            timed.submit_blocking(descriptor)
        timed.drain()
        tele_timed = _ample_telemetry(packets)
        tele_timed.observe_outcomes(timed.results)

        for stdlib in (False, True):
            with monkeypatch.context() as patch:
                if stdlib:
                    patch.setattr(backend, "np", None)
                elif backend.np is None:
                    continue  # numpy-less environment: the stdlib leg covers it
                bulk = FlowTable(
                    CONFIG, flow_state=FlowStateTable(timeout_us=CONFIG.flow_timeout_us)
                )
                outcome = bulk.process_block(DescriptorBlock.from_descriptors(descriptors))
                tele_bulk = _ample_telemetry(packets)
                tele_bulk.observe_outcomes(outcome)
            where = (name, "stdlib" if stdlib else "numpy")
            assert len(outcome) == packets, where
            assert (bulk.completed, bulk.hits, bulk.misses, bulk.new_flows) == (
                timed.completed, timed.hits, timed.misses, timed.new_flows
            ), where
            assert bulk.insert_failures == timed.insert_failures, where
            assert _flow_state([bulk]) == _flow_state([timed]), where
            assert _table_contents(bulk.table) == _table_contents(timed.table), where
            assert bulk.live_items() == timed.live_items(), where
            assert _telemetry_view(tele_bulk, packets) == _telemetry_view(
                tele_timed, packets
            ), where


def _drive_sharded(feed, packets, batch=100):
    telemetry = _ample_telemetry(packets)
    engine = ShardedFlowLUT(shards=4, config=CONFIG, on_batch=telemetry.observe_outcomes)
    engine.attach_flow_state()
    outcomes = []
    for offset in range(0, packets, batch):
        if isinstance(feed, DescriptorBlock):
            outcomes.extend(engine.process_batch(feed.slice_rows(offset, offset + batch)).to_outcomes())
        else:
            outcomes.extend(engine.process_batch(feed[offset : offset + batch]))
    return engine, telemetry, outcomes


def _assert_sharded_adapter_round_trip(name, packets):
    """Sequence in == block in: same outcomes, books, flow state, telemetry."""
    seq, tele_seq, out_seq = _drive_sharded(scenario_descriptors(name, packets, seed=23), packets)
    col, tele_col, out_col = _drive_sharded(scenario_block(name, packets, seed=23), packets)
    assert out_seq == out_col, name
    assert seq.report() == col.report(), name
    assert _flow_state(seq.shards) == _flow_state(col.shards), name
    assert _telemetry_view(tele_seq, packets) == _telemetry_view(tele_col, packets), name


def test_sharded_columnar_matches_object_path_on_every_scenario():
    for name in list_scenarios():
        _assert_sharded_adapter_round_trip(name, 300)


@pytest.mark.parametrize("replication", [1, 2])
def test_cluster_block_ingest_matches_object_path(replication):
    """Adapter round trip at the cluster entrance: a descriptor sequence is
    packed once and then is the block."""
    packets = 300
    tele = TelemetryConfig(
        heavy_hitter_capacity=8 * packets, spreader_sources=8 * packets
    )
    results = {}
    for label, feed in (
        ("object", scenario_descriptors("node_failover", packets, seed=23)),
        ("block", scenario_block("node_failover", packets, seed=23)),
    ):
        coordinator = ClusterCoordinator(
            nodes=3, config=CONFIG, telemetry_config=tele, telemetry_seed=5,
            batch_size=64, replication=replication,
        )
        summary = coordinator.ingest(feed)
        assert summary["packets"] == packets
        results[label] = coordinator
    obj, col = results["object"], results["block"]
    assert col.cluster_totals() == obj.cluster_totals()
    assert col.flow_books() == obj.flow_books()
    assert col.flow_books()["balanced"]
    assert col.routed == obj.routed
    host_clock = ("parallel",)  # wall-clock section, differs run to run
    assert {k: v for k, v in col.report().items() if k not in host_clock} == {
        k: v for k, v in obj.report().items() if k not in host_clock
    }
    assert _flow_state(
        shard for node in col.nodes.values() for shard in node.engine.shards
    ) == _flow_state(
        shard for node in obj.nodes.values() for shard in node.engine.shards
    )
    assert _telemetry_view(col.merged_telemetry(), packets) == _telemetry_view(
        obj.merged_telemetry(), packets
    )


def test_cluster_block_ingest_on_every_scenario():
    packets = 200
    for name in list_scenarios():
        obj_c = ClusterCoordinator(nodes=3, config=CONFIG, telemetry=False, batch_size=50)
        col_c = ClusterCoordinator(nodes=3, config=CONFIG, telemetry=False, batch_size=50)
        obj_c.ingest(scenario_descriptors(name, packets, seed=23))
        col_c.ingest(scenario_block(name, packets, seed=23))
        assert col_c.cluster_totals() == obj_c.cluster_totals(), name
        assert col_c.flow_books() == obj_c.flow_books(), name


# --------------------------------------------------------------------------- #
# Stdlib fallback (no numpy)
# --------------------------------------------------------------------------- #


def test_fallback_block_round_trip(no_numpy):
    descriptors = scenario_descriptors("zipf_mix", 120, seed=3)
    block = DescriptorBlock.from_descriptors(descriptors)
    assert block.to_descriptors() == descriptors
    assert DescriptorBlock.from_descriptors(block.to_descriptors()) == block


def test_fallback_hashing_matches_scalar(no_numpy):
    rng = make_rng(7)
    width = ENGINE_KEY_WIDTH
    count = 100
    data = _random_column(rng, count, width)
    assert list(crc32_column(data, count, width)) == [
        CRC32.hash(data[i * width : (i + 1) * width]) for i in range(count)
    ]
    h3 = H3Hash(key_bits=8 * width, output_bits=17, seed=7)
    hasher = H3ColumnHasher(h3, width)
    assert list(hasher.hash_column(data, count)) == [
        h3.hash(data[i * width : (i + 1) * width]) for i in range(count)
    ]


def test_fallback_backend_blocks_interoperate_with_numpy_blocks():
    if backend.np is None:
        pytest.skip("numpy backend unavailable")
    descriptors = scenario_descriptors("churn", 80, seed=3)
    numpy_block = DescriptorBlock.from_descriptors(descriptors)
    saved = backend.np
    try:
        backend.np = None
        stdlib_block = DescriptorBlock.from_descriptors(descriptors)
        assert stdlib_block == numpy_block
        assert numpy_block == stdlib_block
    finally:
        backend.np = saved


def test_fallback_sharded_columnar_matches_object_path(no_numpy):
    _assert_sharded_adapter_round_trip("zipf_mix", 200)


# --------------------------------------------------------------------------- #
# Observability of the columnar stages
# --------------------------------------------------------------------------- #


def test_columnar_batches_record_stage_timings():
    obs = MetricsRegistry()
    engine = ShardedFlowLUT(shards=4, config=CONFIG, obs=obs)
    block = scenario_block("zipf_mix", 256, seed=17)
    for offset in range(0, 256, 64):
        engine.process_batch(block.take(range(offset, offset + 64)))
    histogram = obs.histogram(
        "repro_engine_stage_ns",
        "Host-side duration of each batch stage (hash/steer/probe/pack/telemetry)",
        labels=("stage",),
    )
    samples = {labels["stage"]: child.count for labels, child in histogram.samples()}
    assert (
        samples["hash"] == samples["steer"] == samples["probe"] == samples["pack"]
        == engine.batches == 4
    )
    assert set(samples) == {"hash", "steer", "probe", "pack", "telemetry"}
    assert samples["telemetry"] == 0  # no on_batch consumer attached
    shard_counter = obs.counter(
        "repro_engine_shard_descriptors_total",
        "Descriptors ingested per shard",
        labels=("shard",),
    )
    total = sum(value for _, value in shard_counter.samples())
    assert total == 256


def test_columnar_obs_instrumentation_changes_nothing():
    block = scenario_block("zipf_mix", 300, seed=17)

    def drive(obs):
        engine = ShardedFlowLUT(shards=4, config=CONFIG, obs=obs)
        for offset in range(0, 300, 100):
            engine.process_batch(block.take(range(offset, min(offset + 100, 300))))
        return engine

    plain = drive(None)
    metered = drive(MetricsRegistry())
    assert (metered.completed, metered.hits, metered.misses, metered.new_flows) == (
        plain.completed, plain.hits, plain.misses, plain.new_flows
    )
    assert metered.elapsed_ps == plain.elapsed_ps
    assert metered.shard_completed == plain.shard_completed
