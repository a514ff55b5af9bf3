"""Tests for the functional Hash-CAM table (paper Figure 1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import small_test_config
from repro.core.hash_cam import HashCamTable, LookupStage


def make_table(**overrides):
    return HashCamTable(small_test_config(**overrides))


def keys(count, start=0):
    return [i.to_bytes(13, "big") for i in range(start, start + count)]


def test_lookup_on_empty_table_misses():
    table = make_table()
    result = table.lookup(b"\x01" * 13)
    assert not result.found
    assert result.stage is LookupStage.MISS


def test_insert_then_lookup_finds_entry_with_location_id():
    table = make_table()
    key = b"\x07" * 13
    insert = table.insert(key)
    assert insert.inserted
    assert insert.stage in (LookupStage.MEM1, LookupStage.MEM2)
    found = table.lookup(key)
    assert found.found
    assert found.flow_id == insert.flow_id
    assert found.memory == insert.memory
    assert found.bucket == insert.bucket


def test_insert_is_idempotent():
    table = make_table()
    key = b"\x09" * 13
    first = table.insert(key)
    second = table.insert(key)
    assert second.already_present
    assert second.flow_id == first.flow_id
    assert len(table) == 1


def test_insert_prefers_home_memory():
    table = make_table()
    for key in keys(200):
        result = table.insert(key)
        if result.stage in (LookupStage.MEM1, LookupStage.MEM2):
            assert result.memory == table.home_memory(key)


def test_entries_spread_over_both_memories():
    table = make_table()
    for key in keys(1000):
        table.insert(key)
    mem1, mem2 = table.memory_occupancy
    assert mem1 > 300 and mem2 > 300
    assert mem1 + mem2 + table.cam.occupancy == len(table) == 1000


def test_bucket_overflow_goes_to_other_memory_then_cam():
    # Tiny table: 8 entries total across both memories (2 buckets of 2 each).
    table = HashCamTable(small_test_config(num_flows=8, cam_entries=4))
    inserted_stages = [table.insert(key).stage for key in keys(12)]
    assert LookupStage.CAM in inserted_stages
    assert table.cam.occupancy > 0
    # Everything inserted is still findable.
    for key in keys(12):
        result = table.lookup(key)
        if result.found:
            assert result.stage in (LookupStage.CAM, LookupStage.MEM1, LookupStage.MEM2)


def test_insert_failure_when_everything_full():
    table = HashCamTable(small_test_config(num_flows=4, cam_entries=1))
    results = [table.insert(key) for key in keys(30)]
    assert any(not result.inserted and not result.already_present for result in results)
    assert table.insert_failures > 0


def test_delete_removes_from_memory_and_cam():
    table = make_table()
    sample = keys(50)
    for key in sample:
        table.insert(key)
    for key in sample:
        assert table.delete(key)
        assert not table.lookup(key).found
    assert len(table) == 0
    assert not table.delete(b"\xff" * 13)


def test_preferred_memory_override():
    table = make_table()
    key = b"\x42" * 13
    result = table.insert(key, preferred_memory=1)
    assert result.memory == 1
    with pytest.raises(ValueError):
        table.insert(b"\x43" * 13, preferred_memory=2)


def test_bad_preferred_memory_fails_before_any_counter_moves(count_hash_calls):
    table = make_table()
    present = b"\x42" * 13
    table.insert(present)
    before = table.stats(), table.cam.stats()
    hashed = count_hash_calls(table)
    for key in (present, b"\x43" * 13):  # a present key used to slip through unchecked
        with pytest.raises(ValueError, match="preferred_memory"):
            table.insert(key, preferred_memory=2)
    assert (table.stats(), table.cam.stats()) == before
    assert hashed == []


def test_explicit_indices_override_hashing():
    table = make_table()
    key = b"\x55" * 13
    insert = table.insert(key, indices=(3, 7))
    assert insert.bucket in (3, 7)
    assert table.lookup(key, indices=(3, 7)).found
    entries = table.bucket_entries_at(insert.memory, insert.bucket)
    assert any(entry.key == key for entry in entries)


def test_explicit_flow_id_is_respected():
    table = make_table()
    result = table.insert(b"\x66" * 13, flow_id=123456)
    assert result.flow_id == 123456
    assert table.lookup(b"\x66" * 13).flow_id == 123456


def test_location_flow_ids_are_unique():
    table = make_table()
    seen = set()
    for key in keys(500):
        result = table.insert(key)
        if result.inserted:
            assert result.flow_id not in seen
            seen.add(result.flow_id)


def test_location_flow_id_bounds_and_cam_base():
    table = make_table()
    assert table.cam_id_base == 2 * table.buckets_per_memory * table.bucket_entries
    with pytest.raises(ValueError):
        table.location_flow_id(2, 0, 0)
    with pytest.raises(ValueError):
        table.location_flow_id(0, table.buckets_per_memory, 0)
    with pytest.raises(ValueError):
        table.location_flow_id(0, 0, table.bucket_entries)


def test_cam_hit_is_reported_as_cam_stage():
    table = HashCamTable(small_test_config(num_flows=4, cam_entries=8))
    stages = {}
    for key in keys(10):
        result = table.insert(key)
        if result.inserted:
            stages[key] = result.stage
    cam_keys = [key for key, stage in stages.items() if stage is LookupStage.CAM]
    assert cam_keys, "expected some CAM-resident entries in this tiny table"
    for key in cam_keys:
        assert table.lookup(key).stage is LookupStage.CAM


def test_stats_and_stage_hit_accounting():
    table = make_table()
    for key in keys(20):
        table.insert(key)
    for key in keys(20):
        table.lookup(key)
    table.lookup(b"\xee" * 13)
    stats = table.stats()
    assert stats["entries"] == 20
    assert stats["stage_hits"]["miss"] >= 1
    assert stats["load_factor"] == pytest.approx(20 / table.capacity)
    assert 0 < stats["load_factor"] < 1


def test_each_table_operation_hashes_its_key_once(count_hash_calls):
    table = make_table()
    calls = count_hash_calls(table)
    key = b"\x21" * 13
    assert table.insert(key).inserted  # new key: the lookup inside reuses the indices
    assert len(calls) == 1
    assert table.insert(key).already_present
    assert len(calls) == 2
    indices = table.hash_indices(key)
    assert table.lookup(key, indices=indices).found
    assert table.delete(key, indices=indices)
    assert not table.delete(key, indices=indices)
    assert len(calls) == 3
    assert table.delete(key) is False and len(calls) == 4


def test_scripted_sequence_keeps_the_lookup_and_stage_counters():
    """``insert`` still goes through ``lookup``: the counters of one scripted
    insert / re-insert / lookup / delete history are the literal values the
    hash-twice-per-insert table produced."""
    table = HashCamTable(small_test_config(num_flows=16, cam_entries=3))
    for key in keys(24):
        table.insert(key)
    for key in keys(6, start=3):
        table.insert(key)
    for key in keys(30):
        table.lookup(key)
    deleted = sum(table.delete(key) for key in keys(10, start=5))
    for key in keys(12, start=20):
        table.insert(key)
    stats = table.stats()
    assert deleted == 10
    assert stats["lookups"] == 72
    assert stats["stage_hits"] == {"cam": 3, "mem1": 10, "mem2": 12, "miss": 47}
    assert stats["insert_failures"] == 7
    assert (stats["mem1_entries"], stats["mem2_entries"], stats["cam_entries"]) == (8, 8, 3)


def test_contains_protocol():
    table = make_table()
    key = b"\x11" * 13
    assert key not in table
    table.insert(key)
    assert key in table


@settings(max_examples=30, deadline=None)
@given(st.sets(st.binary(min_size=13, max_size=13), min_size=1, max_size=200))
def test_every_inserted_key_is_found_and_ids_unique(key_set):
    """Property: as long as insertion succeeds, lookup finds the key, IDs are
    unique, and deleting removes exactly that key."""
    table = HashCamTable(small_test_config(num_flows=4096, cam_entries=64))
    inserted = {}
    for key in key_set:
        result = table.insert(key)
        if result.inserted:
            inserted[key] = result.flow_id
    assert len(set(inserted.values())) == len(inserted)
    for key, flow_id in inserted.items():
        found = table.lookup(key)
        assert found.found and found.flow_id == flow_id
    for key in inserted:
        assert table.delete(key)
    assert len(table) == 0
