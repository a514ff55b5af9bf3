"""Integration tests for the timed dual-path Flow LUT."""

import random

import pytest

from repro.cluster import ClusterNode
from repro.core.config import small_test_config
from repro.core.flow_lut import FlowLUT
from repro.core.flow_state import FlowStateTable
from repro.core.harness import DescriptorSource, run_lookup_experiment, sweep_input_rates, worst_case_rate
from repro.core.hash_cam import LookupStage
from repro.traffic.generators import descriptors_from_keys, match_rate_workload, random_flow_keys
from repro.traffic.patterns import bank_increment_patterns, random_hash_patterns


def small_lut(**overrides):
    return FlowLUT(small_test_config(**overrides))


def run_all(lut, descriptors, rate=100e6):
    return run_lookup_experiment(lut, descriptors, input_rate_hz=rate)


# --------------------------------------------------------------------------- #
# Functional correctness of the timed pipeline
# --------------------------------------------------------------------------- #


def test_all_descriptors_complete_exactly_once():
    lut = small_lut()
    descriptors = descriptors_from_keys(random_flow_keys(500, seed=1))
    result = run_all(lut, descriptors)
    assert result.completed == 500
    assert lut.submitted == 500
    assert len(lut.results) == 500


def test_unknown_flows_miss_and_create_entries():
    lut = small_lut()
    descriptors = descriptors_from_keys(random_flow_keys(300, seed=2))
    result = run_all(lut, descriptors)
    assert result.miss_rate == pytest.approx(1.0)
    assert result.new_flows == 300
    assert len(lut.table) == 300


def test_repeated_flow_hits_after_first_packet():
    lut = small_lut()
    key = random_flow_keys(1, seed=3)
    descriptors = descriptors_from_keys(key * 10)
    result = run_all(lut, descriptors)
    assert lut.new_flows == 1
    assert lut.hits == 9
    flow_ids = {outcome.flow_id for outcome in lut.results}
    assert len(flow_ids) == 1


def test_preloaded_table_gives_pure_hits_with_stable_flow_ids():
    lut = small_lut()
    keys = random_flow_keys(400, seed=4)
    descriptors = descriptors_from_keys(keys)
    lut.preload([d.key_bytes for d in descriptors])
    preload_size = len(lut.table)
    shuffled = list(descriptors)
    random.Random(0).shuffle(shuffled)
    result = run_all(lut, shuffled)
    assert result.miss_rate == 0.0
    assert lut.new_flows == 0
    assert len(lut.table) == preload_size
    # Each descriptor resolves to the flow ID assigned at preload time.
    by_key = {}
    for outcome in lut.results:
        by_key.setdefault(outcome.descriptor.key_bytes, set()).add(outcome.flow_id)
    assert all(len(ids) == 1 for ids in by_key.values())


def test_measured_miss_rate_matches_workload():
    keys = random_flow_keys(500, seed=5)
    lut = small_lut()
    lut.preload([d.key_bytes for d in descriptors_from_keys(keys)])
    queries = match_rate_workload(keys, 400, match_fraction=0.75, seed=6)
    result = run_all(lut, queries)
    assert result.miss_rate == pytest.approx(0.25, abs=0.02)


def test_mem_stage_attribution():
    lut = small_lut()
    descriptors = descriptors_from_keys(random_flow_keys(200, seed=7))
    run_all(lut, descriptors)
    stages = {outcome.stage for outcome in lut.results}
    assert stages <= {LookupStage.MEM1, LookupStage.MEM2, LookupStage.CAM, LookupStage.MISS}
    mem_outcomes = [o for o in lut.results if o.stage in (LookupStage.MEM1, LookupStage.MEM2)]
    assert mem_outcomes, "expected some memory-resident insertions"


def test_latency_is_positive_and_bounded():
    lut = small_lut()
    descriptors = descriptors_from_keys(random_flow_keys(200, seed=8))
    run_all(lut, descriptors)
    for outcome in lut.results:
        assert outcome.latency_ps > 0
        assert outcome.latency_ns < 10_000  # well under 10 us for a 200-entry run


def test_insert_on_miss_disabled_keeps_table_empty():
    lut = small_lut(insert_on_miss=False)
    descriptors = descriptors_from_keys(random_flow_keys(100, seed=9))
    result = run_all(lut, descriptors)
    assert result.miss_rate == 1.0
    assert len(lut.table) == 0
    assert lut.new_flows == 0


def test_backpressure_never_loses_descriptors():
    lut = small_lut()
    descriptors = descriptors_from_keys(random_flow_keys(300, seed=10))
    # Offer far faster than the LUT can possibly accept (1 GHz).
    result = run_all(lut, descriptors, rate=1e9)
    assert result.completed == 300


def test_flow_state_is_updated_on_results():
    flow_state = FlowStateTable(timeout_us=1e6)
    lut = FlowLUT(small_test_config(), flow_state=flow_state)
    keys = random_flow_keys(50, seed=11)
    descriptors = descriptors_from_keys(keys * 2, length_bytes=100)
    run_all(lut, descriptors)
    assert len(flow_state) == 50
    assert all(record.packets == 2 for record in flow_state)
    assert all(record.bytes == 200 for record in flow_state)


def test_delete_flow_and_housekeeping_expire_entries():
    flow_state = FlowStateTable(timeout_us=10.0)
    lut = FlowLUT(small_test_config(), flow_state=flow_state)
    keys = random_flow_keys(30, seed=12)
    descriptors = descriptors_from_keys(keys, inter_arrival_ps=1000)
    run_all(lut, descriptors)
    assert len(lut.table) == 30
    removed = lut.run_housekeeping(now_ps=int(1e9))  # 1 ms later: all idle
    lut.drain()
    assert removed == 30
    assert len(lut.table) == 0
    assert len(flow_state) == 0
    # Deletion writes were charged to the update blocks.
    assert sum(update.delete_requests for update in lut.updates) == 30


def test_explicit_delete_flow():
    lut = small_lut()
    descriptors = descriptors_from_keys(random_flow_keys(5, seed=13))
    run_all(lut, descriptors)
    key_bytes = descriptors[0].key_bytes
    assert lut.delete_flow(key_bytes)
    lut.drain()
    assert not lut.table.lookup(key_bytes).found
    assert not lut.delete_flow(key_bytes)


def test_migration_paths_hash_each_key_once_per_table_operation(count_hash_calls):
    """``delete_flow`` / ``restore_flow`` / ``preload`` reach ``hash_indices``
    once per key, so a flow moved by ``extract_flows`` + ``absorb_flows``
    costs two hashes (one on each side)."""
    descriptors = descriptors_from_keys(random_flow_keys(6, seed=21))
    source = ClusterNode("a", config=small_test_config(), telemetry=False)
    target = ClusterNode("b", config=small_test_config(), telemetry=False)
    source.engine.process_batch(descriptors)
    moving = descriptors[0].key_bytes
    calls = count_hash_calls(source.engine.shards[0].table, target.engine.shards[0].table)
    extracted = source.extract_flows(lambda key_bytes, record: key_bytes == moving)
    assert [key_bytes for key_bytes, _ in extracted] == [moving]
    assert target.absorb_flows(extracted) == (1, 0)
    assert len(calls) == 2

    lut = target.engine.shards[0]
    record = extracted[0][1]
    assert lut.delete_flow(moving) and len(calls) == 3
    assert not lut.delete_flow(moving) and len(calls) == 4
    assert lut.restore_flow(record, moving) and len(calls) == 5
    assert lut.restore_flow(record, moving) and len(calls) == 6  # already present: folded
    assert lut.preload([d.key_bytes for d in descriptors]) == 5 and len(calls) == 12


def test_cam_stage_resolves_without_memory_reads():
    lut = FlowLUT(small_test_config(num_flows=8, cam_entries=16))
    descriptors = descriptors_from_keys(random_flow_keys(20, seed=14))
    run_all(lut, descriptors)
    # Re-query everything: entries that landed in the CAM resolve at the CAM stage.
    lut2_reads_before = sum(dlu.reads_issued for dlu in lut.dlus)
    rerun = descriptors_from_keys([d.key for d in descriptors])
    source = DescriptorSource(lut, rerun, rate_hz=100e6)
    source.start()
    lut.drain()
    cam_hits = sum(1 for outcome in lut.results if outcome.stage is LookupStage.CAM)
    assert cam_hits > 0


def test_request_filter_blocks_conflicting_lookup():
    """A lookup racing an in-flight update of the same bucket is held and
    still completes with the updated contents."""
    lut = small_lut(burst_write_timeout_cycles=4000)
    key = random_flow_keys(1, seed=15)
    descriptors = descriptors_from_keys(key * 3)
    result = run_all(lut, descriptors)
    assert result.completed == 3
    assert lut.hits == 2  # second and third packets find the entry
    # The filter saw at least one held request (same bucket, update pending)
    # in configurations where the write had not yet drained; either way the
    # result must be consistent.
    assert lut.misses == 1


def test_report_structure():
    lut = small_lut()
    run_all(lut, descriptors_from_keys(random_flow_keys(50, seed=16)))
    report = lut.report()
    assert report["completed"] == 50
    assert len(report["dlus"]) == 2
    assert len(report["controllers"]) == 2
    assert report["throughput_mdesc_s"] > 0
    assert 0 <= report["miss_rate"] <= 1


# --------------------------------------------------------------------------- #
# Harness behaviour
# --------------------------------------------------------------------------- #


def test_descriptor_source_validation_and_counters():
    lut = small_lut()
    descriptors = descriptors_from_keys(random_flow_keys(10, seed=17))
    source = DescriptorSource(lut, descriptors, rate_hz=100e6)
    with pytest.raises(ValueError):
        DescriptorSource(lut, descriptors, rate_hz=0)
    source.start()
    with pytest.raises(RuntimeError):
        source.start()
    lut.drain()
    assert source.done
    assert source.offered == 10


def test_sweep_and_worst_case_rate():
    descriptors = descriptors_from_keys(random_flow_keys(200, seed=18))
    results = sweep_input_rates(
        lambda: small_lut(), descriptors, rates_hz=(60e6, 100e6)
    )
    assert len(results) == 2
    worst = worst_case_rate(results)
    assert worst.throughput_mdesc_s == min(r.throughput_mdesc_s for r in results)
    with pytest.raises(ValueError):
        worst_case_rate([])


def test_experiment_result_row_format():
    lut = small_lut()
    result = run_all(lut, descriptors_from_keys(random_flow_keys(50, seed=19)))
    row = result.as_row()
    assert set(row) == {"offered_mhz", "throughput_mdesc_s", "miss_rate", "path_a_load", "mean_latency_ns"}
