"""Telemetry subsystem: sketch guarantees and the pipeline end to end."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.analyzer import TrafficAnalyzer, TrafficAnalyzerConfig
from repro.analyzer.event_engine import FlowEventType
from repro.cluster import ClusterCoordinator
from repro.columns.block import DescriptorBlock
from repro.core.config import small_test_config
from repro.core.flow_lut import FlowLUT
from repro.net.fivetuple import FlowKey
from repro.persist import dumps, loads
from repro.telemetry import (
    CountMinSketch,
    DistinctCounter,
    FlowSizeDistribution,
    SpaceSavingTracker,
    SuperSpreaderDetector,
    TelemetryConfig,
    TelemetryPipeline,
)
from repro.traffic import generate_scenario, list_scenarios, scenario_block
from repro.traffic.patterns import PatternDescriptor


# --------------------------------------------------------------------------- #
# Count-Min sketch
# --------------------------------------------------------------------------- #


def test_count_min_never_underestimates():
    sketch = CountMinSketch(width=256, depth=4, key_bits=32, seed=1)
    truth = {item: (item % 17) + 1 for item in range(500)}
    for item, count in truth.items():
        sketch.update(item, count)
    assert sketch.total == sum(truth.values())
    for item, count in truth.items():
        assert sketch.estimate(item) >= count


def test_count_min_error_within_bound():
    sketch = CountMinSketch(width=1024, depth=5, key_bits=32, seed=2)
    truth = {item: 1 + (item % 5) for item in range(2000)}
    for item, count in truth.items():
        sketch.update(item, count)
    bound = sketch.epsilon * sketch.total
    overshoots = [sketch.estimate(item) - count for item, count in truth.items()]
    # The bound holds per query with probability 1 - delta; demand it for the
    # overwhelming majority rather than every single key.
    within = sum(1 for overshoot in overshoots if overshoot <= bound)
    assert within / len(overshoots) > 0.99
    assert min(overshoots) >= 0


def test_count_min_from_error_bounds_geometry():
    sketch = CountMinSketch.from_error_bounds(epsilon=0.01, delta=0.05)
    assert sketch.width >= math.e / 0.01 - 1
    assert sketch.depth >= math.log(1 / 0.05) - 1
    assert sketch.epsilon <= 0.011
    assert sketch.memory_bytes == sketch.width * sketch.depth * 4


def test_count_min_zero_count_update_is_a_noop():
    sketch = CountMinSketch(width=64, depth=3, key_bits=32, seed=4)
    sketch.update(7, count=5)
    before = [list(row) for row in sketch._rows]
    sketch.update(7, count=0)
    sketch.update(99, count=0)
    assert sketch.total == 5
    assert [list(row) for row in sketch._rows] == before
    assert sketch.estimate(7) >= 5  # the real count survives the no-op


def test_count_min_rejects_bad_parameters():
    with pytest.raises(ValueError):
        CountMinSketch(width=0)
    with pytest.raises(ValueError):
        CountMinSketch.from_error_bounds(epsilon=2.0, delta=0.1)
    sketch = CountMinSketch(width=8, depth=2, key_bits=32, seed=0)
    with pytest.raises(ValueError):
        sketch.update(1, count=-1)


# --------------------------------------------------------------------------- #
# Distinct counting
# --------------------------------------------------------------------------- #


def test_distinct_counter_accuracy():
    counter = DistinctCounter(bitmap_bits=4096, key_bits=32, seed=3)
    for item in range(1000):
        counter.add(item)
        counter.add(item)  # duplicates must not inflate the estimate
    assert counter.items_added == 2000
    assert counter.estimate() == pytest.approx(1000, rel=0.12)


def test_distinct_counter_merge_is_union():
    left = DistinctCounter(bitmap_bits=2048, key_bits=32, seed=9)
    right = DistinctCounter(bitmap_bits=2048, key_bits=32, seed=9)
    for item in range(400):
        left.add(item)
    for item in range(200, 600):
        right.add(item)
    left.merge(right)
    assert left.estimate() == pytest.approx(600, rel=0.15)
    with pytest.raises(ValueError):
        left.merge(DistinctCounter(bitmap_bits=1024, seed=9))
    with pytest.raises(ValueError, match="hash seeds"):
        left.merge(DistinctCounter(bitmap_bits=2048, key_bits=32, seed=10))


def test_distinct_counter_mismatched_merge_leaves_state_intact():
    counter = DistinctCounter(bitmap_bits=2048, key_bits=32, seed=9)
    for item in range(300):
        counter.add(item)
    estimate_before = counter.estimate()
    bits_before = counter.bits_set
    with pytest.raises(ValueError):
        counter.merge(DistinctCounter(bitmap_bits=512, key_bits=32, seed=9))
    with pytest.raises(ValueError):
        counter.merge(DistinctCounter(bitmap_bits=2048, key_bits=32, seed=11))
    assert counter.estimate() == estimate_before
    assert counter.bits_set == bits_before
    assert counter.items_added == 300


def test_distinct_counter_merge_matches_directly_counted_union():
    union = DistinctCounter(bitmap_bits=2048, key_bits=32, seed=5)
    left = DistinctCounter(bitmap_bits=2048, key_bits=32, seed=5)
    right = DistinctCounter(bitmap_bits=2048, key_bits=32, seed=5)
    for item in range(500):
        union.add(item)
        (left if item % 2 else right).add(item)
    left.merge(right)
    # Same geometry and seed: the merged bitmap is exactly the union bitmap,
    # so the estimates agree to the bit, not just approximately.
    assert left.bits_set == union.bits_set
    assert left.estimate() == union.estimate()
    assert left.items_added == union.items_added
    # Merging the same counter again is idempotent for the bitmap.
    bits = left.bits_set
    left.merge(right)
    assert left.bits_set == bits


# --------------------------------------------------------------------------- #
# Space-Saving heavy hitters
# --------------------------------------------------------------------------- #


def test_space_saving_exact_below_capacity():
    tracker = SpaceSavingTracker(capacity=16)
    for key, count in (("a", 10), ("b", 5), ("c", 1)):
        tracker.update(key, count)
    assert tracker.estimate("a") == 10
    assert tracker.estimate("missing") == 0
    top = tracker.top(2)
    assert [entry.key for entry in top] == ["a", "b"]
    assert all(entry.error == 0 for entry in top)


def test_space_saving_bounds_and_guarantee():
    truth = {}
    tracker = SpaceSavingTracker(capacity=8)
    # 4 elephants over a churn of mice that forces constant eviction.
    stream = []
    for index in range(40):
        stream.extend([f"elephant{index % 4}"] * 5)
        stream.append(f"mouse{index}")
    for key in stream:
        truth[key] = truth.get(key, 0) + 1
        tracker.update(key)
    assert tracker.evictions > 0
    for entry in tracker.entries():
        true_count = truth.get(entry.key, 0)
        assert entry.count >= true_count  # never underestimates
        assert entry.guaranteed <= true_count  # count - error is a lower bound
    # Every key above total/capacity is guaranteed monitored.
    floor = tracker.total / tracker.capacity
    for key, count in truth.items():
        if count > floor:
            assert key in tracker


def test_space_saving_topk_recall_on_zipf_traffic():
    packets = generate_scenario("zipf_mix", 6000, seed=5)
    truth = {}
    tracker = SpaceSavingTracker(capacity=64)
    for packet in packets:
        truth[packet.key] = truth.get(packet.key, 0) + packet.length_bytes
        tracker.update(packet.key, packet.length_bytes)
    true_top = {key for key, _ in sorted(truth.items(), key=lambda kv: kv[1], reverse=True)[:10]}
    sketch_top = {entry.key for entry in tracker.top(10)}
    assert len(true_top & sketch_top) / 10 >= 0.9


def test_space_saving_threshold_hitters():
    tracker = SpaceSavingTracker(capacity=8)
    for _ in range(90):
        tracker.update("dominant")
    for index in range(10):
        tracker.update(f"noise{index}")
    hitters = tracker.threshold_hitters(0.5)
    assert [entry.key for entry in hitters] == ["dominant"]


def test_space_saving_threshold_is_strictly_exceeds():
    tracker = SpaceSavingTracker(capacity=8)
    tracker.update("boundary", 25)
    tracker.update("above", 26)
    tracker.update("below", 49)
    assert tracker.total == 100
    # "boundary" sits exactly at fraction * total = 25: the docstring promises
    # entries *exceeding* the fraction, so it must be excluded.
    hitters = {entry.key for entry in tracker.threshold_hitters(0.25)}
    assert hitters == {"above", "below"}
    assert "boundary" not in hitters
    # Fractions that are not exactly representable as floats must not round
    # the threshold down below the boundary (0.29 * 100 == 28.999… as floats).
    tracker = SpaceSavingTracker(capacity=8)
    tracker.update("edge", 29)
    tracker.update("rest", 71)
    assert [entry.key for entry in tracker.threshold_hitters(0.29)] == ["rest"]
    # Tiny fractions must not be collapsed to a zero threshold.
    tracker = SpaceSavingTracker(capacity=8)
    tracker.update("mouse", 1)
    tracker.update("bulk", 10**12 - 1)
    hitters = {entry.key for entry in tracker.threshold_hitters(1e-10)}
    assert hitters == {"bulk"}  # floor is 100 units, not 0


def test_space_saving_heap_eviction_matches_guarantees_under_weighted_churn():
    # Weighted updates over a churn of unmonitored keys exercise the lazy
    # min-heap (stale tombstones, compaction) far past the eviction path.
    truth = {}
    tracker = SpaceSavingTracker(capacity=16)
    for index in range(2000):
        if index % 3 == 0:
            key, weight = f"elephant{index % 5}", 64 + (index % 7)
        else:
            key, weight = f"mouse{index}", 1 + (index % 3)
        truth[key] = truth.get(key, 0) + weight
        tracker.update(key, weight)
    assert tracker.evictions > 500
    assert len(tracker) == tracker.capacity
    assert len(tracker._heap) <= 4 * tracker.capacity  # compaction bounds memory
    for entry in tracker.entries():
        true_count = truth.get(entry.key, 0)
        assert entry.count >= true_count
        assert entry.guaranteed <= true_count
    floor = tracker.total / tracker.capacity
    for key, count in truth.items():
        if count > floor:
            assert key in tracker


def test_space_saving_handles_non_comparable_key_mixes():
    # Count ties among keys of different types must not raise when the heap
    # orders its entries (the seq tie-breaker keeps ordering total).
    tracker = SpaceSavingTracker(capacity=4)
    for key in ("text", b"bytes", 7, ("tu", "ple"), "evictor1", b"evictor2", 99):
        tracker.update(key, 1)
    assert tracker.evictions == 3
    assert len(tracker) == 4


# --------------------------------------------------------------------------- #
# Superspreader detection
# --------------------------------------------------------------------------- #


def test_superspreader_flags_scanner_not_normal_sources():
    detector = SuperSpreaderDetector(max_sources=32, bitmap_bits=1024, threshold=100, seed=4)
    for destination in range(500):
        detector.update("scanner", destination)
    for source in range(20):
        for destination in range(5):
            detector.update(f"normal{source}", destination)
    reports = detector.superspreaders()
    assert [report.source for report in reports] == ["scanner"]
    assert reports[0].fanout == pytest.approx(500, rel=0.2)
    assert detector.fanout("unknown") == 0.0


def test_superspreader_eviction_keeps_heavy_sources():
    detector = SuperSpreaderDetector(max_sources=4, bitmap_bits=512, threshold=50, seed=6)
    for destination in range(200):
        detector.update("spreader", destination)
    for source in range(50):  # churn of one-destination sources forces eviction
        detector.update(f"little{source}", 1)
    assert detector.evictions > 0
    assert len(detector) <= 4
    assert detector.superspreaders()[0].source == "spreader"


# --------------------------------------------------------------------------- #
# Flow-size distribution
# --------------------------------------------------------------------------- #


def test_flow_size_distribution_buckets():
    distribution = FlowSizeDistribution()
    for packets in (1, 1, 1, 2, 3, 4, 7, 8, 100):
        distribution.observe_flow(packets, bytes_=packets * 100)
    assert distribution.flows == 9
    assert distribution.total_packets == 127
    histogram = {row["bucket"]: row["flows"] for row in distribution.histogram()}
    assert histogram[0] == 3  # size 1
    assert histogram[1] == 2  # sizes 2-3
    assert histogram[2] == 2  # sizes 4-7
    assert sum(histogram.values()) == 9
    assert distribution.mice_fraction(1) == pytest.approx(3 / 9)
    assert distribution.fraction_below(8) == pytest.approx(7 / 9)
    with pytest.raises(ValueError):
        distribution.observe_flow(0)


# --------------------------------------------------------------------------- #
# Pipeline — standalone detection flags
# --------------------------------------------------------------------------- #


def test_pipeline_flags_syn_flood_only_on_flood():
    flood = TelemetryPipeline(seed=2)
    flood.observe_packets(generate_scenario("syn_flood", 3000, seed=2))
    assert flood.syn_flood_detected
    assert not flood.port_scan_detected

    benign = TelemetryPipeline(seed=2)
    benign.observe_packets(generate_scenario("zipf_mix", 3000, seed=2))
    assert not benign.syn_flood_detected
    assert not benign.port_scan_detected


def test_pipeline_flags_port_scan():
    pipeline = TelemetryPipeline(seed=8)
    pipeline.observe_packets(generate_scenario("port_scan", 3000, seed=8))
    assert pipeline.port_scan_detected
    assert not pipeline.syn_flood_detected
    suspects = pipeline.port_scan_suspects()
    assert suspects[0].source == 0x0A0A0A0A  # the scenario's scanner address


# --------------------------------------------------------------------------- #
# Pipeline — attached to the analyzer, versus the exact Flow LUT path
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def attached_run():
    analyzer = TrafficAnalyzer(
        TrafficAnalyzerConfig(flow_lut=small_test_config(), packet_buffer_packets=8192)
    )
    pipeline = TelemetryPipeline(TelemetryConfig(heavy_hitter_capacity=64), seed=13)
    pipeline.attach(analyzer)
    packets = generate_scenario("zipf_mix", 2500, seed=13)
    processed = analyzer.analyze(packets)
    pipeline.finalize(analyzer.flow_processor.flow_state)
    records = list(analyzer.flow_processor.flow_state)
    records.extend(analyzer.flow_processor.flow_state.exported)
    return analyzer, pipeline, processed, records


def test_pipeline_sees_every_processed_packet(attached_run):
    _, pipeline, processed, _ = attached_run
    assert processed == 2500
    assert pipeline.packets == processed


def test_pipeline_estimates_dominate_exact_counts(attached_run):
    _, pipeline, _, records = attached_run
    assert records
    for record in records:
        assert pipeline.estimate_packets(record.key) >= record.packets
        assert pipeline.estimate_bytes(record.key) >= record.bytes


def test_pipeline_head_to_head_accuracy(attached_run):
    _, pipeline, _, records = attached_run
    comparison = pipeline.compare_with_exact(records, top_k=5)
    assert comparison["cm_underestimates"] == 0
    assert comparison["cm_mean_relative_error"] < 0.25
    assert comparison["heavy_hitter_recall"] >= 0.8
    assert comparison["sketch_memory_bytes"] > 0
    assert comparison["exact_memory_bytes"] > 0


def test_pipeline_flow_sizes_cover_all_flows(attached_run):
    analyzer, pipeline, _, records = attached_run
    # Every record the exact path produced (expired or still active at the
    # finalize sweep) was sized exactly once, with its final counters.
    assert pipeline.flow_sizes.flows == len(records)
    assert pipeline.flow_sizes.total_packets == sum(record.packets for record in records)


def test_expiry_events_carry_records(attached_run):
    analyzer, _, _, _ = attached_run
    events = analyzer.event_engine.events
    expiries = [event for event in events if event.kind is FlowEventType.FLOW_EXPIRED]
    for event in expiries:
        assert event.record is not None
        assert event.record.flow_id == event.flow_id


def test_observe_outcome_tolerates_zero_length_descriptors():
    from repro.net.fivetuple import FlowKey
    from repro.traffic.patterns import PatternDescriptor

    pipeline = TelemetryPipeline(seed=1)

    class Outcome:
        descriptor = PatternDescriptor(
            key_bytes=b"\x00" * 13,
            bucket_indices=(0, 1),
            key=FlowKey(1, 2, 3, 4, 6),
            length_bytes=0,
        )

    pipeline.observe_outcome(Outcome())
    assert pipeline.packets == 1
    assert pipeline.heavy_hitters.total == 0  # zero-weight packets skip byte HH


def test_attach_is_idempotent():
    analyzer = TrafficAnalyzer(TrafficAnalyzerConfig(flow_lut=small_test_config()))
    pipeline = TelemetryPipeline(seed=1)
    pipeline.attach(analyzer)
    pipeline.attach(analyzer)  # must not double-count
    processed = analyzer.analyze(generate_scenario("zipf_mix", 200, seed=1))
    assert pipeline.packets == processed == 200


def test_pipeline_report_shape(attached_run):
    _, pipeline, _, _ = attached_run
    report = pipeline.report()
    assert report["packets"] == 2500
    assert set(report["detections"]) == {"syn_flood", "port_scan", "superspreaders"}
    assert report["flow_sizes"]["flows"] == pipeline.flow_sizes.flows
    assert report["memory_bytes"] == pipeline.memory_bytes


# --------------------------------------------------------------------------- #
# Merge laws — the distributed-aggregation contract of every structure
# --------------------------------------------------------------------------- #


def test_count_min_merge_equals_concatenated_stream():
    whole = CountMinSketch(width=512, depth=4, key_bits=32, seed=31)
    left = CountMinSketch(width=512, depth=4, key_bits=32, seed=31)
    right = CountMinSketch(width=512, depth=4, key_bits=32, seed=31)
    for item in range(800):
        count = 1 + item % 7
        whole.update(item, count)
        (left if item % 3 else right).update(item, count)
    left.merge(right)
    # Same seed: cell-wise addition reproduces the single-stream sketch
    # exactly, so every estimate agrees to the counter, not approximately.
    assert left.total == whole.total
    assert left._rows == whole._rows
    for item in range(800):
        assert left.estimate(item) == whole.estimate(item)


def test_count_min_merge_rejects_mismatched_shapes_and_seeds():
    base = CountMinSketch(width=256, depth=4, key_bits=32, seed=1)
    base.update(7, 3)
    before_rows = [list(row) for row in base._rows]
    with pytest.raises(ValueError, match="geometry"):
        base.merge(CountMinSketch(width=128, depth=4, key_bits=32, seed=1))
    with pytest.raises(ValueError, match="geometry"):
        base.merge(CountMinSketch(width=256, depth=2, key_bits=32, seed=1))
    with pytest.raises(ValueError, match="key widths"):
        base.merge(CountMinSketch(width=256, depth=4, key_bits=64, seed=1))
    with pytest.raises(ValueError, match="hash seeds"):
        base.merge(CountMinSketch(width=256, depth=4, key_bits=32, seed=2))
    # The guards fire before any state changes (mirrors DistinctCounter).
    assert [list(row) for row in base._rows] == before_rows
    assert base.total == 3


def test_space_saving_merge_is_exact_when_no_summary_filled():
    whole = SpaceSavingTracker(capacity=64)
    left = SpaceSavingTracker(capacity=64)
    right = SpaceSavingTracker(capacity=64)
    truth = {}
    for index in range(40):
        key = f"flow{index % 20}"
        side = left if index % 2 else right
        side.update(key, 1 + index % 5)
        whole.update(key, 1 + index % 5)
        truth[key] = truth.get(key, 0) + 1 + index % 5
    left.merge(right)
    assert left.total == whole.total
    for key, count in truth.items():
        assert left.estimate(key) == count  # exact: nobody ever evicted
    # Tie-aware top-k comparison: many counts collide in this stream, so
    # compare deterministic (count desc, key) orderings, not .top() order.
    def ranked(tracker):
        return sorted(((e.count, e.key) for e in tracker.entries()), reverse=True)[:5]

    assert ranked(left) == ranked(whole)


def test_space_saving_merge_bounds_survive_evictions():
    truth = {}
    left = SpaceSavingTracker(capacity=8)
    right = SpaceSavingTracker(capacity=8)
    for index in range(300):
        key = f"elephant{index % 3}" if index % 2 else f"mouse{index}"
        (left if index % 4 < 2 else right).update(key)
        truth[key] = truth.get(key, 0) + 1
    assert left.evictions > 0 and right.evictions > 0
    total_before = left.total + right.total
    left.merge(right)
    assert left.total == total_before
    assert len(left) <= left.capacity
    for entry in left.entries():
        true_count = truth.get(entry.key, 0)
        assert entry.count >= true_count  # never underestimates...
        assert entry.guaranteed <= true_count  # ...and the floor stays a floor
    # The Space-Saving presence guarantee holds over the combined stream.
    floor = left.total / left.capacity
    for key, count in truth.items():
        if count > floor:
            assert key in left


def test_superspreader_merge_is_bitmap_union():
    whole = SuperSpreaderDetector(max_sources=32, bitmap_bits=1024, seed=33)
    left = SuperSpreaderDetector(max_sources=32, bitmap_bits=1024, seed=33)
    right = SuperSpreaderDetector(max_sources=32, bitmap_bits=1024, seed=33)
    for destination in range(300):
        whole.update("scanner", destination)
        # Both halves see some duplicates; the union must not double-count.
        (left if destination % 2 else right).update("scanner", destination)
        if destination % 10 == 0:
            left.update("scanner", destination)
            whole.update("scanner", destination)
    left.merge(right)
    assert left.fanout("scanner") == whole.fanout("scanner")
    with pytest.raises(ValueError, match="bitmap sizes"):
        left.merge(SuperSpreaderDetector(max_sources=32, bitmap_bits=512, seed=33))
    with pytest.raises(ValueError, match="hash seeds"):
        left.merge(SuperSpreaderDetector(max_sources=32, bitmap_bits=1024, seed=34))


def test_superspreader_merge_enforces_capacity():
    left = SuperSpreaderDetector(max_sources=8, bitmap_bits=256, seed=35)
    right = SuperSpreaderDetector(max_sources=8, bitmap_bits=256, seed=35)
    for source in range(8):
        for destination in range(source + 2):
            left.update(f"left{source}", destination)
            right.update(f"right{source}", destination)
    left.merge(right)
    assert len(left) == left.max_sources
    assert left.evictions >= 8  # the union had 16 sources for 8 slots


def test_flow_size_merge_sums_histograms():
    whole = FlowSizeDistribution()
    left = FlowSizeDistribution()
    right = FlowSizeDistribution()
    for index, packets in enumerate([1, 2, 3, 5, 8, 13, 21, 34]):
        whole.observe_flow(packets, packets * 100)
        (left if index % 2 else right).observe_flow(packets, packets * 100)
    left.merge(right)
    assert left.histogram() == whole.histogram()
    assert left.total_packets == whole.total_packets
    assert left.total_bytes == whole.total_bytes
    with pytest.raises(ValueError, match="max_bucket"):
        left.merge(FlowSizeDistribution(max_bucket=8))


def test_pipeline_merge_matches_single_pipeline_over_whole_stream():
    config = TelemetryConfig(heavy_hitter_capacity=2048)
    packets = generate_scenario("zipf_mix", 600, seed=37)
    solo = TelemetryPipeline(config, seed=37)
    solo.observe_packets(packets)
    left = TelemetryPipeline(config, seed=37)
    right = TelemetryPipeline(config, seed=37)
    left.observe_packets(packets[:250])
    right.observe_packets(packets[250:])
    left.merge(right)
    assert left.packets == solo.packets == 600
    assert left.bytes == solo.bytes
    assert left.syn_fraction == solo.syn_fraction
    for packet in packets:
        key = packet.key
        assert left.estimate_packets(key) == solo.estimate_packets(key)
        assert left.estimate_bytes(key) == solo.estimate_bytes(key)
        assert left.heavy_hitters.estimate(key.pack()) == solo.heavy_hitters.estimate(
            key.pack()
        )


def test_pipeline_merge_rejects_mismatched_config_or_seed():
    left = TelemetryPipeline(TelemetryConfig(cm_width=1024), seed=1)
    with pytest.raises(ValueError, match="configurations"):
        left.merge(TelemetryPipeline(TelemetryConfig(cm_width=512), seed=1))
    with pytest.raises(ValueError, match="hash seeds"):
        left.merge(TelemetryPipeline(TelemetryConfig(cm_width=1024), seed=2))


def test_space_saving_merge_rejects_mismatched_capacity():
    left = SpaceSavingTracker(capacity=8)
    left.update("a", 3)
    with pytest.raises(ValueError, match="capacities"):
        left.merge(SpaceSavingTracker(capacity=16))
    assert left.estimate("a") == 3  # guard fired before any mutation


# --------------------------------------------------------------------------- #
# The batch body: hash by column, update by row — to the bit
# --------------------------------------------------------------------------- #


def _detector_state(detector):
    """Everything a detector holds, in admission order."""
    return (
        [
            (source, counter.bitmap_value, counter.bits_set, counter.items_added)
            for source, counter in detector.source_states()
        ],
        detector.updates,
        detector.evictions,
    )


def _pipeline_state(pipeline):
    return {
        "packet_rows": pipeline.packet_counts.counter_rows(),
        "packet_total": pipeline.packet_counts.total,
        "byte_rows": pipeline.byte_counts.counter_rows(),
        "byte_total": pipeline.byte_counts.total,
        "heavy_entries": pipeline.heavy_hitters.entry_states(),
        "heavy_top": pipeline.heavy_hitters.top(10),
        "heavy_stats": pipeline.heavy_hitters.stats(),
        "spreaders": _detector_state(pipeline.spreaders),
        "port_scanners": _detector_state(pipeline.port_scanners),
        "totals": (pipeline.packets, pipeline.bytes, pipeline.syn_packets),
        "frame": dumps(pipeline),
    }


_SOURCES = st.integers(0, 11) | st.integers(0, 2**32 - 1)  # repeats and strangers
_ROWS = st.lists(
    st.tuples(
        st.builds(
            FlowKey,
            src_ip=_SOURCES,
            dst_ip=st.integers(0, 5) | st.integers(0, 2**32 - 1),
            src_port=st.integers(0, 2**16 - 1),
            dst_port=st.integers(0, 3) | st.integers(0, 2**16 - 1),
            protocol=st.sampled_from([6, 17]),
        ),
        st.sampled_from([0, 0, 40, 64, 1500]) | st.integers(0, 9000),  # length
        st.just(0),  # timestamp: telemetry never reads it
        st.sampled_from([0x00, 0x02, 0x10, 0x12, 0x18]),  # tcp flags
    ),
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    cm_width=st.sampled_from([1, 7, 64, 2048]),
    cm_depth=st.integers(1, 5),
    capacity=st.sampled_from([1, 3, 128]),
    max_sources=st.sampled_from([1, 4, 256]),  # 4: more distinct sources than slots
    bitmap_bits=st.sampled_from([1, 8, 61, 512]),
    blocks=st.lists(_ROWS, min_size=1, max_size=3),
)
def test_block_body_equals_the_per_row_loop_to_the_bit(
    each_backend, seed, cm_width, cm_depth, capacity, max_sources, bitmap_bits, blocks
):
    config = TelemetryConfig(
        cm_width=cm_width,
        cm_depth=cm_depth,
        heavy_hitter_capacity=capacity,
        spreader_sources=max_sources,
        spreader_bitmap_bits=bitmap_bits,
    )
    reference = TelemetryPipeline(config, seed=seed)
    for rows in blocks:
        for key, length, _, flags in rows:
            reference._observe(key, length, flags)
    expected = _pipeline_state(reference)
    for label, context in each_backend():
        with context:
            pipeline = TelemetryPipeline(config, seed=seed)
            for rows in blocks:
                pipeline._observe_block(DescriptorBlock.from_rows(rows))
            assert _pipeline_state(pipeline) == expected, label


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    key_bits=st.sampled_from([32, 48, 64, 72]),  # 72: past the vectorised widths
    bitmap_bits=st.sampled_from([3, 8, 512]),
    max_sources=st.sampled_from([1, 3, 16]),
    contacts=st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 7) | st.integers(0, 2**72)),
        max_size=80,
    ),
    split=st.integers(0, 80),
)
def test_detector_column_update_equals_per_row_updates(
    each_backend, seed, key_bits, bitmap_bits, max_sources, contacts, split
):
    def build():
        return SuperSpreaderDetector(
            max_sources, bitmap_bits, threshold=1.0, key_bits=key_bits, seed=seed
        )

    reference = build()
    for source, destination in contacts:
        reference.update(source, destination)
    for label, context in each_backend():
        with context:
            detector = build()
            for piece in (contacts[:split], contacts[split:]):
                detector.update_column([s for s, _ in piece], [d for _, d in piece])
            assert _detector_state(detector) == _detector_state(reference), label
    with pytest.raises(ValueError):
        build().update_column([1, 2], [3])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    width=st.sampled_from([1, 5, 256]),
    depth=st.integers(1, 4),
    key_width=st.sampled_from([1, 4, 13]),
    keys=st.lists(st.integers(0, 3) | st.integers(0, 2**104 - 1), max_size=40),
    weighted=st.booleans(),
    data=st.data(),
)
def test_count_min_column_update_equals_per_row_updates(
    each_backend, seed, width, depth, key_width, keys, weighted, data
):
    keys = [(key % (1 << (8 * key_width))).to_bytes(key_width, "big") for key in keys]
    counts = (
        data.draw(st.lists(st.integers(0, 5000), min_size=len(keys), max_size=len(keys)))
        if weighted
        else None
    )
    reference = CountMinSketch(width, depth, key_bits=104, seed=seed)
    for index, key in enumerate(keys):
        reference.update(key, 1 if counts is None else counts[index])
    for label, context in each_backend():
        with context:
            sketch = CountMinSketch(width, depth, key_bits=104, seed=seed)
            sketch.update_column(b"".join(keys), key_width, counts)
            assert sketch.counter_rows() == reference.counter_rows(), label
            assert sketch.total == reference.total, label


def test_count_min_column_update_validates_before_mutating():
    sketch = CountMinSketch(16, 2, key_bits=32, seed=1)
    with pytest.raises(ValueError, match="non-negative"):
        sketch.update_column(b"abcdwxyz", 4, [1, -1])
    with pytest.raises(ValueError, match="counts"):
        sketch.update_column(b"abcdwxyz", 4, [1])
    with pytest.raises(ValueError):  # keys wider than the hash functions cover
        sketch.update_column(b"abcdefgh", 8)
    assert sketch.total == 0 and not any(map(any, sketch.counter_rows()))


class _MinScanDetector:
    """The reference eviction policy: an O(max_sources) ``min`` scan over the
    table in admission (dict) order, one freshly seeded counter per source."""

    def __init__(self, max_sources, bitmap_bits, seed):
        self.max_sources, self.bitmap_bits, self.seed = max_sources, bitmap_bits, seed
        self.counters = {}
        self.victims = []

    def update(self, source, destination):
        counter = self.counters.get(source)
        if counter is None:
            if len(self.counters) >= self.max_sources:
                victim = min(self.counters, key=lambda s: self.counters[s].bits_set)
                del self.counters[victim]
                self.victims.append(victim)
            counter = self.counters[source] = DistinctCounter(self.bitmap_bits, seed=self.seed)
        counter.add(destination)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    max_sources=st.integers(1, 6),
    bitmap_bits=st.sampled_from([2, 4, 64]),  # tiny bitmaps: ties everywhere
    contacts=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 9)), max_size=120),
)
def test_lazy_heap_evicts_exactly_the_min_scan_victims(seed, max_sources, bitmap_bits, contacts):
    detector = SuperSpreaderDetector(max_sources, bitmap_bits, seed=seed)
    reference = _MinScanDetector(max_sources, bitmap_bits, detector.hash_seed)
    victims = []
    for source, destination in contacts:
        before = [s for s, _ in detector.source_states()]
        detector.update(source, destination)
        after = {s for s, _ in detector.source_states()}
        victims += [s for s in before if s not in after]
        reference.update(source, destination)
    assert victims == reference.victims
    assert detector.evictions == len(victims)
    assert [
        (source, counter.bitmap_value) for source, counter in detector.source_states()
    ] == [(source, counter.bitmap_value) for source, counter in reference.counters.items()]


def test_admitted_sources_share_the_detector_hash():
    detector = SuperSpreaderDetector(max_sources=4, bitmap_bits=64, seed=3)
    for source in range(9):
        detector.update(source, source)
    hashes = {id(counter.hash_function) for _, counter in detector.source_states()}
    assert len(hashes) == 1
    assert {counter.hash_seed for _, counter in detector.source_states()} == {
        detector.counter_hash_seed
    }
    # The shared function is the one a standalone counter on that seed builds.
    lone = DistinctCounter(64, seed=detector.hash_seed)
    lone.add(77)
    spawned = lone.spawn()
    spawned.add(77)
    assert (spawned.bitmap_value, spawned.items_added) == (lone.bitmap_value, 1)
    assert spawned.hash_function is lone.hash_function


def _full_detector(seed, prefix="old"):
    """A detector with every slot taken and distinct bit counts per source."""
    detector = SuperSpreaderDetector(max_sources=6, bitmap_bits=128, threshold=3.0, seed=seed)
    for index in range(6):
        for destination in range(1 + (index * 5) % 4):
            detector.update(f"{prefix}{index}", destination)
    assert len(detector) == detector.max_sources
    return detector


def _all_distinct_stream(detector):
    for index in range(40):
        for destination in range(1 + index % 3):
            detector.update(f"new{index}", 1000 + destination)


def test_restored_detector_evicts_like_its_unrestored_twin():
    twin = _full_detector(seed=12)
    restored = loads(dumps(_full_detector(seed=12)))
    _all_distinct_stream(twin)
    _all_distinct_stream(restored)
    assert restored.evictions == twin.evictions > 0
    assert _detector_state(restored) == _detector_state(twin)
    assert restored.superspreaders() == twin.superspreaders()


def test_merged_detector_evicts_like_a_twin_merged_the_same_way():
    def merged():
        return _full_detector(seed=13).merge(_full_detector(seed=13, prefix="other"))

    twin, restored = merged(), loads(dumps(merged()))
    assert twin.evictions == 6 and len(twin) == twin.max_sources
    _all_distinct_stream(twin)
    _all_distinct_stream(restored)
    # The reference: the same union (in a table roomy enough to hold it
    # whole), trimmed and then streamed under the min-scan policy.
    union = SuperSpreaderDetector(max_sources=12, bitmap_bits=128, seed=13)
    union.merge(_full_detector(seed=13)).merge(_full_detector(seed=13, prefix="other"))
    reference = _MinScanDetector(6, 128, twin.hash_seed)
    reference.counters = dict(union.source_states())
    while len(reference.counters) > 6:
        del reference.counters[
            min(reference.counters, key=lambda s: reference.counters[s].bits_set)
        ]
    for index in range(40):
        for destination in range(1 + index % 3):
            reference.update(f"new{index}", 1000 + destination)
    expected = [(s, c.bitmap_value) for s, c in reference.counters.items()]
    for detector in (twin, restored):
        assert [(s, c.bitmap_value) for s, c in detector.source_states()] == expected
    assert _detector_state(restored) == _detector_state(twin)
    assert restored.superspreaders() == twin.superspreaders()


# --------------------------------------------------------------------------- #
# The list entrance of the batch body
# --------------------------------------------------------------------------- #


def test_outcome_list_entrance_equals_block_entrance_on_every_scenario(each_backend):
    for name in list_scenarios():
        lut = FlowLUT(small_test_config())
        outcomes = lut.process_block(scenario_block(name, 240, seed=19))
        for label, context in each_backend():
            with context:
                from_block = TelemetryPipeline(seed=19)
                from_list = TelemetryPipeline(seed=19)
                assert from_block.observe_outcomes(outcomes) == 240
                assert from_list.observe_outcomes(outcomes.to_outcomes()) == 240
                assert dumps(from_list) == dumps(from_block), (name, label)
                assert from_list.report() == from_block.report(), (name, label)


def test_outcome_list_with_pattern_descriptors_counts_only_five_tuples():
    class Outcome:
        def __init__(self, descriptor):
            self.descriptor = descriptor

    key = FlowKey(1, 2, 3, 4, 6)
    measured = PatternDescriptor(
        key_bytes=b"\x00" * 13, bucket_indices=(0, 1), key=key, length_bytes=0
    )
    sized = PatternDescriptor(key_bytes=b"\x01" * 13, bucket_indices=(0, 1), key=key)
    bare = PatternDescriptor(key_bytes=b"\x02" * 13, bucket_indices=(2, 3))
    pipeline = TelemetryPipeline(seed=1)
    batch = [Outcome(bare), Outcome(measured), Outcome(bare), Outcome(sized)]
    assert pipeline.observe_outcomes(batch) == 4
    assert pipeline.observe_outcomes(iter([Outcome(bare)])) == 1
    assert (pipeline.packets, pipeline.bytes) == (2, 64)
    assert pipeline.estimate_packets(key) == 2
    assert pipeline.heavy_hitters.total == 64  # the zero-length row is not sized
    reference = TelemetryPipeline(seed=1)
    for outcome in batch:
        reference.observe_outcome(outcome)
    assert dumps(pipeline) == dumps(reference)


def test_empty_batches_are_no_ops(each_backend):
    pipeline = TelemetryPipeline(seed=2)
    untouched = dumps(pipeline)
    lut = FlowLUT(small_test_config())
    empty = lut.process_block(scenario_block("zipf_mix", 8, seed=1).slice_rows(0, 0))
    for label, context in each_backend():
        with context:
            assert pipeline.observe_outcomes([]) == 0
            assert pipeline.observe_outcomes(empty) == 0
            assert dumps(pipeline) == untouched, label


def test_promotion_after_k2_ingest_keeps_the_merged_top_k():
    packets = 900
    block = scenario_block("zipf_mix", packets, seed=23)
    config = TelemetryConfig(heavy_hitter_capacity=4096)  # merge is exact: no evictions

    def fleet():
        return ClusterCoordinator(
            nodes=4, config=small_test_config(), telemetry_config=config,
            telemetry_seed=23, replication=2,
        )

    steady, failing = fleet(), fleet()
    for coordinator in (steady, failing):
        coordinator.ingest(block.slice_rows(0, 600))
    victim = max(failing.nodes, key=lambda n: failing.nodes[n].completed)
    event = failing.fail_node(victim)
    assert event["recovery"] == "replicas" and event["telemetry_packets_lost"] == 0
    for coordinator in (steady, failing):
        coordinator.ingest(block.slice_rows(600, packets))
    survived, expected = failing.merged_telemetry(), steady.merged_telemetry()
    assert survived.packets == expected.packets == packets
    assert survived.top_talkers(10) == expected.top_talkers(10)
    assert survived.packet_counts.counter_rows() == expected.packet_counts.counter_rows()
    assert survived.superspreaders() == expected.superspreaders()
