"""Sharded batch fast-path engine: partitioning, equivalence, batch taps."""

from dataclasses import replace

import pytest

from repro.analyzer import TrafficAnalyzer, TrafficAnalyzerConfig
from repro.core.config import small_test_config
from repro.core.flow_lut import FlowLUT
from repro.engine import (
    ShardedFlowLUT,
    run_all_scenarios_sharded,
    run_scenario_sharded,
    run_scenario_single,
    run_scenario_timed,
    sharded_vs_single,
)
from repro.obs import MetricsRegistry, Observability
from repro.obs.export import registry_snapshot
from repro.reporting import run_sharded_scaling
from repro.telemetry import TelemetryPipeline
from repro.traffic import list_scenarios, scenario_block, scenario_descriptors


CONFIG = small_test_config()


# --------------------------------------------------------------------------- #
# Partitioning
# --------------------------------------------------------------------------- #


def test_shard_selection_is_deterministic_and_total():
    engine = ShardedFlowLUT(shards=4, config=CONFIG)
    engine.attach_flow_state()
    descriptors = scenario_descriptors("zipf_mix", 300, seed=3)
    engine.process_batch(descriptors)
    # Every descriptor went to exactly the shard its key hashes to...
    expected = [0, 0, 0, 0]
    for descriptor in descriptors:
        shard = engine.shard_of(descriptor.key_bytes)
        assert shard == engine.shard_of(descriptor.key_bytes)
        expected[shard] += 1
    assert engine.shard_completed == expected and sum(expected) == len(descriptors)
    # ...and each shard holds exactly the flows pinned to it.
    for index, shard in enumerate(engine.shards):
        assert {key for key, _ in shard.live_flow_pairs()} == {
            d.key_bytes for d in descriptors if engine.shard_of(d.key_bytes) == index
        }


def test_rejects_non_positive_shard_count():
    with pytest.raises(ValueError):
        ShardedFlowLUT(shards=0)


# --------------------------------------------------------------------------- #
# Batch processing
# --------------------------------------------------------------------------- #


def test_process_batch_returns_every_outcome_in_row_order():
    engine = ShardedFlowLUT(shards=2, config=CONFIG)
    descriptors = scenario_descriptors("zipf_mix", 400, seed=5)
    outcomes = engine.process_batch(descriptors)
    assert engine.completed == 400
    assert engine.batches == 1
    # Sequence callers get one outcome per descriptor, in the order given.
    assert [outcome.descriptor for outcome in outcomes] == descriptors
    # Each shard is one device: its rows complete in the order they arrived.
    for shard in range(2):
        stamps = [
            outcome.complete_ps
            for outcome in outcomes
            if engine.shard_of(outcome.descriptor.key_bytes) == shard
        ]
        assert stamps and stamps == sorted(stamps)


@pytest.mark.parametrize("shards", [1, 4])
def test_empty_batches_are_not_batches(shards):
    # Regression: an empty block used to count a batch and fire on_batch
    # with 0 rows, while an empty list did neither.  One rule for both.
    seen = []
    obs = Observability(window_ps=1000)
    engine = ShardedFlowLUT(shards=shards, config=CONFIG, on_batch=seen.append, obs=obs)
    empty_block = scenario_block("zipf_mix", 0, seed=5)
    assert engine.process_batch([]) == []
    outcome = engine.process_batch(empty_block)
    assert len(outcome) == 0 and outcome.to_outcomes() == []
    assert engine.batches == 0 and seen == []
    assert obs.metrics.get("repro_engine_batches_total").value() == 0
    obs.flush_windows()
    assert obs.windows.windows == []
    assert ShardedFlowLUT(shards=shards, config=CONFIG).process_batch(empty_block).to_outcomes() == []


def test_bad_descriptor_mid_sequence_raises_before_any_mutation():
    registry = MetricsRegistry(clock=lambda: 0)
    seen = []
    engine = ShardedFlowLUT(shards=4, config=CONFIG, on_batch=seen.append, obs=registry)
    descriptors = scenario_descriptors("zipf_mix", 200, seed=5)
    engine.process_batch(descriptors[:100])
    report = engine.report()
    snapshot = registry_snapshot(registry)
    # A key outside the 5-tuple layout (what an n-tuple extractor produces).
    bad = list(descriptors[100:])
    bad[50] = replace(bad[50], key_bytes=bad[50].key_bytes + b"\x00")
    with pytest.raises(ValueError, match="5-tuple key layout"):
        engine.process_batch(bad)
    assert engine.report() == report
    assert registry_snapshot(registry) == snapshot
    assert len(seen) == 1


def test_on_batch_callback_rides_every_batch():
    batches = []
    engine = ShardedFlowLUT(shards=2, config=CONFIG, on_batch=batches.append)
    descriptors = scenario_descriptors("churn", 300, seed=6)
    for offset in range(0, len(descriptors), 100):
        engine.process_batch(descriptors[offset : offset + 100])
    assert len(batches) == 3
    assert sum(len(batch) for batch in batches) == 300


def test_telemetry_pipeline_rides_engine_batches():
    pipeline = TelemetryPipeline(seed=7)
    engine = ShardedFlowLUT(shards=4, config=CONFIG, on_batch=pipeline.observe_outcomes)
    engine.process_batch(scenario_descriptors("zipf_mix", 500, seed=7))
    assert pipeline.packets == engine.completed == 500


def test_preloaded_keys_hit_on_lookup():
    engine = ShardedFlowLUT(shards=2, config=CONFIG)
    descriptors = scenario_descriptors("uniform_random", 200, seed=8)
    assert engine.preload([d.key_bytes for d in descriptors]) == 200
    outcomes = engine.process_batch(descriptors)
    assert all(outcome.hit for outcome in outcomes)
    assert engine.misses == 0


# --------------------------------------------------------------------------- #
# Equivalence with the single-LUT path
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("name", list_scenarios())
def test_every_scenario_matches_single_path_totals(name):
    comparison = sharded_vs_single(name, 400, shards=4, seed=11, batch_size=128)
    assert comparison["equivalent"], (
        comparison["sharded"].totals(),
        comparison["single"].totals(),
    )
    assert comparison["sharded"].insert_failures == 0
    assert comparison["single"].insert_failures == 0


def test_per_flow_outcomes_and_flow_ids_are_consistent():
    """Each flow sees the same hit/new-flow history on both paths, and flow
    IDs stay one-to-one with flows within each path."""
    descriptors = scenario_descriptors("churn", 500, seed=12)

    def replay(process):
        history = {}
        flow_ids = {}
        for outcome in process(descriptors):
            key = outcome.descriptor.key
            history.setdefault(key, []).append((outcome.hit, outcome.new_flow))
            if outcome.flow_id is not None:
                flow_ids.setdefault(key, set()).add(outcome.flow_id)
        return history, flow_ids

    def sharded(batch):
        engine = ShardedFlowLUT(shards=4, config=CONFIG)
        return engine.process_batch(batch)

    def single(batch):
        lut = FlowLUT(CONFIG)
        for descriptor in batch:
            lut.submit_blocking(descriptor)
        lut.drain()
        return lut.results

    sharded_history, sharded_ids = replay(sharded)
    single_history, single_ids = replay(single)
    assert sharded_history == single_history
    # Flow IDs are location-derived, so their numeric values differ between
    # paths — but each flow must map to exactly one ID, distinct flows to
    # distinct IDs, and both paths must allocate the same number of them.
    for ids in (sharded_ids, single_ids):
        assert all(len(assigned) == 1 for assigned in ids.values())
    assert len(sharded_ids) == len(single_ids)
    # Within the single LUT, distinct flows get distinct IDs (per-shard IDs
    # may collide numerically across shards, so only count them per path).
    assert len(set().union(*single_ids.values())) == len(single_ids)


def test_timed_replay_steers_like_the_engine():
    # replay_timed carries its own copy of the CRC-32 steering rule; the
    # simulated scaling figures are only meaningful if it places every
    # descriptor where the engine does.
    timed = run_scenario_timed("zipf_mix", 400, shards=4, seed=13, batch_size=128)
    engine = run_scenario_sharded("zipf_mix", 400, shards=4, seed=13, batch_size=128)
    assert timed.shard_completed == engine.shard_completed
    assert timed.totals() == engine.totals()
    assert timed.elapsed_ps > engine.elapsed_ps  # cycle-accurate vs envelope


def test_load_spreads_across_shards():
    result = run_scenario_sharded("uniform_random", 600, shards=4, seed=13)
    assert all(completed > 0 for completed in result.shard_completed)
    assert result.load_imbalance < 1.5


# --------------------------------------------------------------------------- #
# Scenario runner
# --------------------------------------------------------------------------- #


def test_back_to_back_runs_report_identical_stats():
    # Regression: a process-global descriptor extractor used to leak
    # ``packets_parsed`` across runs, so the second run reported different
    # stats than the first.
    first = run_scenario_sharded("zipf_mix", 300, shards=2, seed=9)
    second = run_scenario_sharded("zipf_mix", 300, shards=2, seed=9)
    assert first == second
    assert first.packets_parsed == 300


def test_runner_covers_every_named_scenario():
    results = run_all_scenarios_sharded(150, shards=2, seed=10)
    assert [result.scenario for result in results] == list_scenarios()
    assert all(result.completed == 150 for result in results)


def test_runner_rejects_bad_batch_size():
    with pytest.raises(ValueError):
        run_scenario_sharded("zipf_mix", 10, batch_size=0)


def test_single_runner_matches_flow_lut_accounting():
    result = run_scenario_single("flash_crowd", 300, seed=14)
    assert result.shards == 1
    assert result.completed == 300
    assert result.hits + result.misses == result.completed


# --------------------------------------------------------------------------- #
# Reporting experiment
# --------------------------------------------------------------------------- #


def test_run_sharded_scaling_shape_and_invariants():
    result = run_sharded_scaling(
        scenario="zipf_mix", packet_count=400, shard_counts=(1, 2), seed=15
    )
    assert [row["shards"] for row in result["rows"]] == [1, 2]
    totals = {
        (row["completed"], row["hits"], row["misses"], row["new_flows"])
        for row in result["rows"]
    }
    assert len(totals) == 1  # totals invariant under shard count
    assert all(row["matches_single_path"] for row in result["rows"])
    assert result["single_path_mdesc_s"] > 0


# --------------------------------------------------------------------------- #
# Batched analyzer path
# --------------------------------------------------------------------------- #


def _analyzer():
    return TrafficAnalyzer(
        TrafficAnalyzerConfig(flow_lut=CONFIG, packet_buffer_packets=8192)
    )


def test_analyzer_batched_path_matches_per_packet_path():
    from repro.traffic import generate_scenario

    packets = generate_scenario("zipf_mix", 600, seed=16)
    per_packet = _analyzer()
    batched = _analyzer()
    assert per_packet.analyze(packets) == 600
    assert batched.analyze_batched(packets, batch_size=128) == 600
    for attribute in ("hits", "misses", "new_flows"):
        assert getattr(batched.flow_processor.flow_lut, attribute) == getattr(
            per_packet.flow_processor.flow_lut, attribute
        )


def test_pipeline_batch_attach_counts_once():
    from repro.traffic import generate_scenario

    analyzer = _analyzer()
    pipeline = TelemetryPipeline(seed=18)
    pipeline.attach(analyzer, batch=True)
    pipeline.attach(analyzer, batch=True)  # idempotent
    pipeline.attach(analyzer)  # already attached in batch mode: no-op
    processed = analyzer.analyze_batched(generate_scenario("zipf_mix", 300, seed=18))
    assert processed == 300
    assert pipeline.packets == 300


def test_pipeline_batch_attach_is_fed_by_the_per_packet_path_too():
    from repro.traffic import generate_scenario

    analyzer = _analyzer()
    pipeline = TelemetryPipeline(seed=20)
    pipeline.attach(analyzer, batch=True)
    processed = analyzer.analyze(generate_scenario("zipf_mix", 200, seed=20))
    assert processed == 200
    assert pipeline.packets == 200  # the whole run arrives as one batch


def test_parser_tally_is_exact_under_backpressure():
    from repro.traffic import generate_scenario

    # Regression: retrying a rejected packet used to re-extract it, inflating
    # ``packets_parsed`` past the number of packets actually processed.
    analyzer = _analyzer()
    packets = generate_scenario("uniform_random", 600, seed=21)
    assert analyzer.analyze_batched(packets, batch_size=128) == 600
    assert analyzer.flow_processor.packets_rejected > 0  # backpressure occurred
    assert analyzer.flow_processor.extractor.packets_parsed == 600


def test_flow_processor_batch_observer_sees_whole_batches():
    from repro.traffic import generate_scenario

    analyzer = _analyzer()
    seen = []
    analyzer.flow_processor.add_batch_observer(seen.append)
    analyzer.analyze_batched(generate_scenario("churn", 250, seed=19), batch_size=100)
    assert len(seen) == 3  # 100 + 100 + 50
    assert sum(len(batch) for batch in seen) == 250


# --------------------------------------------------------------------------- #
# Flow aging through the sharded engine
# --------------------------------------------------------------------------- #


def test_sharded_housekeeping_expires_idle_flows_under_churn():
    engine = ShardedFlowLUT(shards=2, config=CONFIG)
    tables = engine.attach_flow_state(timeout_us=5.0)
    assert len(tables) == 2
    descriptors = scenario_descriptors("churn", 600, seed=30)
    removed = 0
    # Interleave ingestion with aging passes driven by the workload clock,
    # the way a bounded-memory deployment runs: short flows FIN out, go
    # idle, and must be expired so the table does not grow without bound.
    for offset in range(0, len(descriptors), 200):
        batch = descriptors[offset : offset + 200]
        engine.process_batch(batch)
        removed += engine.run_housekeeping(
            now_ps=batch[-1].timestamp_ps + 10_000_000
        )
    assert removed > 0
    # Housekeeping removals fan out across every shard and sum up exactly.
    created = sum(table.created for table in engine.flow_states)
    assert engine.active_flows == created - removed
    assert engine.active_flows < engine.new_flows  # churn got aged out


def test_sharded_housekeeping_without_flow_state_is_a_noop():
    engine = ShardedFlowLUT(shards=2, config=CONFIG)
    engine.process_batch(scenario_descriptors("zipf_mix", 100, seed=31))
    assert engine.run_housekeeping() == 0
    assert engine.active_flows == 0


def test_sharded_delete_flow_routes_to_the_owning_shard():
    engine = ShardedFlowLUT(shards=4, config=CONFIG)
    engine.attach_flow_state()
    descriptors = scenario_descriptors("zipf_mix", 200, seed=32)
    engine.process_batch(descriptors)
    key = descriptors[0].key_bytes
    assert engine.delete_flow(key) is True
    assert engine.delete_flow(key) is False  # already gone
    # A deleted flow is re-learned as new on its next packet.
    new_flows_before = engine.new_flows
    engine.process_batch([descriptors[0]])
    assert engine.new_flows == new_flows_before + 1


def test_load_imbalance_is_zero_before_any_completion():
    # Regression: the imbalance ratio must be 0.0 — not a division error or
    # NaN — when no descriptor has completed yet.
    engine = ShardedFlowLUT(shards=3, config=CONFIG)
    assert engine.load_imbalance == 0.0
    assert engine.report()["load_imbalance"] == 0.0
    engine.process_batch(scenario_descriptors("zipf_mix", 60, seed=34))
    assert engine.load_imbalance >= 1.0  # defined once work completed
