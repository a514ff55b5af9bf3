"""The sharded batch fast-path engine, end to end.

Replays a heavy-tailed workload through a 4-shard :class:`ShardedFlowLUT`
with a telemetry pipeline riding the merged outcome batches, verifies the
totals against the single-LUT per-packet path, and sweeps the shard count to
show aggregate throughput scaling.

Run with::

    python examples/sharded_engine_demo.py
"""

from repro.core.config import small_test_config
from repro.engine import ShardedFlowLUT, sharded_vs_single
from repro.reporting import format_table, run_sharded_scaling
from repro.telemetry import TelemetryConfig, TelemetryPipeline
from repro.traffic import list_scenarios, scenario_descriptors

PACKETS = 2000
SEED = 31


def main() -> None:
    # ------------------------------------------------------------------ #
    # One sharded run with telemetry riding the outcome batches
    # ------------------------------------------------------------------ #
    pipeline = TelemetryPipeline(TelemetryConfig(heavy_hitter_capacity=64), seed=SEED)
    engine = ShardedFlowLUT(
        shards=4, config=small_test_config(), on_batch=pipeline.observe_outcomes
    )
    descriptors = scenario_descriptors("zipf_mix", PACKETS, seed=SEED)
    for offset in range(0, len(descriptors), 512):
        engine.process_batch(descriptors[offset : offset + 512])

    print(f"4-shard engine over zipf_mix ({PACKETS} packets, batches of 512):")
    print(f"  completed {engine.completed}, hits {engine.hits}, misses {engine.misses}, "
          f"new flows {engine.new_flows}")
    print(f"  aggregate throughput: {engine.throughput_mdesc_s:.1f} Mdesc/s "
          f"(steady-state envelope of the slowest shard)")
    print(f"  shard loads: {engine.shard_completed}  "
          f"(imbalance {engine.load_imbalance:.2f}x)")
    print(f"  telemetry saw {pipeline.packets} packets in {engine.batches} batch calls")
    print("  top talkers (sketch estimate, bytes):")
    for hitter in pipeline.top_talkers(3):
        print(f"    {hitter.key.hex()}  count={hitter.count}  guaranteed>={hitter.guaranteed}")

    # ------------------------------------------------------------------ #
    # Sharding is transparent: same totals as the single-LUT path
    # ------------------------------------------------------------------ #
    print("\nsharded vs single-LUT totals per scenario (600 packets each):")
    for name in list_scenarios():
        comparison = sharded_vs_single(name, 600, shards=4, seed=SEED)
        marker = "ok" if comparison["equivalent"] else "MISMATCH"
        print(f"  {name:16s} {comparison['sharded'].totals()}  [{marker}]")

    # ------------------------------------------------------------------ #
    # Throughput scaling with shard count
    # ------------------------------------------------------------------ #
    result = run_sharded_scaling(scenario="zipf_mix", packet_count=PACKETS, seed=SEED)
    print()
    print(format_table(result["rows"], title="throughput scaling — zipf_mix"))
    print(f"\nsingle-LUT per-packet baseline: {result['single_path_mdesc_s']} Mdesc/s")


if __name__ == "__main__":
    main()
