"""The cluster simulation layer, end to end.

Steers a heavy-tailed workload across a 4-node cluster with consistent-hash
flow steering and per-node telemetry, verifies the global accounting against
the single-LUT path, survives a node join (live flows migrate) and a forced
node failure (losses accounted explicitly), checks the merged cluster-wide
heavy hitters against an exact tally, and sweeps the node count to show
aggregate throughput scaling.

Run with::

    python examples/cluster_demo.py
"""

from repro.cluster import ClusterCoordinator
from repro.reporting import format_table, run_cluster_scaling
from repro.telemetry import TelemetryConfig
from repro.traffic import generate_scenario, scenario_descriptors

PACKETS = 2000
SEED = 41
TOP_K = 5


def main() -> None:
    # ------------------------------------------------------------------ #
    # A 4-node cluster ingesting a heavy-tailed stream
    # ------------------------------------------------------------------ #
    coordinator = ClusterCoordinator(
        nodes=4,
        telemetry_config=TelemetryConfig(heavy_hitter_capacity=4096),
        telemetry_seed=SEED,
    )
    descriptors = scenario_descriptors("zipf_mix", PACKETS, seed=SEED)
    coordinator.ingest(descriptors[: PACKETS // 2])

    totals = coordinator.cluster_totals()
    print(f"4-node cluster over zipf_mix (first {PACKETS // 2} packets):")
    print(f"  completed {totals['completed']}, hits {totals['hits']}, "
          f"misses {totals['misses']}, new flows {totals['new_flows']}")
    print(f"  aggregate throughput: {coordinator.throughput_mdesc_s:.1f} Mdesc/s "
          f"(steady-state envelope of the slowest node)")
    imbalance = coordinator.imbalance_report()
    print(f"  load imbalance: {imbalance['load_imbalance']:.2f}x  "
          f"(overloaded: {imbalance['overloaded'] or 'none'})")

    # ------------------------------------------------------------------ #
    # Membership changes mid-run: a join migrates, a failure loses
    # ------------------------------------------------------------------ #
    join = coordinator.add_node("node4")
    print(f"\nnode4 joined: {join['migrated']} live flows migrated onto it "
          f"({join['lost']} lost)")

    victim = max(coordinator.nodes, key=lambda n: coordinator.nodes[n].active_flows)
    failure = coordinator.fail_node(victim)
    print(f"{victim} failed: {failure['lost']} live flows lost with it")

    coordinator.ingest(descriptors[PACKETS // 2 :])
    totals = coordinator.cluster_totals()
    balanced = totals["completed"] == coordinator.ingested
    print(f"after the remaining {PACKETS - PACKETS // 2} packets:")
    print(f"  cluster books: completed {totals['completed']} of "
          f"{coordinator.ingested} ingested  "
          f"[{'balanced' if balanced else 'MISMATCH'}]")
    print(f"  flows migrated {coordinator.flows_migrated}, "
          f"lost {coordinator.flows_lost}; telemetry packets lost with the "
          f"failed node: {coordinator.telemetry_packets_lost}")

    # ------------------------------------------------------------------ #
    # Cluster-wide merged telemetry versus an exact single-node tally
    # ------------------------------------------------------------------ #
    merged = coordinator.merged_telemetry()
    exact: dict = {}
    for packet in generate_scenario("zipf_mix", PACKETS, seed=SEED):
        exact[packet.key.pack()] = exact.get(packet.key.pack(), 0) + packet.length_bytes
    exact_top = sorted(exact.items(), key=lambda item: (-item[1], item[0]))[:TOP_K]
    merged_top = [
        (hitter.key, hitter.count)
        for hitter in sorted(
            merged.heavy_hitters.entries(), key=lambda h: (-h.count, h.key)
        )[:TOP_K]
    ]
    agreement = sum(
        1 for mine, theirs in zip(merged_top, exact_top) if mine[0] == theirs[0]
    )
    print(f"\nmerged cluster-wide top-{TOP_K} heavy hitters "
          f"(vs exact tally, {agreement}/{TOP_K} agree; the failed node's "
          f"sketch contribution is missing by design):")
    for (key, count), (_, true_bytes) in zip(merged_top, exact_top):
        print(f"    {key.hex()}  sketch={count}  exact={true_bytes}")

    # ------------------------------------------------------------------ #
    # Throughput scaling with node count
    # ------------------------------------------------------------------ #
    result = run_cluster_scaling(
        scenario="zipf_mix", packet_count=PACKETS, node_counts=(1, 2, 4), seed=SEED
    )
    print()
    print(format_table(result["rows"], title="cluster scaling — zipf_mix"))
    print(f"\nsingle-LUT per-packet baseline: {result['single_path_mdesc_s']} Mdesc/s")


if __name__ == "__main__":
    main()
