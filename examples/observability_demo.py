"""The observability plane, end to end.

Runs a failover scenario on an obs-enabled 4-node cluster, then shows what
the `repro.obs` plane captured without touching any simulated figure:

* the **event journal** — every membership change as a gapless, replayable
  JSONL stream (the incident record for the failover),
* the **Prometheus text exposition** — fleet gauges, per-node flow books
  and telemetry-sketch occupancy, ready for a scrape endpoint,
* **hot-path stage timings** — host-side histograms of the sharded
  engine's hash/steer/probe/pack stages, with bucket-resolution quantiles,
* the **JSON snapshot** — the same registry as one machine-readable
  document (the shape embedded in ``BENCH_*.json`` trajectory files),
* the **time-resolved plane** — tumbling windows on the *simulated*
  clock, hierarchical span traces of one ingest batch, and the shipped
  watchdog rules catching a scripted mid-stream hotspot shift at its
  onset window.

Run with::

    python examples/observability_demo.py
"""

from repro.cluster import ClusterCoordinator
from repro.obs import MetricsRegistry, Observability, render_report
from repro.core.config import small_test_config
from repro.engine import ShardedFlowLUT
from repro.telemetry import TelemetryConfig
from repro.traffic import scenario_descriptors

PACKETS = 2000
SEED = 47


def main() -> None:
    # ------------------------------------------------------------------ #
    # A failover scenario with the observability plane switched on
    # ------------------------------------------------------------------ #
    coordinator = ClusterCoordinator(
        nodes=4,
        telemetry_config=TelemetryConfig(heavy_hitter_capacity=4096),
        telemetry_seed=SEED,
        obs=True,
    )
    descriptors = scenario_descriptors("node_failover", PACKETS, seed=SEED)
    coordinator.ingest(descriptors[: PACKETS // 2])

    coordinator.add_node("standby")
    victim = max(
        (n for n in coordinator.nodes if n != "standby"),
        key=lambda n: coordinator.nodes[n].active_flows,
    )
    coordinator.fail_node(victim)
    coordinator.ingest(descriptors[PACKETS // 2 :])

    totals = coordinator.cluster_totals()
    print(f"failover scenario on an obs-enabled cluster ({PACKETS} packets):")
    print(f"  completed {totals['completed']}, flows lost with {victim}: "
          f"{coordinator.flows_lost}")

    # ------------------------------------------------------------------ #
    # The event journal: the failover's membership history, replayable
    # ------------------------------------------------------------------ #
    journal = coordinator.journal
    membership = [(event.kind, event.node) for event in journal.membership()]
    print(f"\nevent journal: {len(journal)} events, membership history {membership}")
    print("journal (JSONL, one line per event):")
    for line in journal.to_jsonl().splitlines():
        print(f"    {line}")

    # ------------------------------------------------------------------ #
    # Prometheus exposition: fleet + per-node + occupancy gauges
    # ------------------------------------------------------------------ #
    text = coordinator.prometheus_text()
    wanted = ("repro_cluster_fleet", "repro_cluster_ingested_total",
              "repro_node_active_flows", "repro_telemetry_occupancy")
    print("\nPrometheus exposition (fleet excerpt):")
    for line in text.splitlines():
        if line.startswith(wanted) or any(f"HELP {w}" in line for w in wanted):
            print(f"    {line}")

    # ------------------------------------------------------------------ #
    # Hot-path stage timings from an instrumented sharded engine
    # ------------------------------------------------------------------ #
    registry = MetricsRegistry()
    engine = ShardedFlowLUT(shards=4, config=small_test_config(), obs=registry)
    for offset in range(0, len(descriptors), 256):
        engine.process_batch(descriptors[offset : offset + 256])
    stages = registry.get("repro_engine_stage_ns")
    print(f"\nsharded engine stage timings ({engine.batches} batches, host-side):")
    for labels, child in stages.samples():
        p50 = stages.quantile(0.5, **labels)
        p99 = stages.quantile(0.99, **labels)
        print(f"    {labels['stage']:<10} count={child.count:<4} "
              f"p50<={p50:,.0f} ns  p99<={p99:,.0f} ns")

    # ------------------------------------------------------------------ #
    # The JSON snapshot — the machine-readable view of the same registry
    # ------------------------------------------------------------------ #
    snapshot = coordinator.metrics_snapshot()
    print(f"\nJSON snapshot: schema {snapshot['schema']}, "
          f"{len(snapshot['metrics'])} metric families:")
    for entry in snapshot["metrics"]:
        print(f"    {entry['type']:<9} {entry['name']} "
              f"({len(entry['samples'])} samples)")

    # ------------------------------------------------------------------ #
    # The time-resolved plane: windows, spans, and a firing watchdog
    # ------------------------------------------------------------------ #
    # ``hotspot_shift`` re-aims its traffic concentration mid-stream; on a
    # 5-node ring the windowed per-node load skew jumps past the shipped
    # ``node_imbalance`` rule's 1.8 threshold right at the shift window.
    shift_packets = 4000
    shift = scenario_descriptors("hotspot_shift", shift_packets, seed=42)
    duration = shift[-1].timestamp_ps - shift[0].timestamp_ps
    obs = Observability(window_ps=duration // 8, spans=True, alerts=True)
    watched = ClusterCoordinator(nodes=5, config=small_test_config(), obs=obs)
    step = shift_packets // 16
    for offset in range(0, shift_packets, step):
        watched.ingest(shift[offset : offset + step])
    watched.finalize_telemetry()  # flushes the partial tail window

    onset = obs.alerts.first_onset("node_imbalance")
    print(f"\ntime-resolved plane — hotspot_shift on 5 nodes "
          f"({shift_packets} packets, 8 windows):")
    print(f"  node_imbalance fired at window {onset.window} "
          f"(value {onset.value:.2f} vs threshold {onset.threshold}), "
          f"overloaded: {onset.context['overloaded']}")
    print(f"  spans: {obs.spans.roots_seen} ingest batches seen, "
          f"{obs.spans.roots_sampled} sampled "
          f"(1-in-{obs.spans.sample_every}), {len(obs.spans.spans)} spans kept")
    print()
    print(render_report(
        windows=obs.windows.windows,
        spans=obs.spans.spans,
        events=list(obs.journal),
    ))


if __name__ == "__main__":
    main()
