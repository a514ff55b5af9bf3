"""Cluster layer — scaling, fail-over accounting, merged telemetry fidelity.

No paper reference: this is the scale-out tier above the PR-2 sharded
engine.  Three properties are checked:

1. **Scaling** — cluster aggregate (simulated) throughput grows with the
   node count on the realistic ``zipf_mix`` workload: at least 2x with 4
   nodes versus 1, because nodes are independent machines and the ring
   spreads flows across them.
2. **Fail-over accounting** — after a node join (live flows migrate) and a
   forced node failure mid-run (live flows and sketches are lost), the
   books still balance exactly: every ingested descriptor was completed by
   exactly one node, surviving or not, and the migrated/lost flow counts
   are reported explicitly rather than papered over.
3. **Merged telemetry fidelity** — the cluster-wide heavy-hitter view
   obtained by merging per-node Space-Saving summaries matches the exact
   single-node tally's top-k on every named scenario (the summaries are
   sized so no evictions occur, where the merge is provably exact).

Set ``CLUSTER_BENCH_PACKETS`` to shrink or grow the workload (CI smoke runs
use a small value).
"""

import os
from pathlib import Path

from repro.cluster import ClusterCoordinator
from repro.core.config import small_test_config
from repro.engine import run_scenario_single
from repro.obs import Observability
from repro.reporting import exact_top_k, format_table, run_cluster_scaling
from repro.telemetry import TelemetryConfig
from repro.traffic import generate_scenario, list_scenarios, scenario_descriptors

PACKETS = int(os.environ.get("CLUSTER_BENCH_PACKETS", "4000"))
NODE_COUNTS = (1, 2, 4)
TOP_K = 10


def test_cluster_throughput_scaling(benchmark, bench_emit):
    result = benchmark.pedantic(
        lambda: run_cluster_scaling(
            scenario="zipf_mix", packet_count=PACKETS, node_counts=NODE_COUNTS, seed=19
        ),
        rounds=1,
        iterations=1,
    )
    rows = result["rows"]
    print()
    print(format_table(rows, title=f"cluster scaling — zipf_mix ({PACKETS} packets)"))

    by_nodes = {row["nodes"]: row for row in rows}
    assert set(by_nodes) == set(NODE_COUNTS)

    # Outcome totals are invariant under the node count (ring flow pinning).
    for row in rows:
        assert row["matches_single_path"], row

    # Aggregate throughput rises with node count: >= 2x at 4 nodes versus 1.
    rates = [by_nodes[nodes]["throughput_mdesc_s"] for nodes in NODE_COUNTS]
    assert rates == sorted(rates)
    assert by_nodes[4]["throughput_mdesc_s"] >= 2.0 * by_nodes[1]["throughput_mdesc_s"]
    benchmark.extra_info["rows"] = rows
    bench_emit("cluster", {
        f"nodes_{nodes}_mdesc_s": by_nodes[nodes]["throughput_mdesc_s"]
        for nodes in NODE_COUNTS
    })


def test_failover_accounting_is_exact(bench_emit):
    packets = max(800, PACKETS // 2)
    descriptors = scenario_descriptors("node_failover", packets, seed=29)
    coordinator = ClusterCoordinator(nodes=4, telemetry_seed=29)

    coordinator.ingest(descriptors[: packets // 2])
    assert coordinator.cluster_totals()["completed"] == packets // 2

    # A node joins: the live flows in its new arcs migrate onto it, losslessly.
    join = coordinator.add_node("joiner")
    assert join["migrated"] > 0
    assert join["lost"] == 0

    # A node is forced to fail: its live flows and sketches are lost.
    victim = max(coordinator.nodes, key=lambda n: coordinator.nodes[n].active_flows)
    at_failure = coordinator.nodes[victim].active_flows
    completed_by_victim = coordinator.nodes[victim].completed
    failure = coordinator.fail_node(victim)
    assert failure["lost"] == at_failure > 0

    coordinator.ingest(descriptors[packets // 2 :])

    # The books balance exactly: every descriptor completed on exactly one
    # node, surviving or failed, and hits + misses == completed throughout.
    totals = coordinator.cluster_totals()
    alive = coordinator.alive_totals()
    assert totals["completed"] == coordinator.ingested == packets
    assert totals["hits"] + totals["misses"] == totals["completed"]
    assert alive["completed"] == packets - completed_by_victim
    assert alive["hits"] + alive["misses"] == alive["completed"]

    # Migration and loss are reported explicitly, and losing flow state
    # costs re-learning: the cluster sees more new flows than the
    # uninterrupted single path would have.
    assert coordinator.flows_migrated >= join["migrated"]
    assert coordinator.flows_lost == failure["lost"]
    single = run_scenario_single("node_failover", packets, seed=29)
    relearned = totals["new_flows"] - single.totals()["new_flows"]
    assert 0 < relearned <= coordinator.flows_lost

    print()
    print(format_table(
        [
            {
                "packets": packets,
                "migrated": coordinator.flows_migrated,
                "lost": coordinator.flows_lost,
                "relearned_flows": relearned,
                "telemetry_pkts_lost": coordinator.telemetry_packets_lost,
                "balanced": totals["completed"] == coordinator.ingested,
            }
        ],
        title="fail-over accounting — node_failover",
    ))
    bench_emit("cluster", {
        "failover_migrated_flows": coordinator.flows_migrated,
        "failover_lost_flows": coordinator.flows_lost,
        "failover_relearned_flows": relearned,
    })


def _windowed_cluster_run(scenario, packets, nodes=5, seed=42, segments=16):
    """Drive a cluster with the full obs plane over a time-ordered stream.

    The stream is fed in ``segments`` slices so the windowed clock advances
    mid-run the way a live collector's would, and ``finalize_telemetry``
    flushes the partial tail window.  Returns (cluster, obs, descriptors).
    """
    descriptors = scenario_descriptors(scenario, packets, seed=seed)
    duration = descriptors[-1].timestamp_ps - descriptors[0].timestamp_ps
    obs = Observability(window_ps=duration // 8, spans=True, alerts=True)
    cluster = ClusterCoordinator(nodes=nodes, config=small_test_config(), obs=obs)
    step = max(1, packets // segments)
    for offset in range(0, packets, step):
        cluster.ingest(descriptors[offset : offset + step])
    cluster.finalize_telemetry()
    return cluster, obs, descriptors


def test_alert_detection_latency_acceptance(bench_emit):
    """ISSUE 8 acceptance: the shipped watchdogs detect the scripted
    hotspot shift within a bounded number of windows of its onset, and stay
    quiet on the steady-state workload.

    ``hotspot_shift`` re-aims its traffic concentration mid-stream;
    the ``node_imbalance`` rule (windowed per-node load skew over the
    default 1.8 threshold) must fire in the shift window or within two
    windows after it — detection latency is bounded by the window width,
    not by run length.  The same rules over ``zipf_mix`` must fire nothing
    at all.  When ``REPRO_OBS_DIR`` is set the run's windows, spans, and
    event journal are written there as JSONL for the CI report step.
    """
    cluster, obs, descriptors = _windowed_cluster_run("hotspot_shift", PACKETS)
    onset = obs.alerts.first_onset("node_imbalance")
    assert onset is not None, "node_imbalance never fired on hotspot_shift"

    windows = obs.windows.windows
    shift_ps = descriptors[len(descriptors) // 2].timestamp_ps
    shift_window = (shift_ps - windows[0].start_ps) // windows[0].width_ps
    windows_to_detect = onset.window - shift_window
    assert 0 <= windows_to_detect <= 2, (onset.window, shift_window)
    # The onset event carries the coordinator's point-of-onset diagnosis
    # and no other watchdog cried wolf on the way.
    assert onset.context["imbalance_detected"] is True
    assert {firing.rule for firing in obs.alerts.firings} == {"node_imbalance"}

    quiet_cluster, quiet_obs, _ = _windowed_cluster_run("zipf_mix", PACKETS)
    assert quiet_obs.alerts.firings == []
    assert quiet_cluster.cluster_totals()["completed"] == PACKETS

    obs_dir = os.environ.get("REPRO_OBS_DIR")
    if obs_dir:
        out = Path(obs_dir)
        out.mkdir(parents=True, exist_ok=True)
        obs.windows.write_jsonl(out / "hotspot_shift_windows.jsonl")
        obs.spans.write_jsonl(out / "hotspot_shift_spans.jsonl")
        obs.journal.write_jsonl(out / "hotspot_shift_journal.jsonl")

    print()
    print(format_table(
        [
            {
                "packets": PACKETS,
                "windows": len(windows),
                "window_ps": windows[0].width_ps,
                "onset_window": onset.window,
                "windows_to_detect": windows_to_detect,
                "onset_value": round(onset.value, 3),
                "quiet_firings": len(quiet_obs.alerts.firings),
            }
        ],
        title="alert detection latency — hotspot_shift vs zipf_mix (5 nodes)",
    ))
    bench_emit("cluster", {
        "alert_onset_window": onset.window,
        "alert_windows_to_detect": windows_to_detect,
        "alert_window_ps": windows[0].width_ps,
        "alert_onset_imbalance": round(onset.value, 4),
    })


def test_merged_topk_matches_exact_on_every_scenario():
    packets = max(600, PACKETS // 4)
    config = TelemetryConfig(heavy_hitter_capacity=8 * packets)
    rows = []
    for name in list_scenarios():
        coordinator = ClusterCoordinator(
            nodes=3, telemetry_config=config, telemetry_seed=37
        )
        coordinator.ingest(scenario_descriptors(name, packets, seed=37))
        merged = coordinator.merged_telemetry()

        stream = generate_scenario(name, packets, seed=37)
        flows = len({packet.key for packet in stream})

        # The summaries never filled, so the merge is exact: compare the
        # top-k lists directly, byte counts included, with the shared
        # deterministic (count desc, key) order so ties cannot flake.
        exact_top = exact_top_k(stream, TOP_K)
        merged_top = [
            (hitter.key, hitter.count)
            for hitter in sorted(
                merged.heavy_hitters.entries(), key=lambda h: (-h.count, h.key)
            )[:TOP_K]
        ]
        assert merged_top == exact_top, name
        assert merged.packets == packets
        rows.append(
            {
                "scenario": name,
                "flows": flows,
                f"top{TOP_K}_match": merged_top == exact_top,
                "heaviest_bytes": exact_top[0][1],
            }
        )
    print()
    print(format_table(
        rows, title=f"cluster-wide merged top-{TOP_K} vs exact ({packets} packets each)"
    ))
