"""Sharded engine — aggregate throughput scaling versus shard count.

No paper reference: this is the scale-out extension of the prototype.  Two
properties are checked.  First, aggregate (simulated) throughput of N
cycle-accurate devices behind the engine's steering scales with the shard
count on the realistic ``zipf_mix`` workload — at least 2x with 4 shards
versus 1.  Second, sharding is *transparent*: for every named scenario, the
sharded engine's hit / miss / new-flow totals equal the single-LUT
per-packet path's, because flows are pinned to shards by key hash.

Set ``SHARDED_BENCH_PACKETS`` to shrink or grow the workload (CI smoke runs
use a small value).
"""

import os

from repro.core.config import small_test_config
from repro.engine import ShardedFlowLUT, sharded_vs_single
from repro.obs import Observability, Stopwatch
from repro.reporting import format_table, run_sharded_scaling
from repro.traffic import list_scenarios, scenario_descriptors

PACKETS = int(os.environ.get("SHARDED_BENCH_PACKETS", "4000"))
SHARD_COUNTS = (1, 2, 4, 8)


def test_sharded_throughput_scaling(benchmark, bench_emit):
    result = benchmark.pedantic(
        lambda: run_sharded_scaling(
            scenario="zipf_mix", packet_count=PACKETS, shard_counts=SHARD_COUNTS, seed=17
        ),
        rounds=1,
        iterations=1,
    )
    rows = result["rows"]
    print()
    print(format_table(rows, title=f"sharded scaling — zipf_mix ({PACKETS} packets)"))

    by_shards = {row["shards"]: row for row in rows}
    assert set(by_shards) == set(SHARD_COUNTS)

    # Outcome totals are invariant under sharding.
    for row in rows:
        assert row["matches_single_path"], row

    # Aggregate throughput rises monotonically with the shard count and
    # reaches at least 2x at 4 shards versus 1.
    rates = [by_shards[shards]["throughput_mdesc_s"] for shards in SHARD_COUNTS]
    assert rates == sorted(rates)
    assert by_shards[4]["throughput_mdesc_s"] >= 2.0 * by_shards[1]["throughput_mdesc_s"]
    benchmark.extra_info["rows"] = rows
    bench_emit("sharded_engine", {
        f"shards_{shards}_mdesc_s": by_shards[shards]["throughput_mdesc_s"]
        for shards in SHARD_COUNTS
    })


def test_sharded_matches_single_path_on_every_scenario():
    packets = max(600, PACKETS // 4)
    rows = []
    for name in list_scenarios():
        comparison = sharded_vs_single(name, packets, shards=4, seed=23)
        sharded, single = comparison["sharded"], comparison["single"]
        rows.append(
            {
                "scenario": name,
                "hits": sharded.hits,
                "misses": sharded.misses,
                "new_flows": sharded.new_flows,
                "equivalent": comparison["equivalent"],
            }
        )
        assert comparison["equivalent"], (name, sharded.totals(), single.totals())
    print()
    print(format_table(rows, title=f"sharded vs single-LUT totals ({packets} packets each)"))


def _drive(descriptors, obs, batch_size=256):
    """One sharded run over ``descriptors``; returns (engine, host wall s)."""
    engine = ShardedFlowLUT(shards=4, config=small_test_config(), obs=obs)
    watch = Stopwatch()
    for offset in range(0, len(descriptors), batch_size):
        engine.process_batch(descriptors[offset : offset + batch_size])
    return engine, watch.elapsed_s


def test_obs_instrumentation_overhead_smoke(bench_emit):
    """The observability overhead gate (ISSUE 6 + ISSUE 8 acceptance).

    Simulated results must be unchanged by instrumentation (the obs plane
    reads the host clock, not the simulated one) — the obs-on and obs-off
    runs execute one ingest body, over a recording or a no-op stage timer —
    and the host-side wall-clock cost of the enabled path must stay small.
    The instrumented run carries the *full* time-resolved plane — metrics
    plus tumbling windows plus span tracing at the default 1-in-16
    sampling — so the gate covers what a production run would actually
    enable.  Wall-clock is compared best-of-3 so a CI scheduler hiccup
    cannot flip the gate; the bound is deliberately loose (1.5x) and the
    measured host ratio is *reported* in BENCH_sharded_engine.json where
    the trajectory can be watched.
    """
    packets = max(800, PACKETS // 2)
    descriptors = scenario_descriptors("zipf_mix", packets, seed=17)
    duration_ps = descriptors[-1].timestamp_ps - descriptors[0].timestamp_ps

    planes = [
        Observability(window_ps=max(1, duration_ps // 8), spans=True)
        for _ in range(3)
    ]

    runs = [_drive(descriptors, obs=None) for _ in range(3)]
    plain_engine, plain_wall = runs[0][0], min(wall for _, wall in runs)
    instrumented = [_drive(descriptors, obs=obs_plane) for obs_plane in planes]
    obs_engine, obs_wall = instrumented[0][0], min(wall for _, wall in instrumented)

    # Simulated results are bit-identical: same totals, same elapsed ps.
    assert obs_engine.completed == plain_engine.completed == packets
    assert (obs_engine.hits, obs_engine.misses, obs_engine.new_flows) == (
        plain_engine.hits, plain_engine.misses, plain_engine.new_flows
    )
    assert obs_engine.elapsed_ps == plain_engine.elapsed_ps

    # Host-side cost of the instrumented twin stays bounded.
    wall_ratio = obs_wall / plain_wall if plain_wall > 0 else 1.0
    assert wall_ratio <= 1.5, (obs_wall, plain_wall)

    registry = obs_engine.obs
    stage_count = registry.histogram(
        "repro_engine_stage_ns",
        "Host-side duration of each batch stage (hash/steer/probe/pack/telemetry)",
        labels=("stage",),
    )
    samples = {labels["stage"]: child.count for labels, child in stage_count.samples()}
    assert samples["steer"] == samples["probe"] == obs_engine.batches

    # The time-resolved layers actually ran: windows closed on the
    # simulated clock, spans were sampled at the default 1-in-16 rate.
    obs_plane = planes[0]
    obs_plane.flush_windows()
    windowed_total = sum(
        w.total("repro_engine_shard_descriptors_total")
        for w in obs_plane.windows.windows
    )
    assert windowed_total == float(obs_engine.completed)
    assert obs_plane.spans.roots_seen == obs_engine.batches
    expected_sampled = -(-obs_engine.batches // obs_plane.spans.sample_every)
    assert obs_plane.spans.roots_sampled == expected_sampled

    print()
    print(format_table(
        [
            {
                "packets": packets,
                "plain_wall_ms": round(plain_wall * 1e3, 1),
                "obs_wall_ms": round(obs_wall * 1e3, 1),
                "host_wall_ratio": round(wall_ratio, 3),
            }
        ],
        title="observability overhead — instrumented vs plain sharded engine",
    ))
    bench_emit("sharded_engine", {"obs_host_wall_ratio": round(wall_ratio, 3)})
