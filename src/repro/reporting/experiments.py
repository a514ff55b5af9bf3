"""Experiment runners — one per paper table/figure.

Each ``run_*`` function builds its workload, drives the relevant models and
returns a dict with ``rows`` (measured) and ``paper`` (published reference
values).  The benchmark scripts under ``benchmarks/`` call these and print a
side-by-side comparison; EXPERIMENTS.md records a captured run.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.core.config import FlowLUTConfig, PROTOTYPE_CONFIG, small_test_config
from repro.core.flow_lut import FlowLUT
from repro.core.harness import run_lookup_experiment
from repro.core.resources import estimate_resources
from repro.memory.bandwidth import burst_group_utilisation
from repro.memory.commands import MemoryOp
from repro.memory.dram import DDR3Device
from repro.memory.timing import DDR3_1066_187E, DDR3Geometry, DDR3Timing
from repro.net.ethernet import required_packet_rate_mpps, achievable_link_gbps
from repro.net.packet import MIN_L1_FRAME_BYTES
from repro.reporting.paper import (
    PAPER_DISCUSSION,
    PAPER_FIG3,
    PAPER_FIG6,
    PAPER_TABLE2A,
    PAPER_TABLE2B,
)
from repro.cluster import ClusterCoordinator
from repro.core.resources import PAPER_TABLE1
from repro.engine import (
    replay_timed,
    run_scenario_sharded,
    run_scenario_single,
    run_scenario_timed,
)
from repro.net.parser import DescriptorExtractor
from repro.obs import Stopwatch
from repro.traffic.scenarios import scenario_descriptors
from repro.telemetry import TelemetryConfig, TelemetryPipeline
from repro.traffic.flows import SyntheticTraceGenerator, analyze_new_flow_ratio
from repro.traffic.generators import descriptors_from_keys, match_rate_workload, random_flow_keys
from repro.traffic.patterns import bank_increment_patterns, random_hash_patterns
from repro.traffic.scenarios import generate_scenario, list_scenarios


# --------------------------------------------------------------------------- #
# Figure 3 — DDR3 DQ bandwidth utilisation versus burst-group size
# --------------------------------------------------------------------------- #


def simulate_burst_groups(
    timing: DDR3Timing,
    bursts_per_direction: int,
    groups: int = 64,
    geometry: Optional[DDR3Geometry] = None,
) -> float:
    """Drive the DDR3 device model with the Figure 3 access pattern.

    Each group issues ``bursts_per_direction`` reads then the same number of
    writes to one row of bank 0, each group targeting a fresh row (as a hash
    table workload does).  Returns the measured DQ utilisation, which should
    agree with the analytical model to within a few percent.
    """
    geometry = geometry or DDR3Geometry()
    device = DDR3Device(timing, geometry, refresh_enabled=False)
    now = 0
    for group in range(groups):
        row = group % geometry.rows
        for direction in (MemoryOp.READ, MemoryOp.WRITE):
            for _ in range(bursts_per_direction):
                result = device.access(direction, 0, row, 0, now_ps=now)
                now = result.cas_ps
    return device.dq_utilisation()


def run_fig3_bandwidth(
    burst_counts: Sequence[int] = (1, 2, 4, 8, 16, 24, 35),
    timing: DDR3Timing = DDR3_1066_187E,
    simulate: bool = True,
    groups: int = 64,
) -> dict:
    """Regenerate Figure 3: DQ utilisation versus same-row burst-group size."""
    rows = []
    for count in burst_counts:
        row = {
            "bursts": count,
            "utilisation_analytic": burst_group_utilisation(timing, count),
        }
        if simulate:
            row["utilisation_simulated"] = simulate_burst_groups(timing, count, groups=groups)
        rows.append(row)
    return {"timing": timing.name, "rows": rows, "paper": PAPER_FIG3}


# --------------------------------------------------------------------------- #
# Table I — on-chip resource usage
# --------------------------------------------------------------------------- #


def run_table1_resources(config: FlowLUTConfig = PROTOTYPE_CONFIG) -> dict:
    """Regenerate the Table I analogue: the architecture's storage budget."""
    report = estimate_resources(config)
    return {
        "rows": [
            {
                "quantity": "block_memory_bits",
                "measured": report.block_memory_bits,
                "paper": PAPER_TABLE1["block_memory_bits"],
            },
            {
                "quantity": "registers",
                "measured": report.register_estimate(),
                "paper": PAPER_TABLE1["registers"],
            },
            {
                "quantity": "alms",
                "measured": "not reproducible in Python",
                "paper": PAPER_TABLE1["alms"],
            },
        ],
        "breakdown": {
            name: bits
            for name, bits in report.breakdown_bits.items()
            if not name.startswith("_")
        },
        "paper": PAPER_TABLE1,
    }


# --------------------------------------------------------------------------- #
# Table II(A) — hash patterns, load balancing and bank selection
# --------------------------------------------------------------------------- #


def run_table2a_load_balance(
    descriptor_count: int = 5000,
    input_rate_hz: float = 100e6,
    config: Optional[FlowLUTConfig] = None,
    seed: int = 5,
) -> dict:
    """Regenerate Table II(A): rate versus hash pattern and path-A load."""
    base = config or small_test_config()
    rows = []

    # Random hash values with the hash-based load balancer (paper row 1).
    lut = FlowLUT(base)
    patterns = random_hash_patterns(descriptor_count, base, seed=seed)
    result = run_lookup_experiment(lut, patterns, input_rate_hz=input_rate_hz)
    rows.append(
        {
            "pattern": "random",
            "path_a_load": round(result.path_a_load, 3),
            "rate_mdesc_s": round(result.throughput_mdesc_s, 2),
        }
    )

    # Unique hash with bank increment at 50 / 25 / 0 % load on path A.
    for fraction in (0.5, 0.25, 0.0):
        cfg = base.with_overrides(load_balance_policy="fixed", path_a_fraction=fraction)
        lut = FlowLUT(cfg)
        patterns = bank_increment_patterns(descriptor_count, cfg, seed=seed)
        result = run_lookup_experiment(lut, patterns, input_rate_hz=input_rate_hz)
        rows.append(
            {
                "pattern": "bank_increment",
                "path_a_load": round(result.path_a_load, 3),
                "rate_mdesc_s": round(result.throughput_mdesc_s, 2),
            }
        )
    return {"rows": rows, "paper": PAPER_TABLE2A}


# --------------------------------------------------------------------------- #
# Table II(B) — processing rate versus flow miss rate
# --------------------------------------------------------------------------- #


def run_table2b_miss_rate(
    table_entries: int = 10_000,
    query_count: int = 5000,
    miss_rates: Sequence[float] = (1.0, 0.75, 0.5, 0.25, 0.0),
    input_rate_hz: float = 100e6,
    config: Optional[FlowLUTConfig] = None,
    seed: int = 7,
) -> dict:
    """Regenerate Table II(B): rate versus miss rate on a pre-populated table."""
    base = config or small_test_config()
    table_keys = random_flow_keys(table_entries, seed=seed)
    table_descriptors = descriptors_from_keys(table_keys)
    rows = []
    for miss_rate in miss_rates:
        lut = FlowLUT(base)
        lut.preload([descriptor.key_bytes for descriptor in table_descriptors])
        queries = match_rate_workload(
            table_keys, query_count, match_fraction=1.0 - miss_rate, seed=seed + 1
        )
        result = run_lookup_experiment(lut, queries, input_rate_hz=input_rate_hz)
        rows.append(
            {
                "miss_rate": miss_rate,
                "measured_miss_rate": round(result.miss_rate, 3),
                "rate_mdesc_s": round(result.throughput_mdesc_s, 2),
            }
        )
    return {"rows": rows, "paper": PAPER_TABLE2B, "table_entries": table_entries}


# --------------------------------------------------------------------------- #
# Figure 6 — new-flow / packet ratio of the (synthetic) trace
# --------------------------------------------------------------------------- #


def run_fig6_flow_ratio(
    checkpoints: Sequence[int] = (1_000, 10_000, 100_000),
    seed: int = 42,
) -> dict:
    """Regenerate Figure 6 from the calibrated synthetic trace."""
    generator = SyntheticTraceGenerator(seed=seed)
    largest = max(checkpoints)
    measurements = analyze_new_flow_ratio(generator.packets(largest), checkpoints)
    rows = [
        {"packets": packets, "distinct_flows": flows, "new_flow_ratio": round(ratio, 4)}
        for packets, flows, ratio in measurements
    ]
    return {"rows": rows, "paper": PAPER_FIG6}


# --------------------------------------------------------------------------- #
# Section V-B — line-rate feasibility discussion
# --------------------------------------------------------------------------- #


def run_linerate_feasibility(
    table2b: Optional[dict] = None,
    link_gbps: float = 40.0,
) -> dict:
    """Regenerate the Section V-B arithmetic and feasibility conclusions."""
    requirement_standard = required_packet_rate_mpps(link_gbps, MIN_L1_FRAME_BYTES, 12)
    requirement_worst = required_packet_rate_mpps(link_gbps, MIN_L1_FRAME_BYTES, 1)

    rows = [
        {
            "quantity": f"required Mpps at {link_gbps:g} GbE (12 B IPG)",
            "measured": round(requirement_standard, 2),
            "paper": PAPER_DISCUSSION["standard_ipg_mpps_40g"],
        },
        {
            "quantity": f"required Mpps at {link_gbps:g} GbE (1 B IPG)",
            "measured": round(requirement_worst, 2),
            "paper": PAPER_DISCUSSION["worst_case_ipg_mpps_40g"],
        },
    ]

    if table2b is None:
        table2b = run_table2b_miss_rate(query_count=3000)
    by_miss = {row["miss_rate"]: row["rate_mdesc_s"] for row in table2b["rows"]}
    below_half_rates = [rate for miss, rate in by_miss.items() if miss <= 0.5]
    if below_half_rates:
        sustained = min(below_half_rates)
        rows.append(
            {
                "quantity": "rate at <=50% miss (Mdesc/s)",
                "measured": round(sustained, 2),
                "paper": PAPER_DISCUSSION["rate_below_50pct_miss_mdesc_s"],
            }
        )
    if 0.0 in by_miss:
        warm = by_miss[0.0]
        rows.append(
            {
                "quantity": "warm-table rate (Mdesc/s)",
                "measured": round(warm, 2),
                "paper": PAPER_DISCUSSION["rate_at_2pct_miss_mdesc_s"],
            }
        )
        rows.append(
            {
                "quantity": "achievable Gbps at warm-table rate (72 B frames)",
                "measured": round(achievable_link_gbps(warm), 2),
                "paper": PAPER_DISCUSSION["claimed_throughput_gbps"],
            }
        )
    return {"rows": rows, "paper": PAPER_DISCUSSION}


# --------------------------------------------------------------------------- #
# Telemetry — scenario sweep (extension beyond the paper's tables)
# --------------------------------------------------------------------------- #


def run_telemetry_scenarios(
    scenario_names: Optional[Sequence[str]] = None,
    packet_count: int = 10_000,
    seed: int = 11,
    telemetry_config: Optional[TelemetryConfig] = None,
    top_k: int = 10,
) -> dict:
    """Drive the telemetry pipeline across the named workload scenarios.

    For each scenario the pipeline runs in standalone (sketch-only) mode over
    ``packet_count`` packets while an exact per-flow tally is kept alongside,
    yielding one row per scenario: sustained packets/sec of the measurement
    plane, sketch accuracy against the exact counts (Count-Min mean relative
    error, heavy-hitter recall at ``top_k``), memory footprints and the
    anomaly flags the scenario is designed to exercise.  There is no paper
    reference for this table — it is the extension workload suite.
    """
    if packet_count <= 0:
        raise ValueError("packet_count must be positive")
    names = list(scenario_names) if scenario_names is not None else list_scenarios()
    rows = []
    for name in names:
        packets = generate_scenario(name, packet_count, seed=seed)
        pipeline = TelemetryPipeline(telemetry_config, seed=seed)
        watch = Stopwatch()
        pipeline.observe_packets(packets)
        elapsed = watch.elapsed_s

        exact: dict = {}
        for packet in packets:
            packets_so_far, bytes_so_far = exact.get(packet.key, (0, 0))
            exact[packet.key] = (packets_so_far + 1, bytes_so_far + packet.length_bytes)
        comparison = pipeline.compare_with_exact(
            ((key, packets_, bytes_) for key, (packets_, bytes_) in exact.items()),
            top_k=top_k,
        )

        rows.append(
            {
                "scenario": name,
                "packets": packet_count,
                "kpps": round(packet_count / elapsed / 1e3, 1),
                "flows": comparison["flows"],
                "cm_rel_err": round(comparison["cm_mean_relative_error"], 4),
                f"hh_recall@{top_k}": round(comparison["heavy_hitter_recall"], 2),
                "sketch_kB": round(comparison["sketch_memory_bytes"] / 1024, 1),
                "exact_kB": round(comparison["exact_memory_bytes"] / 1024, 1),
                "syn_flood": pipeline.syn_flood_detected,
                "port_scan": pipeline.port_scan_detected,
            }
        )
    return {"rows": rows, "packet_count": packet_count, "seed": seed}


# --------------------------------------------------------------------------- #
# Sharded engine — throughput scaling versus shard count (extension)
# --------------------------------------------------------------------------- #


# --------------------------------------------------------------------------- #
# Cluster layer — aggregate throughput versus node count (extension)
# --------------------------------------------------------------------------- #


def _scaling_row(
    axis: str, size: int, totals: dict, throughput_mdesc_s: float, load_imbalance: float, baseline
) -> dict:
    """One row of a scale-out sweep, judged against the single-LUT baseline."""
    return {
        axis: size,
        **totals,
        "throughput_mdesc_s": round(throughput_mdesc_s, 2),
        "speedup_vs_single": round(throughput_mdesc_s / baseline.throughput_mdesc_s, 2)
        if baseline.throughput_mdesc_s
        else 0.0,
        "load_imbalance": round(load_imbalance, 3),
        "matches_single_path": totals == baseline.totals(),
    }


def run_cluster_scaling(
    scenario: str = "zipf_mix",
    packet_count: int = 4000,
    node_counts: Sequence[int] = (1, 2, 4),
    seed: int = 19,
    config: Optional[FlowLUTConfig] = None,
    shards_per_node: int = 1,
    batch_size: int = 512,
    telemetry: bool = False,
) -> dict:
    """Replay one scenario through the cluster layer at several node counts.

    The single-LUT per-packet path is the baseline; each row reports the
    cluster's aggregate (simulated) throughput — nodes are independent
    machines, so the cluster finishes in the slowest node's time — its
    speedup over the baseline, the observed load imbalance across nodes,
    and the outcome totals, which must be invariant under the node count
    because the ring pins every flow to one node.  Totals and imbalance
    come from the coordinator's own ingest; the simulated clock comes from
    replaying each node's ring share on cycle-accurate devices
    (:func:`~repro.engine.runner.replay_timed`).  Telemetry is off by
    default (this experiment measures the lookup plane); turn it on to
    also exercise the per-node sketch pipelines.  There is no paper
    reference: this is the scale-out tier above the PR-2 sharded engine.
    """
    baseline = run_scenario_single(scenario, packet_count, seed=seed, config=config)
    descriptors = scenario_descriptors(scenario, packet_count, seed=seed)
    rows = []
    for nodes in node_counts:
        coordinator = ClusterCoordinator(
            nodes=nodes,
            config=config,
            shards_per_node=shards_per_node,
            telemetry=telemetry,
            telemetry_seed=seed,
            batch_size=batch_size,
        )
        coordinator.ingest(descriptors)
        totals = coordinator.cluster_totals()
        # The simulated clock: every node's ring share, in the sub-batches
        # the node ingested it in, through cycle-accurate devices.
        shares: dict = {}
        for descriptor in descriptors:
            shares.setdefault(coordinator.owner_of(descriptor.key_bytes), []).append(descriptor)
        elapsed_ps = max(
            device.elapsed_ps
            for share in shares.values()
            for device in replay_timed(share, shards_per_node, coordinator.config, batch_size)
        )
        throughput_mdesc_s = totals["completed"] * 1e6 / elapsed_ps if elapsed_ps > 0 else 0.0
        rows.append(
            _scaling_row(
                "nodes", nodes, totals, throughput_mdesc_s, coordinator.load_imbalance, baseline
            )
        )
    return {
        "scenario": scenario,
        "packet_count": packet_count,
        "seed": seed,
        "shards_per_node": shards_per_node,
        "single_path_mdesc_s": round(baseline.throughput_mdesc_s, 2),
        "rows": rows,
    }


def exact_top_k(packets: Iterable, top_k: int = 10) -> List[tuple]:
    """The exact per-flow byte tally's top-k as ``(packed_key, bytes)``
    pairs, ordered (count descending, then key) exactly like
    :func:`merged_top_k` — the two sides of every top-k fidelity
    assertion must share one tie-break or the comparison can flake."""
    totals: dict = {}
    for packet in packets:
        key = packet.key.pack()
        totals[key] = totals.get(key, 0) + packet.length_bytes
    return sorted(totals.items(), key=lambda item: (-item[1], item[0]))[:top_k]


def merged_top_k(coordinator: ClusterCoordinator, top_k: int = 10) -> List[tuple]:
    """The cluster-wide heavy-hitter top-k, deterministically ordered
    (count descending, then key — so ties cannot flake a comparison).
    Shared by the durability experiment and ``bench_durability.py`` so
    both compare exactly the same view."""
    merged = coordinator.merged_telemetry()
    return [
        (hitter.key, hitter.count)
        for hitter in sorted(
            merged.heavy_hitters.entries(), key=lambda h: (-h.count, h.key)
        )[:top_k]
    ]


def run_durability_comparison(
    scenario_names: Sequence[str] = ("node_failover", "churn"),
    packet_count: int = 3000,
    checkpoint_intervals: Sequence[int] = (64, 256),
    nodes: int = 4,
    seed: int = 43,
    config: Optional[FlowLUTConfig] = None,
    telemetry_config: Optional[TelemetryConfig] = None,
    batch_size: int = 128,
    top_k: int = 10,
) -> dict:
    """The durability trade-off: checkpoint intervals versus k=2 replication.

    For each scenario, the same stream is replayed through identical
    clusters that differ only in their protection, with the busiest node
    forced to fail mid-run: *unprotected* (the PR-3 behaviour — losses
    counted, nothing recovered), *checkpointing* at each interval (losses
    shrink to the since-last-checkpoint delta; the retained snapshot bytes
    are the durability footprint), and *k=2 replication* (failover is
    lossless for replicated keys; the replica stores and backup pipelines
    are the memory cost).  A no-failure baseline anchors the merged
    top-``top_k`` comparison; ``ingest_slowdown`` divides each mode's
    host wall-clock by the *unprotected failure run's* — the same
    membership history — so it attributes the protection's overhead
    rather than the failure's.  Every row's books must balance
    (``hits + misses == packets`` and the flow-conservation identity);
    ``balanced`` reports it.  There is no paper reference — this is the
    scale-out durability tier above the cluster layer.
    """
    if packet_count <= 0:
        raise ValueError("packet_count must be positive")
    telemetry_config = telemetry_config or TelemetryConfig(
        heavy_hitter_capacity=max(1024, 2 * packet_count)
    )

    def build(**overrides) -> ClusterCoordinator:
        return ClusterCoordinator(
            nodes=nodes,
            config=config,
            telemetry_config=telemetry_config,
            telemetry_seed=seed,
            batch_size=batch_size,
            **overrides,
        )

    def run(coordinator: ClusterCoordinator, descriptors: Sequence, fail: bool) -> dict:
        watch = Stopwatch()
        coordinator.ingest(descriptors[: packet_count // 2])
        victim = None
        if fail:
            victim = max(
                coordinator.nodes, key=lambda n: coordinator.nodes[n].active_flows
            )
            coordinator.fail_node(victim)
        coordinator.ingest(descriptors[packet_count // 2 :])
        return {"victim": victim, "wall_s": watch.elapsed_s}

    rows = []
    for scenario in scenario_names:
        # Descriptors are plain data; one generation serves every mode.
        descriptors = scenario_descriptors(
            scenario, packet_count, seed=seed, extractor=DescriptorExtractor()
        )
        baseline = build()
        run(baseline, descriptors, fail=False)
        baseline_top = merged_top_k(baseline, top_k)
        unprotected_wall = 0.0

        modes: List[tuple] = [("unprotected", {})]
        modes.extend(
            (f"checkpoint@{interval}", {"checkpoint_interval": interval})
            for interval in checkpoint_intervals
        )
        modes.append(("replica_k2", {"replication": 2}))

        for mode, overrides in modes:
            coordinator = build(**overrides)
            outcome = run(coordinator, descriptors, fail=True)
            if mode == "unprotected":
                # The denominator for every mode: same stream, same
                # failure, no protection — so the ratio isolates the
                # protection's overhead, not the failure's.
                unprotected_wall = outcome["wall_s"]
            totals = coordinator.cluster_totals()
            books = coordinator.flow_books()
            extra_memory = (
                coordinator.replica_memory_bytes + coordinator.checkpoint_bytes
            )
            rows.append(
                {
                    "scenario": scenario,
                    "mode": mode,
                    "flows_lost": coordinator.flows_lost,
                    "flows_restored": coordinator.flows_restored,
                    "telemetry_pkts_lost": coordinator.telemetry_packets_lost,
                    f"top{top_k}_match": merged_top_k(coordinator, top_k)
                    == baseline_top,
                    "extra_memory_kB": round(extra_memory / 1024, 1),
                    "ingest_slowdown": round(outcome["wall_s"] / unprotected_wall, 2)
                    if unprotected_wall > 0
                    else 0.0,
                    "balanced": (
                        totals["completed"] == coordinator.ingested == packet_count
                        and totals["hits"] + totals["misses"] == totals["completed"]
                        and books["balanced"]
                    ),
                }
            )
    return {
        "packet_count": packet_count,
        "nodes": nodes,
        "seed": seed,
        "checkpoint_intervals": list(checkpoint_intervals),
        "top_k": top_k,
        "rows": rows,
    }


def run_rebalance_policy(
    scenario: str = "hotspot_shift",
    packet_count: int = 8000,
    nodes: int = 5,
    windows: int = 16,
    segments: int = 32,
    seed: int = 42,
    config: Optional[FlowLUTConfig] = None,
    telemetry_config: Optional[TelemetryConfig] = None,
    rebalance: Optional[object] = None,
    autoscale: Optional[object] = None,
    convergence_target: float = 1.5,
    top_k: int = 10,
) -> dict:
    """The closed control loop versus a static fleet on the same stream.

    Two identical clusters replay the same descriptor stream in
    ``segments`` slices under a windowed obs plane (``windows`` tumbling
    windows over the stream's duration); one carries a
    :class:`~repro.cluster.control.ClusterControl` stepped between
    segments, the other is the static reference.  The output makes
    **migration cost and convergence time first-class figures**:

    * one row per window with both runs' windowed load imbalance and the
      actions the policy applied there,
    * ``onset_window`` (first window whose imbalance crosses the policy's
      engage line), ``converged_window`` (first window at or after onset
      back at or below ``convergence_target``) and their difference
      ``windows_to_converge`` — the figure the acceptance gate bounds,
    * ``flows_moved`` / ``migration_fraction`` (moved over created) — what
      the convergence cost in migrations,
    * the correctness locks: both runs' conservation books balanced,
      outcome totals identical, merged heavy-hitter top-``top_k``
      bit-identical (pins and weight shifts must never change *what* is
      measured, only *where*).

    ``rebalance`` / ``autoscale`` default to a fresh
    :class:`~repro.cluster.control.RebalancePolicy` and no autoscaler;
    pass policies to override.  The per-window trajectory assumes a fixed
    fleet — run autoscale demos through the coordinator report instead.
    There is no paper reference: this closes the loop over the PR-8
    windowed observability, the step the roadmap's elastic-system item
    describes.
    """
    from repro.cluster.control import ClusterControl, RebalancePolicy
    from repro.cluster.load_signal import window_node_loads
    from repro.obs import Observability
    from repro.sim.stats import busiest_over_mean

    if packet_count <= 0:
        raise ValueError("packet_count must be positive")
    if windows < 2 or segments < windows:
        raise ValueError("need windows >= 2 and segments >= windows")
    if rebalance is None and autoscale is None:
        rebalance = RebalancePolicy()
    telemetry_config = telemetry_config or TelemetryConfig(
        heavy_hitter_capacity=max(1024, 8 * packet_count)
    )
    descriptors = scenario_descriptors(
        scenario, packet_count, seed=seed, extractor=DescriptorExtractor()
    )
    duration = descriptors[-1].timestamp_ps - descriptors[0].timestamp_ps
    window_ps = max(1, duration // windows)
    step = max(1, packet_count // segments)

    def drive(with_control: bool):
        obs = Observability(window_ps=window_ps, alerts=True)
        coordinator = ClusterCoordinator(
            nodes=nodes,
            config=config,
            telemetry_config=telemetry_config,
            telemetry_seed=seed,
            obs=obs,
        )
        control = (
            ClusterControl(coordinator, rebalance=rebalance, autoscale=autoscale)
            if with_control
            else None
        )
        watch = Stopwatch()
        for offset in range(0, packet_count, step):
            coordinator.ingest(descriptors[offset : offset + step])
            if control is not None:
                control.step()
        coordinator.finalize_telemetry()
        if control is not None:
            control.step()
        return coordinator, obs, control, watch.elapsed_s

    static, static_obs, _, static_wall = drive(False)
    policy, policy_obs, control, policy_wall = drive(True)

    def trajectory(coordinator, obs):
        per_window = (
            window_node_loads([w], coordinator.nodes) for w in obs.windows.windows
        )
        return [round(busiest_over_mean(loads.values()), 4) for loads in per_window]

    static_curve = trajectory(static, static_obs)
    policy_curve = trajectory(policy, policy_obs)
    actions_by_window: dict = {}
    if control is not None:
        for action in control.actions:
            actions_by_window.setdefault(action.window, []).append(action.kind)
    rows = [
        {
            "window": index,
            "static_imbalance": static_curve[index],
            "policy_imbalance": policy_curve[index],
            "actions": ",".join(actions_by_window.get(index, [])),
        }
        for index in range(min(len(static_curve), len(policy_curve)))
    ]

    engage = rebalance.engage if rebalance is not None else convergence_target
    onset_window = next(
        (index for index, value in enumerate(policy_curve) if value > engage), None
    )
    converged_window = None
    if onset_window is not None:
        converged_window = next(
            (
                index
                for index in range(onset_window, len(policy_curve))
                if policy_curve[index] <= convergence_target
            ),
            None,
        )

    books_static = static.flow_books()
    books_policy = policy.flow_books()
    moved = control.flows_moved if control is not None else 0
    return {
        "scenario": scenario,
        "packet_count": packet_count,
        "nodes": nodes,
        "seed": seed,
        "window_ps": window_ps,
        "rows": rows,
        "onset_window": onset_window,
        "converged_window": converged_window,
        "windows_to_converge": (
            converged_window - onset_window
            if onset_window is not None and converged_window is not None
            else None
        ),
        "convergence_target": convergence_target,
        "actions": [action.as_dict() for action in control.actions]
        if control is not None
        else [],
        "flows_moved": moved,
        "migration_fraction": (
            round(moved / books_policy["flows_created"], 4)
            if books_policy["flows_created"]
            else 0.0
        ),
        "control": control.report() if control is not None else None,
        "totals_match": policy.cluster_totals() == static.cluster_totals(),
        f"top{top_k}_match": merged_top_k(policy, top_k) == merged_top_k(static, top_k),
        "books_balanced": books_static["balanced"] and books_policy["balanced"],
        "static_wall_s": static_wall,
        "policy_wall_s": policy_wall,
        "alert_onset": (
            policy_obs.alerts.first_onset("node_imbalance").window
            if policy_obs.alerts.first_onset("node_imbalance") is not None
            else None
        ),
    }


def run_trace_replay(
    scenario: str = "zipf_mix",
    packet_count: int = 3000,
    trace_path: Optional[str] = None,
    shards: int = 4,
    nodes: int = 3,
    seed: int = 31,
    config: Optional[FlowLUTConfig] = None,
    batch_size: int = 512,
    top_k: int = 10,
    byte_order: str = "little",
    resolution: str = "us",
) -> dict:
    """Record a scenario to pcap, replay the capture through all three
    engine paths, and export the flow state as NetFlow v5.

    The recorded capture becomes a ``trace:<path>`` scenario, so the
    single-LUT, sharded and cluster paths replay it through exactly the
    machinery that replays the synthetic original — one row per path,
    each checked against the synthetic run's outcome totals (pcap stores
    microsecond timestamps, but flow identity, packet order, lengths and
    flags survive recording, so the books must match exactly).  The
    cluster row also reports the merged heavy-hitter top-``top_k`` versus
    the replayed stream's exact tally, and the NetFlow round trip: every
    record the cluster exported, re-decoded from the spec-layout
    datagrams.  Pass ``trace_path`` to replay an existing capture instead
    of recording one (the synthetic-equivalence column then compares the
    trace against itself and is trivially true).  There is no paper
    reference — this is the interchange tier above the cluster layer.
    """
    import tempfile
    from pathlib import Path

    from repro.trace import NetFlowV5Exporter, decode_netflow_v5, read_pcap, write_pcap
    from repro.trace.scenarios import PCAP_SUFFIXES, trace_packets
    from repro.telemetry import TelemetryConfig

    if packet_count <= 0:
        raise ValueError("packet_count must be positive")
    scratch: Optional[tempfile.TemporaryDirectory] = None
    if trace_path is None:
        scratch = tempfile.TemporaryDirectory(prefix="trace_replay_")
    try:
        if scratch is not None:
            trace_path = f"{scratch.name}/{scenario}.pcap"
            write_pcap(
                trace_path,
                generate_scenario(scenario, packet_count, seed=seed),
                byte_order=byte_order,
                resolution=resolution,
            )
            baseline = run_scenario_single(scenario, packet_count, seed=seed, config=config)
        # pcap traces carry skip accounting; CSV traces (also valid
        # trace:<path> inputs) just report their packet count.
        if Path(trace_path).suffix.lower() in PCAP_SUFFIXES:
            capture_stats = read_pcap(trace_path).stats()
        else:
            capture_stats = {"frames": len(trace_packets(trace_path)),
                             "converted": len(trace_packets(trace_path))}
        trace_name = f"trace:{trace_path}"

        rows = []
        single = run_scenario_single(trace_name, packet_count, config=config)
        if scratch is None:
            # Replaying an existing capture: the trace itself is the
            # baseline, and the single-path replay already is that run.
            baseline = single
        rows.append(
            {
                "path": "single",
                **single.totals(),
                "throughput_mdesc_s": round(single.throughput_mdesc_s, 2),
                "matches_synthetic": single.totals() == baseline.totals(),
            }
        )
        sharded = run_scenario_sharded(
            trace_name, packet_count, shards=shards, config=config, batch_size=batch_size
        )
        rows.append(
            {
                "path": f"sharded x{shards}",
                **sharded.totals(),
                "throughput_mdesc_s": round(sharded.throughput_mdesc_s, 2),
                "matches_synthetic": sharded.totals() == baseline.totals(),
            }
        )

        telemetry_config = TelemetryConfig(heavy_hitter_capacity=max(1024, 2 * packet_count))
        coordinator = ClusterCoordinator(
            nodes=nodes,
            config=config,
            telemetry_config=telemetry_config,
            telemetry_seed=seed,
            batch_size=batch_size,
        )
        replayed = generate_scenario(trace_name, packet_count)
        coordinator.ingest(DescriptorExtractor().extract_many(replayed))
        totals = coordinator.cluster_totals()

        exact_top = exact_top_k(replayed, top_k)

        # Close the window, expire everything, and round-trip the export
        # stream through spec-layout NetFlow v5 datagrams.
        any_node = next(iter(coordinator.nodes.values()))
        coordinator.run_housekeeping(
            replayed[-1].timestamp_ps + any_node.engine.shards[0].flow_state.timeout_ps + 1
        )
        exported = coordinator.drain_exported()
        datagrams = NetFlowV5Exporter().export(exported)
        decoded = decode_netflow_v5(datagrams)
        netflow_ok = [
            (record.key.pack(), record.packets, record.bytes) for record in exported
        ] == [(record.key.pack(), record.packets, record.octets) for record in decoded]

        rows.append(
            {
                "path": f"cluster x{nodes}",
                **{k: totals[k] for k in ("completed", "hits", "misses", "new_flows")},
                "throughput_mdesc_s": round(coordinator.throughput_mdesc_s, 2),
                "matches_synthetic": totals == baseline.totals(),
                f"top{top_k}_match": merged_top_k(coordinator, top_k) == exact_top,
                "netflow_records": len(decoded),
                "netflow_roundtrip": netflow_ok,
            }
        )
        return {
            "scenario": scenario,
            "packet_count": packet_count,
            "seed": seed,
            "pcap": capture_stats,
            "netflow_datagrams": len(datagrams),
            "rows": rows,
        }
    finally:
        if scratch is not None:
            scratch.cleanup()


def run_sharded_scaling(
    scenario: str = "zipf_mix",
    packet_count: int = 4000,
    shard_counts: Sequence[int] = (1, 2, 4, 8),
    seed: int = 17,
    config: Optional[FlowLUTConfig] = None,
    batch_size: int = 512,
) -> dict:
    """Replay one scenario through the sharded engine at several shard counts.

    The single-LUT per-packet path is measured first as the baseline; each
    row then reports the aggregate (simulated) throughput of that many
    cycle-accurate devices behind the engine's CRC-32 steering
    (:func:`~repro.engine.runner.run_scenario_timed`), its speedup over
    that baseline, the shard load balance, and the outcome totals — which
    must be identical across every shard count, since flows are pinned to
    shards by key hash.  There is no paper reference: this is the
    scale-out extension of the prototype.
    """
    baseline = run_scenario_single(scenario, packet_count, seed=seed, config=config)
    rows = []
    for shards in shard_counts:
        result = run_scenario_timed(
            scenario,
            packet_count,
            shards=shards,
            seed=seed,
            config=config,
            batch_size=batch_size,
        )
        rows.append(
            _scaling_row(
                "shards",
                shards,
                result.totals(),
                result.throughput_mdesc_s,
                result.load_imbalance,
                baseline,
            )
        )
    return {
        "scenario": scenario,
        "packet_count": packet_count,
        "seed": seed,
        "single_path_mdesc_s": round(baseline.throughput_mdesc_s, 2),
        "rows": rows,
    }
