"""Cluster layer: ring steering, membership changes, global accounting."""

from dataclasses import replace

import pytest

from repro.cluster import ClusterCoordinator, ClusterNode, HashRing
from repro.core.config import small_test_config
from repro.core.flow_lut import FlowLUT, FlowTable
from repro.core.flow_state import FlowStateTable
from repro.core.hash_cam import HashCamTable
from repro.engine import ShardedFlowLUT, run_scenario_single
from repro.obs import Observability
from repro.columns import DescriptorBlock
from repro.persist import (
    dump_flow_lut,
    dump_node_snapshot,
    dump_sharded,
    restore_flow_lut,
    restore_sharded,
)
from repro.reporting import run_cluster_scaling
from repro.sim.engine import Simulator
from repro.telemetry import TelemetryConfig, TelemetryPipeline
from repro.traffic import (
    descriptors_from_keys,
    generate_scenario,
    random_flow_keys,
    list_scenarios,
    scenario_block,
    scenario_descriptors,
)


CONFIG = small_test_config()


# --------------------------------------------------------------------------- #
# HashRing
# --------------------------------------------------------------------------- #


def _keys(count, seed=1):
    return [d.key_bytes for d in scenario_descriptors("uniform_random", count, seed=seed)]


def test_ring_lookup_is_deterministic_and_total():
    ring = HashRing()
    for node_id in ("a", "b", "c"):
        ring.add_node(node_id)
    keys = _keys(500)
    owners = [ring.lookup(key) for key in keys]
    assert owners == [ring.lookup(key) for key in keys]
    assert set(owners) <= {"a", "b", "c"}
    spread = ring.spread(keys)
    assert sum(spread.values()) == 500
    assert all(count > 0 for count in spread.values())


def test_ring_distribution_is_reasonably_even():
    ring = HashRing(vnodes=64)
    for index in range(4):
        ring.add_node(f"node{index}")
    spread = ring.spread(_keys(4000))
    for count in spread.values():
        assert 0.10 < count / 4000 < 0.45  # no starved or dominating node
    shares = ring.arc_shares()
    assert sum(shares.values()) == pytest.approx(1.0)


def test_ring_join_only_remaps_keys_onto_the_joiner():
    ring = HashRing()
    for node_id in ("a", "b", "c"):
        ring.add_node(node_id)
    keys = _keys(800)
    before = {key: ring.lookup(key) for key in keys}
    ring.add_node("d")
    moved = 0
    for key in keys:
        after = ring.lookup(key)
        if after != before[key]:
            assert after == "d"  # consistent hashing: only the joiner gains
            moved += 1
    assert 0 < moved < 800 / 2  # about 1/4 of the keyspace, never half


def test_ring_leave_only_remaps_the_leavers_keys():
    ring = HashRing()
    for node_id in ("a", "b", "c"):
        ring.add_node(node_id)
    keys = _keys(800)
    before = {key: ring.lookup(key) for key in keys}
    ring.remove_node("b")
    for key in keys:
        if before[key] != "b":
            assert ring.lookup(key) == before[key]  # survivors keep their keys
        else:
            assert ring.lookup(key) in ("a", "c")


def test_ring_membership_errors():
    ring = HashRing()
    with pytest.raises(LookupError):
        ring.lookup(b"orphan")
    ring.add_node("a")
    with pytest.raises(ValueError):
        ring.add_node("a")
    with pytest.raises(KeyError):
        ring.remove_node("ghost")
    with pytest.raises(ValueError):
        HashRing(vnodes=0)


# --------------------------------------------------------------------------- #
# Coordinator: steering and accounting equivalence
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("name", ["zipf_mix", "node_failover", "hotspot_shift"])
def test_cluster_totals_match_single_path(name):
    descriptors = scenario_descriptors(name, 400, seed=11)
    coordinator = ClusterCoordinator(nodes=3, config=CONFIG, telemetry=False)
    coordinator.ingest(descriptors, batch_size=128)
    single = run_scenario_single(name, 400, seed=11, config=CONFIG)
    assert coordinator.cluster_totals() == single.totals()
    assert coordinator.ingested == 400
    assert sum(coordinator.routed.values()) == 400


def test_every_descriptor_is_routed_to_its_ring_owner():
    descriptors = scenario_descriptors("zipf_mix", 300, seed=12)
    coordinator = ClusterCoordinator(nodes=4, config=CONFIG, telemetry=False)
    summary = coordinator.ingest(descriptors)
    expected = {}
    for descriptor in descriptors:
        owner = coordinator.owner_of(descriptor.key_bytes)
        expected[owner] = expected.get(owner, 0) + 1
    assert summary["per_node"] == expected and sum(expected.values()) == 300
    for node_id, node in coordinator.nodes.items():
        assert node.completed == expected.get(node_id, 0)
        assert {key for key, _ in node.engine.live_flow_pairs()} == {
            d.key_bytes for d in descriptors if coordinator.owner_of(d.key_bytes) == node_id
        }


def test_coordinator_rejects_bad_construction():
    with pytest.raises(ValueError):
        ClusterCoordinator(nodes=0)
    with pytest.raises(ValueError):
        ClusterCoordinator(nodes=["a", "a"])
    with pytest.raises(ValueError):
        ClusterCoordinator(nodes=2, batch_size=0)


# --------------------------------------------------------------------------- #
# Membership changes with flow-state migration
# --------------------------------------------------------------------------- #


def test_join_migrates_live_flows_and_subsequent_packets_hit():
    descriptors = scenario_descriptors("node_failover", 500, seed=13)
    coordinator = ClusterCoordinator(nodes=3, config=CONFIG, telemetry=False)
    coordinator.ingest(descriptors[:250])
    flows_before = coordinator.active_flows

    event = coordinator.add_node("node3")
    assert event["migrated"] > 0
    assert event["lost"] == 0
    assert coordinator.active_flows == flows_before  # moved, not dropped
    assert coordinator.nodes["node3"].active_flows == event["migrated"]

    # The stream continues: the cluster must account exactly as the
    # uninterrupted single path does — migrated flows keep hitting on their
    # new owner instead of being re-learned as new flows.
    coordinator.ingest(descriptors[250:])
    single = run_scenario_single("node_failover", 500, seed=13, config=CONFIG)
    assert coordinator.cluster_totals() == single.totals()


def test_graceful_leave_rehomes_every_flow():
    descriptors = scenario_descriptors("node_failover", 400, seed=14)
    coordinator = ClusterCoordinator(nodes=4, config=CONFIG, telemetry=False)
    coordinator.ingest(descriptors[:200])
    flows_before = coordinator.active_flows
    leaver = max(coordinator.nodes, key=lambda n: coordinator.nodes[n].active_flows)
    flows_on_leaver = coordinator.nodes[leaver].active_flows

    event = coordinator.remove_node(leaver)
    assert event["migrated"] == flows_on_leaver > 0
    assert event["lost"] == 0
    assert leaver not in coordinator.nodes
    assert coordinator.active_flows == flows_before

    coordinator.ingest(descriptors[200:])
    single = run_scenario_single("node_failover", 400, seed=14, config=CONFIG)
    assert coordinator.cluster_totals() == single.totals()


def test_failure_loses_flows_but_the_books_balance():
    descriptors = scenario_descriptors("node_failover", 400, seed=15)
    coordinator = ClusterCoordinator(nodes=4, config=CONFIG, telemetry=False)
    coordinator.ingest(descriptors[:200])
    victim = max(coordinator.nodes, key=lambda n: coordinator.nodes[n].active_flows)
    flows_on_victim = coordinator.nodes[victim].active_flows
    completed_on_victim = coordinator.nodes[victim].completed

    event = coordinator.fail_node(victim)
    assert event["lost"] == flows_on_victim > 0
    assert coordinator.flows_lost == flows_on_victim

    coordinator.ingest(descriptors[200:])
    totals = coordinator.cluster_totals()
    alive = coordinator.alive_totals()
    assert totals["completed"] == coordinator.ingested == 400
    assert totals["hits"] + totals["misses"] == totals["completed"]
    assert alive["completed"] == 400 - completed_on_victim
    # Lost flows are re-learned: the cluster sees at least as many new flows
    # as the uninterrupted single path, and the excess is bounded by what
    # was lost.
    single = run_scenario_single("node_failover", 400, seed=15, config=CONFIG)
    relearned = totals["new_flows"] - single.totals()["new_flows"]
    assert 0 <= relearned <= coordinator.flows_lost


def test_failed_node_rejects_traffic():
    node = ClusterNode("n", config=CONFIG, telemetry=False)
    descriptors = scenario_descriptors("zipf_mix", 10, seed=16)
    node.process_batch(descriptors)
    assert node.fail() == node.active_flows
    assert not node.alive
    with pytest.raises(RuntimeError):
        node.process_batch(descriptors)


def test_cannot_remove_last_node_or_unknown_node():
    coordinator = ClusterCoordinator(nodes=1, config=CONFIG, telemetry=False)
    with pytest.raises(ValueError):
        coordinator.fail_node("node0")
    with pytest.raises(KeyError):
        coordinator.remove_node("ghost")
    with pytest.raises(ValueError):
        coordinator.add_node("node0")


# --------------------------------------------------------------------------- #
# Cluster-wide merged telemetry
# --------------------------------------------------------------------------- #


def test_merged_telemetry_matches_single_node_exact_run():
    packets = 500
    config = TelemetryConfig(heavy_hitter_capacity=4096)
    coordinator = ClusterCoordinator(
        nodes=3, config=CONFIG, telemetry_config=config, telemetry_seed=21
    )
    coordinator.ingest(scenario_descriptors("zipf_mix", packets, seed=21))
    merged = coordinator.merged_telemetry()
    assert merged.packets == packets

    exact = {}
    for packet in generate_scenario("zipf_mix", packets, seed=21):
        key = packet.key.pack()
        exact[key] = exact.get(key, 0) + packet.length_bytes
    exact_top = sorted(exact.items(), key=lambda item: (-item[1], item[0]))[:10]
    merged_top = [
        (hitter.key, hitter.count)
        for hitter in sorted(
            merged.heavy_hitters.entries(), key=lambda h: (-h.count, h.key)
        )[:10]
    ]
    assert merged_top == exact_top

    # A single pipeline fed the whole stream agrees with the merged view
    # (Count-Min merges are exact, and no summary ever evicted).
    solo = TelemetryPipeline(config, seed=21)
    solo.observe_packets(generate_scenario("zipf_mix", packets, seed=21))
    for key in exact:
        assert merged.packet_counts.estimate(key) == solo.packet_counts.estimate(key)
        assert merged.heavy_hitters.estimate(key) == solo.heavy_hitters.estimate(key)


def test_failed_nodes_telemetry_is_lost_and_counted():
    coordinator = ClusterCoordinator(nodes=3, config=CONFIG, telemetry_seed=22)
    descriptors = scenario_descriptors("zipf_mix", 300, seed=22)
    coordinator.ingest(descriptors)
    victim = max(coordinator.nodes, key=lambda n: coordinator.nodes[n].completed)
    lost_packets = coordinator.nodes[victim].pipeline.packets
    coordinator.fail_node(victim)
    merged = coordinator.merged_telemetry()
    assert coordinator.telemetry_packets_lost == lost_packets > 0
    assert merged.packets == 300 - lost_packets


def test_graceful_leavers_telemetry_is_retained():
    coordinator = ClusterCoordinator(nodes=3, config=CONFIG, telemetry_seed=23)
    coordinator.ingest(scenario_descriptors("zipf_mix", 300, seed=23))
    leaver = next(iter(coordinator.nodes))
    coordinator.remove_node(leaver)
    merged = coordinator.merged_telemetry()
    assert merged.packets == 300  # the leaver handed its sketches over
    assert coordinator.telemetry_packets_lost == 0


def test_merged_telemetry_requires_telemetry():
    coordinator = ClusterCoordinator(nodes=2, config=CONFIG, telemetry=False)
    with pytest.raises(RuntimeError):
        coordinator.merged_telemetry()


# --------------------------------------------------------------------------- #
# Load imbalance detection
# --------------------------------------------------------------------------- #


def test_imbalance_report_flags_hotspots():
    coordinator = ClusterCoordinator(nodes=4, config=CONFIG, telemetry=False)
    assert coordinator.load_imbalance == 0.0  # nothing completed yet
    # hotspot_shift concentrates 80% of traffic on a handful of flows, so
    # whichever nodes own the hot flows run far above their ring share.
    coordinator.ingest(scenario_descriptors("hotspot_shift", 400, seed=24))
    report = coordinator.imbalance_report(threshold=1.25)
    assert report["load_imbalance"] > 1.0
    assert {row["node"] for row in report["rows"]} == set(coordinator.nodes)
    assert report["imbalance_detected"] == bool(report["overloaded"])
    with pytest.raises(ValueError):
        coordinator.imbalance_report(threshold=1.0)


# --------------------------------------------------------------------------- #
# Housekeeping across the cluster
# --------------------------------------------------------------------------- #


def test_cluster_housekeeping_expires_idle_flows():
    descriptors = scenario_descriptors("churn", 400, seed=25)
    coordinator = ClusterCoordinator(
        nodes=2, config=CONFIG, telemetry=False, flow_timeout_us=5.0
    )
    coordinator.ingest(descriptors)
    before = coordinator.active_flows
    removed = coordinator.run_housekeeping(
        now_ps=descriptors[-1].timestamp_ps + 10_000_000
    )
    assert removed > 0
    assert coordinator.active_flows == before - removed


# --------------------------------------------------------------------------- #
# Reporting experiment
# --------------------------------------------------------------------------- #


def test_run_cluster_scaling_shape_and_invariants():
    result = run_cluster_scaling(
        scenario="zipf_mix", packet_count=300, node_counts=(1, 2), seed=26, config=CONFIG
    )
    assert [row["nodes"] for row in result["rows"]] == [1, 2]
    totals = {
        (row["completed"], row["hits"], row["misses"], row["new_flows"])
        for row in result["rows"]
    }
    assert len(totals) == 1  # totals invariant under node count
    assert all(row["matches_single_path"] for row in result["rows"])
    assert result["single_path_mdesc_s"] > 0


def test_cluster_report_shape():
    coordinator = ClusterCoordinator(nodes=2, config=CONFIG, telemetry_seed=27)
    coordinator.ingest(scenario_descriptors("zipf_mix", 200, seed=27))
    report = coordinator.report()
    assert report["ingested"] == 200
    assert report["cluster_totals"]["completed"] == 200
    assert len(report["per_node"]) == 2
    assert report["ring"]["nodes"] == 2
    assert report["throughput_mdesc_s"] > 0


def test_ingest_rejects_zero_batch_size():
    coordinator = ClusterCoordinator(nodes=2, config=CONFIG, telemetry=False)
    with pytest.raises(ValueError):
        coordinator.ingest(scenario_descriptors("zipf_mix", 10, seed=28), batch_size=0)


def _observable_state(coordinator):
    """Everything an ingest would have moved: books, routing, obs series."""
    return (
        coordinator.report(),
        coordinator.flow_books(),
        dict(coordinator.routed),
        coordinator.metrics_snapshot(),
        len(coordinator.journal),
        len(coordinator.obs.spans.spans),
        coordinator.obs.spans.roots_seen,
        len(coordinator.obs.windows.windows),
    )


def _obs_cluster(**kwargs):
    obs = Observability(window_ps=1000, span_sample_every=1, clock=lambda: 0)
    return ClusterCoordinator(nodes=3, config=CONFIG, telemetry_seed=28, obs=obs, **kwargs)


@pytest.mark.parametrize("empty", [[], scenario_block("zipf_mix", 0, seed=28)], ids=["list", "block"])
def test_empty_segments_are_not_segments(empty):
    # One rule for both inputs (an empty block used to count a segment and
    # open a span): nothing counted, nothing traced, no window advance.
    coordinator = _obs_cluster()
    coordinator.ingest(scenario_descriptors("zipf_mix", 120, seed=28))
    before = _observable_state(coordinator)
    assert coordinator.ingest(empty) == {"packets": 0, "per_node": {}}
    assert _observable_state(coordinator) == before


def test_bad_descriptor_mid_sequence_raises_before_any_mutation():
    coordinator = _obs_cluster(replication=2, checkpoint_interval=16)
    descriptors = scenario_descriptors("zipf_mix", 240, seed=28)
    coordinator.ingest(descriptors[:120])
    before = _observable_state(coordinator)
    bad = list(descriptors[120:])
    bad[60] = replace(bad[60], key_bytes=bad[60].key_bytes + b"\x00")
    with pytest.raises(ValueError, match="5-tuple key layout"):
        coordinator.ingest(bad)
    assert _observable_state(coordinator) == before
    outcomes = coordinator.obs.metrics.get("repro_engine_outcomes_total")
    assert sum(
        value for labels, value in outcomes.samples() if labels["result"] != "new_flow"
    ) == 120


def test_finalize_telemetry_populates_cluster_flow_sizes():
    descriptors = scenario_descriptors("churn", 400, seed=29)
    coordinator = ClusterCoordinator(
        nodes=2, config=CONFIG, telemetry_seed=29, flow_timeout_us=5.0
    )
    coordinator.ingest(descriptors)
    # Age with the stream-end clock: short flows that went idle mid-stream
    # expire, while the elephants (active to the end) stay live for the
    # window-close sweep.
    expired = coordinator.run_housekeeping(now_ps=descriptors[-1].timestamp_ps)
    live = coordinator.finalize_telemetry()
    assert expired > 0 and live > 0
    merged = coordinator.merged_telemetry()
    # Every created flow is sized exactly once: expired by housekeeping,
    # survivors by the window-close sweep.
    created = sum(
        state.created
        for node in coordinator.nodes.values()
        for state in node.engine.flow_states
    )
    assert merged.flow_sizes.flows == expired + live == created
    assert merged.flow_sizes.total_packets == 400


# --------------------------------------------------------------------------- #
# The engine and cluster tiers hold functional flow tables, not timed devices
# --------------------------------------------------------------------------- #


@pytest.fixture
def simulators_built(monkeypatch):
    """Every ``Simulator`` constructed while the test runs."""
    built = []
    init = Simulator.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Simulator, "__init__", counting_init)
    return built


def test_the_cluster_tier_constructs_no_simulator(simulators_built):
    packets = 800
    descriptors = scenario_descriptors("node_failover", packets, seed=21)
    coordinator = ClusterCoordinator(
        nodes=3, config=CONFIG, shards_per_node=2, telemetry_seed=21, flow_timeout_us=5.0
    )
    coordinator.ingest(descriptors[:200])
    assert coordinator.add_node("joiner")["migrated"] > 0
    coordinator.ingest(descriptors[200:400])
    coordinator.remove_node("node0")
    coordinator.run_housekeeping(descriptors[399].timestamp_ps)
    coordinator.checkpoint_all()
    coordinator.ingest(descriptors[400:600])
    victim = max(coordinator.nodes, key=lambda node_id: coordinator.nodes[node_id].active_flows)
    snapshot = dump_node_snapshot(coordinator.nodes[victim])
    assert coordinator.fail_node(victim)["recovery"] == "checkpoint"
    assert coordinator.add_node("replacement", snapshot=snapshot)["restored"] > 0
    coordinator.ingest(descriptors[600:])
    assert coordinator.cluster_totals()["completed"] == packets
    assert simulators_built == []
    FlowLUT(CONFIG)  # the timed device still builds one: the count is live
    assert len(simulators_built) == 1


def test_a_standalone_sharded_engine_constructs_no_simulator(simulators_built):
    descriptors = scenario_descriptors("churn", 300, seed=22)
    engine = ShardedFlowLUT(shards=3, config=CONFIG)
    engine.attach_flow_state(timeout_us=5.0)
    engine.process_batch(descriptors)
    engine.run_housekeeping(descriptors[-1].timestamp_ps)
    key, _ = engine.live_flow_pairs()[0]
    assert engine.delete_flow(key)
    twin = ShardedFlowLUT(shards=2, config=CONFIG)
    twin.attach_flow_state()
    assert restore_sharded(twin, dump_sharded(engine)) == len(engine.live_flow_pairs())
    assert simulators_built == []


# --------------------------------------------------------------------------- #
# Migration and restore are column operations
# --------------------------------------------------------------------------- #


@pytest.fixture
def per_key_calls(monkeypatch):
    """Counts of the per-key calls a column migration or restore must not
    make: scalar ``HashCamTable.hash_indices`` and ``ClusterCoordinator.owner_of``."""
    counts = {"hash_indices": 0, "owner_of": 0}
    for cls, name in ((HashCamTable, "hash_indices"), (ClusterCoordinator, "owner_of")):
        def counting(self, *args, _inner=getattr(cls, name), _name=name, **kwargs):
            counts[_name] += 1
            return _inner(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counting)
    return counts


def test_a_join_with_pins_hashes_and_places_by_column(per_key_calls):
    descriptors = scenario_descriptors("zipf_mix", 1200, seed=31)
    coordinator = ClusterCoordinator(nodes=4, config=CONFIG, telemetry=False)
    coordinator.ingest(descriptors)
    keys = sorted({d.key_bytes for d in descriptors})
    pins = {key: f"node{index % 4}" for index, key in enumerate(keys[:12])}
    coordinator.pin_flows(pins)
    active = coordinator.active_flows
    per_key_calls.update(hash_indices=0, owner_of=0)
    assert coordinator.add_node("joiner")["migrated"] > 0
    assert per_key_calls == {"hash_indices": 0, "owner_of": 0}
    assert coordinator.active_flows == active and coordinator.flow_books()["balanced"]
    for key, target in pins.items():
        engine = coordinator.nodes[target].engine
        assert key in {key_bytes for key_bytes, _ in engine.live_flow_pairs()}
    for node_id, node in coordinator.nodes.items():
        for key_bytes, _ in node.engine.live_flow_pairs():
            assert coordinator.owner_of(key_bytes) == node_id


def test_a_checkpoint_failover_restores_by_column(per_key_calls):
    descriptors = scenario_descriptors("zipf_mix", 1200, seed=32)
    coordinator = ClusterCoordinator(nodes=3, config=CONFIG, telemetry=False)
    coordinator.ingest(descriptors[:800])
    coordinator.checkpoint_all()
    coordinator.ingest(descriptors[800:])
    victim = max(coordinator.nodes, key=lambda node_id: coordinator.nodes[node_id].active_flows)
    per_key_calls.update(hash_indices=0, owner_of=0)
    event = coordinator.fail_node(victim)
    assert event["recovery"] == "checkpoint" and event["restored"] > 0
    assert per_key_calls == {"hash_indices": 0, "owner_of": 0}


def test_a_flow_lut_restore_hashes_by_column_and_matches_a_per_key_restore(per_key_calls):
    """An 11 000-entry frame (Table II(B)'s occupied table plus headroom):
    1 000 bare preloaded keys and 10 000 flows with records."""
    keys = random_flow_keys(11_000, seed=33)
    source = FlowTable(CONFIG, flow_state=FlowStateTable())
    source.preload([d.key_bytes for d in descriptors_from_keys(keys[:1000])])
    source.process_block(DescriptorBlock.from_descriptors(descriptors_from_keys(keys[1000:])))
    frame = dump_flow_lut(source)

    per_key_calls.update(hash_indices=0)
    bulk = FlowLUT(CONFIG, flow_state=FlowStateTable())
    assert restore_flow_lut(bulk, frame) == 11_000
    assert per_key_calls["hash_indices"] == 0

    per_key = FlowLUT(CONFIG, flow_state=FlowStateTable())
    for key_bytes, record in source.live_flow_pairs():
        if record is None:
            per_key.preload([key_bytes])
        else:
            per_key.restore_flow(replace(record), key_bytes)
    assert dump_flow_lut(bulk) == dump_flow_lut(per_key)
