"""Durability layer: checkpoints, k=2 replication, conservation books.

The failover conservation laws checked here must hold after *any* sequence
of ``add_node`` / ``remove_node`` / ``fail_node``, with checkpointing and
with replication:

* ``cluster_totals()["hits"] + ["misses"] == ["completed"] == ingested``
  (every packet completed exactly once, member or not);
* the flow-record conservation identity
  ``flows_created == live + exported + folded + flows_lost``
  (every record instance created is retired exactly once — migration and
  recovery move or fold instances, never mint or leak them).
"""

import random

import pytest

from repro.cluster import ClusterCoordinator
from repro.core.config import small_test_config
from repro.persist import dump_node_snapshot, load_node_snapshot
from repro.telemetry import TelemetryConfig
from repro.traffic import scenario_descriptors

CONFIG = small_test_config()
TELEMETRY = TelemetryConfig(heavy_hitter_capacity=4096)


def _busiest(coordinator):
    return max(coordinator.nodes, key=lambda n: coordinator.nodes[n].active_flows)


def _assert_balanced(coordinator, packets_so_far):
    totals = coordinator.cluster_totals()
    assert totals["completed"] == coordinator.ingested == packets_so_far
    assert totals["hits"] + totals["misses"] == totals["completed"]
    books = coordinator.flow_books()
    assert books["balanced"], books
    return books


# --------------------------------------------------------------------------- #
# Checkpointing
# --------------------------------------------------------------------------- #


def test_packet_count_trigger_checkpoints_every_node():
    coordinator = ClusterCoordinator(
        nodes=3, config=CONFIG, telemetry_seed=5, checkpoint_interval=60, batch_size=32
    )
    coordinator.ingest(scenario_descriptors("zipf_mix", 600, seed=5))
    assert coordinator.checkpoints_taken >= 3
    assert set(coordinator.checkpoints) == set(coordinator.nodes)
    assert coordinator.checkpoint_bytes > 0
    # Between ingest calls the un-checkpointed delta is below the interval.
    report = coordinator.report()
    for node_id, node in coordinator.nodes.items():
        assert node.completed - report["checkpoints"][node_id]["completed"] < 60


def test_checkpoint_restore_shrinks_losses_to_the_delta():
    packets = 800
    descriptors = scenario_descriptors("node_failover", packets, seed=7)
    coordinator = ClusterCoordinator(
        nodes=4, config=CONFIG, telemetry_config=TELEMETRY, telemetry_seed=7,
        checkpoint_interval=50, batch_size=25,
    )
    coordinator.ingest(descriptors[: packets // 2])
    victim = _busiest(coordinator)
    live = coordinator.nodes[victim].active_flows
    event = coordinator.fail_node(victim)
    coordinator.ingest(descriptors[packets // 2 :])

    assert event["recovery"] == "checkpoint"
    assert event["restored"] > 0
    assert coordinator.flows_restored + coordinator.flows_lost == live
    assert coordinator.telemetry_packets_lost <= 50
    # The consumed checkpoint is gone; the victim cannot be restored twice.
    assert victim not in coordinator.checkpoints
    _assert_balanced(coordinator, packets)


def test_checkpoint_restored_flows_keep_hitting():
    """Flows replayed from a checkpoint are live again: later packets of
    those flows hit instead of being re-learned as new flows."""
    packets = 600
    descriptors = scenario_descriptors("node_failover", packets, seed=9)
    protected = ClusterCoordinator(
        nodes=3, config=CONFIG, telemetry=False, checkpoint_interval=40, batch_size=20
    )
    unprotected = ClusterCoordinator(nodes=3, config=CONFIG, telemetry=False)
    for coordinator in (protected, unprotected):
        coordinator.ingest(descriptors[: packets // 2])
        coordinator.fail_node(_busiest(coordinator))
        coordinator.ingest(descriptors[packets // 2 :])
        _assert_balanced(coordinator, packets)
    assert protected.flows_lost < unprotected.flows_lost
    # Fewer lost flows means fewer re-learned ones downstream.
    assert (
        protected.cluster_totals()["new_flows"]
        < unprotected.cluster_totals()["new_flows"]
    )


def test_checkpoint_all_is_the_window_close_trigger():
    coordinator = ClusterCoordinator(nodes=2, config=CONFIG, telemetry_seed=11)
    coordinator.ingest(scenario_descriptors("zipf_mix", 200, seed=11))
    metas = coordinator.checkpoint_all()
    assert [meta["node"] for meta in metas] == sorted(coordinator.nodes)
    assert all(meta["size_bytes"] > 0 for meta in metas)
    with pytest.raises(KeyError):
        coordinator.checkpoint_node("ghost")


def test_warm_start_via_add_node_snapshot():
    """An operator-held snapshot warm-starts a replacement node after an
    unprotected failure, crediting the recovered flows against the loss."""
    packets = 500
    descriptors = scenario_descriptors("node_failover", packets, seed=13)
    coordinator = ClusterCoordinator(
        nodes=3, config=CONFIG, telemetry_config=TELEMETRY, telemetry_seed=13
    )
    coordinator.ingest(descriptors[: packets // 2])
    victim = _busiest(coordinator)
    snapshot = dump_node_snapshot(coordinator.nodes[victim])
    lost_event = coordinator.fail_node(victim)
    assert lost_event["recovery"] == "none" and lost_event["lost"] > 0

    event = coordinator.add_node("replacement", snapshot=snapshot)
    assert event["restored"] > 0
    assert coordinator.flows_lost == lost_event["lost"] - event["restored"]
    coordinator.ingest(descriptors[packets // 2 :])
    _assert_balanced(coordinator, packets)
    # The snapshot's telemetry was merged into the joiner's pipeline.
    assert coordinator.merged_telemetry().packets == packets
    assert coordinator.telemetry_packets_lost == 0


# --------------------------------------------------------------------------- #
# k=2 replication
# --------------------------------------------------------------------------- #


def test_replication_promotes_backups_losslessly():
    packets = 700
    descriptors = scenario_descriptors("node_failover", packets, seed=15)
    coordinator = ClusterCoordinator(
        nodes=4, config=CONFIG, telemetry_config=TELEMETRY, telemetry_seed=15,
        replication=2,
    )
    coordinator.ingest(descriptors[: packets // 2])
    assert coordinator.replicated_packets == packets // 2
    victim = _busiest(coordinator)
    live = coordinator.nodes[victim].active_flows
    event = coordinator.fail_node(victim)
    assert event["recovery"] == "replicas"
    assert event["restored"] == live
    assert event["lost"] == 0 and event["telemetry_packets_lost"] == 0
    coordinator.ingest(descriptors[packets // 2 :])
    assert coordinator.flows_lost == 0
    assert coordinator.telemetry_packets_lost == 0
    assert coordinator.merged_telemetry().packets == packets
    _assert_balanced(coordinator, packets)


def test_replication_housekeeping_purges_replicas():
    descriptors = scenario_descriptors("churn", 500, seed=17)
    coordinator = ClusterCoordinator(
        nodes=2, config=CONFIG, telemetry=False, replication=2, flow_timeout_us=5.0
    )
    coordinator.ingest(descriptors)
    replica_entries_before = sum(
        len(node.replica_flows) for node in coordinator.nodes.values()
    )
    removed = coordinator.run_housekeeping(
        now_ps=descriptors[-1].timestamp_ps + 10_000_000
    )
    assert removed > 0
    replica_entries_after = sum(
        len(node.replica_flows) for node in coordinator.nodes.values()
    )
    assert replica_entries_after < replica_entries_before
    # A failover after the purge cannot resurrect ended flows: every
    # promoted record corresponds to a flow still live on the victim.
    victim = _busiest(coordinator)
    live = coordinator.nodes[victim].active_flows
    event = coordinator.fail_node(victim)
    assert event["restored"] <= live
    assert coordinator.flows_lost == live - event["restored"] >= 0
    _assert_balanced(coordinator, 500)


def test_sequential_failures_stay_lossless_after_reseeding():
    """A failed node was also a backup; the redundancy it hosted for the
    surviving primaries is rebuilt after every failure (flows re-seeded
    from the primaries' full records, pipelines re-copied), so a *second*
    failure is just as lossless as the first."""
    packets = 600
    descriptors = scenario_descriptors("node_failover", packets, seed=19)
    coordinator = ClusterCoordinator(
        nodes=4, config=CONFIG, telemetry_config=TELEMETRY, telemetry_seed=19,
        replication=2,
    )
    coordinator.ingest(descriptors[: packets // 3])
    coordinator.fail_node(_busiest(coordinator))
    coordinator.ingest(descriptors[packets // 3 : 2 * packets // 3])
    coordinator.fail_node(_busiest(coordinator))
    coordinator.ingest(descriptors[2 * packets // 3 :])
    assert coordinator.failures == 2
    assert coordinator.flows_lost == 0
    assert coordinator.telemetry_packets_lost == 0
    assert coordinator.merged_telemetry().packets == packets
    _assert_balanced(coordinator, packets)


def test_back_to_back_failures_without_traffic_stay_lossless():
    """Re-seeding happens at failure time, not lazily on the next packet:
    failing two nodes with no traffic in between still loses nothing."""
    packets = 400
    descriptors = scenario_descriptors("node_failover", packets, seed=20)
    coordinator = ClusterCoordinator(
        nodes=4, config=CONFIG, telemetry_config=TELEMETRY, telemetry_seed=20,
        replication=2,
    )
    coordinator.ingest(descriptors[: packets // 2])
    coordinator.fail_node(_busiest(coordinator))
    coordinator.fail_node(_busiest(coordinator))
    coordinator.ingest(descriptors[packets // 2 :])
    assert coordinator.flows_lost == 0
    assert coordinator.telemetry_packets_lost == 0
    assert coordinator.merged_telemetry().packets == packets
    _assert_balanced(coordinator, packets)


def test_replication_recovers_the_flow_size_histogram_too():
    """Expiry sizing is mirrored into the backup pipelines, so after a
    failure the merged flow-size histogram matches the no-failure run —
    the recovery is lossless for the histogram, not only the sketches."""
    packets = 600
    kwargs = dict(
        nodes=3, config=CONFIG, telemetry_config=TELEMETRY, telemetry_seed=22,
        flow_timeout_us=5.0,
    )
    descriptors = scenario_descriptors("churn", packets, seed=22)

    baseline = ClusterCoordinator(**kwargs)
    baseline.ingest(descriptors)
    baseline.run_housekeeping(now_ps=descriptors[-1].timestamp_ps)
    baseline.finalize_telemetry()
    expected = baseline.merged_telemetry().flow_sizes

    coordinator = ClusterCoordinator(replication=2, **kwargs)
    coordinator.ingest(scenario_descriptors("churn", packets, seed=22)[: packets // 2])
    coordinator.run_housekeeping(now_ps=descriptors[packets // 2 - 1].timestamp_ps)
    coordinator.fail_node(_busiest(coordinator))
    coordinator.ingest(scenario_descriptors("churn", packets, seed=22)[packets // 2 :])
    coordinator.run_housekeeping(now_ps=descriptors[-1].timestamp_ps)
    coordinator.finalize_telemetry()
    merged = coordinator.merged_telemetry().flow_sizes

    assert coordinator.telemetry_packets_lost == 0
    assert merged.bucket_counts() == expected.bucket_counts()
    assert merged.total_packets == expected.total_packets
    _assert_balanced(coordinator, packets)


def test_failure_after_window_close_keeps_the_histogram():
    """Window-close sizings are mirrored like expiry sizings: failing a
    node right after ``finalize_telemetry`` still reconstructs its
    flow-size histogram contributions from the backups."""
    packets = 500
    kwargs = dict(
        nodes=4, config=CONFIG, telemetry_config=TELEMETRY, telemetry_seed=24
    )
    descriptors = scenario_descriptors("node_failover", packets, seed=24)

    baseline = ClusterCoordinator(**kwargs)
    baseline.ingest(descriptors)
    baseline.finalize_telemetry()
    expected = baseline.merged_telemetry().flow_sizes

    coordinator = ClusterCoordinator(replication=2, **kwargs)
    coordinator.ingest(scenario_descriptors("node_failover", packets, seed=24))
    coordinator.finalize_telemetry()
    coordinator.fail_node(_busiest(coordinator))
    merged = coordinator.merged_telemetry().flow_sizes
    assert merged.flows == expected.flows
    assert merged.bucket_counts() == expected.bucket_counts()
    _assert_balanced(coordinator, packets)


def test_rejoin_after_shrinking_to_one_restores_protection():
    """Regression: a k=2 cluster that shrank to a single member mirrors
    nothing while alone, but a join resyncs the whole backup plane from
    the surviving primary — so failing the old member afterwards is
    lossless even for the history accumulated while it ran alone."""
    packets = 600
    descriptors = scenario_descriptors("node_failover", packets, seed=25)
    coordinator = ClusterCoordinator(
        nodes=["A", "B"], config=CONFIG, telemetry_config=TELEMETRY,
        telemetry_seed=25, replication=2, checkpoint_interval=64, batch_size=32,
    )
    coordinator.ingest(descriptors[: packets // 3])
    coordinator.fail_node("A")  # B now runs alone; nothing can be mirrored
    coordinator.ingest(descriptors[packets // 3 : 2 * packets // 3])
    coordinator.add_node("C")  # resync seeds B's full state onto C
    coordinator.ingest(descriptors[2 * packets // 3 :])
    before = coordinator.flows_lost
    event = coordinator.fail_node("B")
    assert event["lost"] == 0, event
    assert coordinator.flows_lost == before
    assert event["telemetry_packets_lost"] <= 64  # never worse than the bound
    assert coordinator.merged_telemetry().packets == packets
    _assert_balanced(coordinator, packets)


def test_graceful_leave_resyncs_the_backup_plane():
    """A leaver hosted replica segments and backup pipelines for others;
    the resync rebuilds them, so a failure right after a graceful leave
    is still lossless."""
    packets = 500
    descriptors = scenario_descriptors("node_failover", packets, seed=26)
    coordinator = ClusterCoordinator(
        nodes=4, config=CONFIG, telemetry_config=TELEMETRY, telemetry_seed=26,
        replication=2,
    )
    coordinator.ingest(descriptors[: packets // 2])
    coordinator.remove_node(next(iter(coordinator.nodes)))
    event = coordinator.fail_node(_busiest(coordinator))
    assert event["lost"] == 0 and event["telemetry_packets_lost"] == 0
    coordinator.ingest(descriptors[packets // 2 :])
    assert coordinator.flows_lost == 0
    assert coordinator.telemetry_packets_lost == 0
    assert coordinator.merged_telemetry().packets == packets
    _assert_balanced(coordinator, packets)


def test_graceful_leave_drops_backup_pipelines_not_packets():
    coordinator = ClusterCoordinator(
        nodes=3, config=CONFIG, telemetry_config=TELEMETRY, telemetry_seed=21,
        replication=2,
    )
    coordinator.ingest(scenario_descriptors("zipf_mix", 300, seed=21))
    leaver = next(iter(coordinator.nodes))
    coordinator.remove_node(leaver)
    # The leaver handed its own sketches over; keeping the backups too
    # would double-count, so they are discarded.
    assert all(
        leaver not in node.backup_pipelines for node in coordinator.nodes.values()
    )
    assert coordinator.merged_telemetry().packets == 300
    assert coordinator.telemetry_packets_lost == 0
    _assert_balanced(coordinator, 300)


def test_replication_keeps_merged_books_identical_without_failures():
    """The replication plane is passive: with no failure, totals and the
    merged telemetry are byte-identical to an unreplicated cluster."""
    descriptors = scenario_descriptors("zipf_mix", 400, seed=23)
    plain = ClusterCoordinator(
        nodes=3, config=CONFIG, telemetry_config=TELEMETRY, telemetry_seed=23
    )
    replicated = ClusterCoordinator(
        nodes=3, config=CONFIG, telemetry_config=TELEMETRY, telemetry_seed=23,
        replication=2,
    )
    plain.ingest(scenario_descriptors("zipf_mix", 400, seed=23))
    replicated.ingest(descriptors)
    assert replicated.cluster_totals() == plain.cluster_totals()
    assert (
        replicated.merged_telemetry().report() == plain.merged_telemetry().report()
    )
    assert replicated.replica_memory_bytes > 0  # the cost exists, and is visible


def test_replication_rejects_bad_construction():
    with pytest.raises(ValueError):
        ClusterCoordinator(nodes=2, replication=0)
    with pytest.raises(ValueError):
        # k > 2 would hand every backup a full copy of the stream, and the
        # additive promotion merge would double-count it.
        ClusterCoordinator(nodes=4, replication=3)
    with pytest.raises(ValueError):
        ClusterCoordinator(nodes=2, checkpoint_interval=0)


# --------------------------------------------------------------------------- #
# Conservation across arbitrary membership histories
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", [29, 31])
@pytest.mark.parametrize(
    "protection",
    [{"checkpoint_interval": 40, "batch_size": 20}, {"replication": 2}],
)
def test_books_balance_across_random_membership_sequences(seed, protection):
    rng = random.Random(seed)
    packets = 900
    descriptors = scenario_descriptors("churn", packets, seed=seed)
    coordinator = ClusterCoordinator(
        nodes=4, config=CONFIG, telemetry_config=TELEMETRY, telemetry_seed=seed,
        flow_timeout_us=50.0, **protection,
    )
    joined = 0
    segments = 6
    for segment in range(segments):
        start = segment * packets // segments
        stop = (segment + 1) * packets // segments
        coordinator.ingest(descriptors[start:stop])
        action = rng.choice(("join", "leave", "fail", "housekeep", "nothing"))
        if action == "join":
            joined += 1
            coordinator.add_node(f"joiner{joined}")
        elif action == "leave" and len(coordinator.nodes) > 2:
            coordinator.remove_node(rng.choice(sorted(coordinator.nodes)))
        elif action == "fail" and len(coordinator.nodes) > 2:
            coordinator.fail_node(rng.choice(sorted(coordinator.nodes)))
        elif action == "housekeep":
            coordinator.run_housekeeping(now_ps=descriptors[stop - 1].timestamp_ps)
        _assert_balanced(coordinator, stop)
    books = _assert_balanced(coordinator, packets)
    assert books["flows_created"] > 0


# --------------------------------------------------------------------------- #
# Last-node failure: a clear error, not a ring blow-up (regression)
# --------------------------------------------------------------------------- #


def test_fail_last_node_raises_clearly_and_changes_nothing():
    coordinator = ClusterCoordinator(nodes=1, config=CONFIG, telemetry=False)
    coordinator.ingest(scenario_descriptors("zipf_mix", 60, seed=33))
    with pytest.raises(ValueError, match="last"):
        coordinator.fail_node("node0")
    with pytest.raises(ValueError, match="last"):
        coordinator.remove_node("node0")
    # The refused operation mutated nothing: the node is alive, still a
    # ring member, and the cluster keeps ingesting.
    assert coordinator.nodes["node0"].alive
    assert "node0" in coordinator.ring
    assert coordinator.failures == 0 and coordinator.leaves == 0
    coordinator.ingest(scenario_descriptors("zipf_mix", 40, seed=34))
    assert coordinator.cluster_totals()["completed"] == 100
    _assert_balanced(coordinator, 100)


def test_fail_second_to_last_node_still_works():
    coordinator = ClusterCoordinator(nodes=2, config=CONFIG, telemetry=False)
    coordinator.ingest(scenario_descriptors("zipf_mix", 100, seed=35))
    coordinator.fail_node(_busiest(coordinator))
    assert len(coordinator.nodes) == 1
    coordinator.ingest(scenario_descriptors("zipf_mix", 50, seed=36))
    _assert_balanced(coordinator, 150)


def test_fail_unknown_node_raises_keyerror():
    coordinator = ClusterCoordinator(nodes=2, config=CONFIG, telemetry=False)
    with pytest.raises(KeyError):
        coordinator.fail_node("ghost")


# --------------------------------------------------------------------------- #
# Disk-file checkpoints (``checkpoint_dir``)
# --------------------------------------------------------------------------- #


def test_checkpoint_dir_writes_loadable_frames(tmp_path):
    coordinator = ClusterCoordinator(
        nodes=3, config=CONFIG, telemetry_seed=11, checkpoint_dir=tmp_path
    )
    coordinator.ingest(scenario_descriptors("node_failover", 600, seed=11))
    metas = coordinator.checkpoint_all()
    files = sorted(tmp_path.glob("*.ckpt"))
    assert [f.stem for f in files] == sorted(coordinator.nodes)
    for meta, file in zip(metas, files):
        assert meta["path"] == str(file)
        # The file is byte-identical to the in-memory checkpoint and decodes
        # to the same snapshot (a full pack_frame round trip through disk).
        data = file.read_bytes()
        assert data == coordinator.checkpoints[file.stem]
        snapshot = load_node_snapshot(data)
        assert snapshot.node_id == file.stem
        assert snapshot.completed == meta["completed"]
        assert len([r for _, r in snapshot.flows if r is not None]) == meta["flows"]
    # No scratch files left behind by the write-then-rename.
    assert not list(tmp_path.glob("*.tmp"))


def test_failed_disk_write_leaves_the_checkpoint_state_untouched(tmp_path, monkeypatch):
    """Fail before mutate: a rename that raises must leave the in-memory
    checkpoint, its trigger and meta, the counters, the journal and the
    directory exactly as they were — no half-committed frame, no ``.tmp``."""
    from repro.cluster import coordinator as coordinator_module
    from repro.obs import Observability

    coordinator = ClusterCoordinator(
        nodes=3, config=CONFIG, telemetry_seed=16, checkpoint_dir=tmp_path,
        obs=Observability(),
    )
    descriptors = scenario_descriptors("zipf_mix", 600, seed=16)
    coordinator.ingest(descriptors[:300])
    coordinator.checkpoint_all()
    coordinator.ingest(descriptors[300:])
    node_id = _busiest(coordinator)
    before = (
        dict(coordinator.checkpoints), dict(coordinator._checkpointed_at),
        {key: dict(meta) for key, meta in coordinator._checkpoint_meta.items()},
        coordinator.checkpoints_taken, coordinator.journal.events(),
        {file.name: file.read_bytes() for file in tmp_path.iterdir()},
    )

    def refuse(source, target):
        raise OSError("disk full")

    monkeypatch.setattr(coordinator_module.os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        coordinator.checkpoint_node(node_id)
    after = (
        dict(coordinator.checkpoints), dict(coordinator._checkpointed_at),
        {key: dict(meta) for key, meta in coordinator._checkpoint_meta.items()},
        coordinator.checkpoints_taken, coordinator.journal.events(),
        {file.name: file.read_bytes() for file in tmp_path.iterdir()},
    )
    assert after == before
    assert coordinator.checkpoints[node_id] != dump_node_snapshot(coordinator.nodes[node_id])


def test_checkpoint_files_are_consumed_with_their_nodes(tmp_path):
    coordinator = ClusterCoordinator(
        nodes=3, config=CONFIG, telemetry_seed=12, checkpoint_dir=tmp_path,
        checkpoint_interval=100, batch_size=50,
    )
    descriptors = scenario_descriptors("zipf_mix", 600, seed=12)
    coordinator.ingest(descriptors[:400])
    coordinator.checkpoint_all()  # the interval may not have hit every node
    assert sorted(f.stem for f in tmp_path.glob("*.ckpt")) == sorted(coordinator.nodes)
    victim = _busiest(coordinator)
    event = coordinator.fail_node(victim)
    assert event["recovery"] == "checkpoint"
    assert not (tmp_path / f"{victim}.ckpt").exists()  # replayed and consumed
    survivor = sorted(coordinator.nodes)[0]
    coordinator.remove_node(survivor)
    assert not (tmp_path / f"{survivor}.ckpt").exists()  # retired with the leaver
    coordinator.ingest(descriptors[400:])
    _assert_balanced(coordinator, 600)


def test_fresh_coordinator_warm_starts_from_disk_checkpoints(tmp_path):
    descriptors = scenario_descriptors("node_failover", 800, seed=13)
    first = ClusterCoordinator(
        nodes=3, config=CONFIG, telemetry_seed=13, checkpoint_dir=tmp_path
    )
    first.ingest(descriptors[:400])
    first.checkpoint_all()
    # The process "crashes" here; a new incarnation points at the same dir.
    second = ClusterCoordinator(
        nodes=3, config=CONFIG, telemetry_seed=13, checkpoint_dir=tmp_path
    )
    assert sorted(second.checkpoints) == sorted(first.nodes)
    second.ingest(descriptors[:400])  # re-learn the same stream segment
    victim = _busiest(second)
    at_risk = second.nodes[victim].active_flows
    event = second.fail_node(victim)
    assert event["recovery"] == "checkpoint"
    assert event["restored"] > 0
    assert event["lost"] < at_risk  # the disk checkpoint shrank the loss
    second.ingest(descriptors[400:])
    _assert_balanced(second, 800)


def test_add_node_warm_starts_from_a_checkpoint_file(tmp_path):
    descriptors = scenario_descriptors("node_failover", 600, seed=14)
    first = ClusterCoordinator(
        nodes=3, config=CONFIG, telemetry_seed=14, checkpoint_dir=tmp_path
    )
    first.ingest(descriptors)
    first.checkpoint_all()
    victim = _busiest(first)
    saved_flows = first.nodes[victim].active_flows
    assert saved_flows > 0
    path = tmp_path / f"{victim}.ckpt"

    # A different cluster (no checkpoint_dir of its own) imports the
    # retained *file* directly through add_node's snapshot parameter.
    second = ClusterCoordinator(nodes=2, config=CONFIG, telemetry_seed=14)
    event = second.add_node("joiner", snapshot=path)
    assert event["restored"] == saved_flows
    assert second.flows_restored == saved_flows
    assert second.active_flows == saved_flows
    books = second.flow_books()
    assert books["balanced"], books


def test_corrupt_checkpoint_file_fails_construction_clearly(tmp_path):
    (tmp_path / "node0.ckpt").write_bytes(b"not a frame")
    with pytest.raises(ValueError, match="node0.ckpt is not a readable node snapshot"):
        ClusterCoordinator(nodes=2, config=CONFIG, checkpoint_dir=tmp_path)


def test_foreign_checkpoint_files_are_left_on_disk_not_adopted(tmp_path):
    first = ClusterCoordinator(
        nodes=["node0", "node1", "retired9"], config=CONFIG,
        telemetry_seed=15, checkpoint_dir=tmp_path,
    )
    first.ingest(scenario_descriptors("zipf_mix", 300, seed=15))
    first.checkpoint_all()
    # A new incarnation with a smaller membership must not adopt the
    # departed node's file: replaying it could resurrect state this
    # cluster never lost.  It stays on disk for an explicit import.
    second = ClusterCoordinator(
        nodes=["node0", "node1"], config=CONFIG,
        telemetry_seed=15, checkpoint_dir=tmp_path,
    )
    assert sorted(second.checkpoints) == ["node0", "node1"]
    assert (tmp_path / "retired9.ckpt").exists()
    event = second.add_node("joiner", snapshot=tmp_path / "retired9.ckpt")
    assert event["restored"] > 0  # the explicit import path still works


@pytest.mark.parametrize("corruption", ["garbage", "truncated"])
def test_corrupt_snapshot_join_leaves_membership_untouched(tmp_path, corruption):
    """Regression: ``add_node(snapshot=...)`` must validate the snapshot
    *before* mutating membership.  A corrupt or truncated file used to be
    decoded only after the joiner was already on the ring with flows
    migrated onto it — the raise then left a half-applied join behind.
    Now the decode is the first thing that happens, so the raise leaves
    the ring, the membership and the flow books exactly as they were."""
    descriptors = scenario_descriptors("zipf_mix", 400, seed=21)
    coordinator = ClusterCoordinator(
        nodes=3, config=CONFIG, telemetry_seed=21, checkpoint_dir=tmp_path
    )
    coordinator.ingest(descriptors)
    coordinator.checkpoint_all()
    good = (tmp_path / "node0.ckpt").read_bytes()
    bad = tmp_path / "bad.ckpt"
    if corruption == "garbage":
        bad.write_bytes(b"not a snapshot frame at all")
    else:
        bad.write_bytes(good[: len(good) // 2])

    ring_members = set(coordinator.ring.node_ids)
    ring_stats = coordinator.ring.stats()
    members = set(coordinator.nodes)
    books = coordinator.flow_books()
    per_node_flows = {n: coordinator.nodes[n].active_flows for n in coordinator.nodes}
    joins = coordinator.joins

    from repro.persist import SnapshotFormatError

    with pytest.raises(SnapshotFormatError):
        coordinator.add_node("joiner", snapshot=bad)

    # Fail-before-mutate: nothing about the fleet changed.
    assert set(coordinator.ring.node_ids) == ring_members
    assert coordinator.ring.stats() == ring_stats
    assert set(coordinator.nodes) == members
    assert "joiner" not in coordinator.nodes and "joiner" not in coordinator.ring
    assert coordinator.flow_books() == books
    assert {n: coordinator.nodes[n].active_flows for n in coordinator.nodes} == per_node_flows
    assert coordinator.joins == joins
    # The cluster is fully operational afterwards: the same join with the
    # intact file works, and ingestion continues balanced.
    event = coordinator.add_node("joiner", snapshot=tmp_path / "node0.ckpt")
    assert event["restored"] > 0
    _assert_balanced(coordinator, 400)


def test_misnamed_checkpoint_file_is_rejected_at_construction(tmp_path):
    first = ClusterCoordinator(
        nodes=2, config=CONFIG, telemetry_seed=16, checkpoint_dir=tmp_path
    )
    first.ingest(scenario_descriptors("zipf_mix", 200, seed=16))
    first.checkpoint_all()
    # Renaming a file to another member's name is the intuitive-but-wrong
    # import; adopting it would silently degrade that node's protection.
    (tmp_path / "node1.ckpt").unlink()
    (tmp_path / "node0.ckpt").rename(tmp_path / "node1.ckpt")
    with pytest.raises(ValueError, match="holds a snapshot of node 'node0', not 'node1'"):
        ClusterCoordinator(nodes=2, config=CONFIG, checkpoint_dir=tmp_path)
