"""Differential test of the k=2 block transport against the list transport.

The replication plane used to explode every primary ``OutcomeBlock`` into
``LookupOutcome`` objects, group them per backup with one ``backups_of`` ring
walk per key, mirror them into the ``ReplicaStore`` one outcome at a time and
re-pack and re-hash them in every backup pipeline.  That transport is kept
here, verbatim, as the reference (``reference_*`` below, together with the
per-key resync and sizing mirror it ran beside; those two follow the
coordinator's hooks: sizings arrive as ``(key, packets, bytes)`` and a
seeded record is handed over, so each store is seeded with its own copy).  ``ListTransportCoordinator``
plugs it into an otherwise unchanged coordinator, and both fleets are driven
over the same history — ingest, 40 pins, a join, an expiry pass, a failover,
a window close — on every column backend and executor.  Every backup
pipeline's bytes, every replica record, the stores' update counters,
``replicated_packets``, the flow books and the merged telemetry must match
at every step.  The column primitives the transport is built from —
``HashRing.lookup_n_column``, ``OutcomeBlock.take`` and the carried
``TelemetryHashes`` — are checked against their row-wise definitions at the
end.
"""

from __future__ import annotations

import pickle
from dataclasses import astuple, replace
from typing import Dict, List, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterCoordinator, HashRing
from repro.columns.block import DescriptorBlock
from repro.core.config import small_test_config
from repro.core.flow_lut import FlowLUT
from repro.core.flow_state import FlowRecord
from repro.net.fivetuple import FlowKey
from repro.persist import dumps, loads
from repro.telemetry.pipeline import TelemetryHashes, TelemetryPipeline
from repro.traffic.scenarios import scenario_block

SCENARIOS = ("zipf_mix", "node_failover", "churn", "hotspot_shift", "syn_flood")


# --------------------------------------------------------------------------- #
# The reference: the LookupOutcome-list transport
# --------------------------------------------------------------------------- #


def reference_observe_outcome(store, outcome) -> bool:
    """``ReplicaStore.observe_outcome``: mirror one outcome into the copies."""
    if outcome.flow_id is None:
        return False
    descriptor = outcome.descriptor
    key_bytes = descriptor.key_bytes
    timestamp = getattr(descriptor, "timestamp_ps", 0)
    record = store._records.get(key_bytes)
    if record is None:
        record = FlowRecord(
            flow_id=0,
            key=descriptor.key,
            first_seen_ps=timestamp,
            last_seen_ps=timestamp,
        )
        store._records[key_bytes] = record
    record.packets += 1
    record.bytes += getattr(descriptor, "length_bytes", 0)
    record.last_seen_ps = max(record.last_seen_ps, timestamp)
    record.tcp_flags |= getattr(descriptor, "tcp_flags", 0)
    store.updates += 1
    return True


def reference_observe_list(pipeline, outcomes) -> int:
    """The list entrance of ``TelemetryPipeline.observe_outcomes``: pack the
    outcomes into a fresh block and run the whole body (hash and apply)."""
    count = 0
    rows = []
    for outcome in outcomes:
        count += 1
        descriptor = outcome.descriptor
        key = getattr(descriptor, "key", None)
        if isinstance(key, FlowKey):
            rows.append((key, getattr(descriptor, "length_bytes", 0), 0, getattr(descriptor, "tcp_flags", 0)))
    pipeline._observe_block(DescriptorBlock.from_rows(rows))
    return count


def reference_node_replicate(node, primary_id: str, outcomes) -> int:
    """``ClusterNode.replicate`` over a ``LookupOutcome`` list."""
    if not node.alive:
        raise RuntimeError(f"node {node.node_id!r} has failed; cannot replicate")
    for outcome in outcomes:
        reference_observe_outcome(node.replica_flows, outcome)
    if node.pipeline is not None and outcomes:
        reference_observe_list(node.backup_pipeline(primary_id), outcomes)
    return len(outcomes)


class ListTransportCoordinator(ClusterCoordinator):
    """A coordinator whose replication plane is the list transport."""

    def _replicate(self, primary_id, outcomes, backup_sets=None) -> None:
        # The steering pass's backup sets are ignored: the reference walks
        # the ring once per key.
        outcomes = outcomes.to_outcomes()
        if len(self.ring) < 2:
            return
        backups: Dict[bytes, List[str]] = {}
        groups: Dict[str, list] = {}
        for outcome in outcomes:
            key_bytes = outcome.descriptor.key_bytes
            backup_ids = backups.get(key_bytes)
            if backup_ids is None:
                backup_ids = self.backups_of(key_bytes)
                backups[key_bytes] = backup_ids
            for backup_id in backup_ids:
                groups.setdefault(backup_id, []).append(outcome)
        for backup_id, group in groups.items():
            reference_node_replicate(self.nodes[backup_id], primary_id, group)
            self.replicated_packets += len(group)
            if self.obs is not None:
                self._obs_replicated.inc(len(group))

    def _mirror_sizings(self, primary_id, sizings, ended) -> None:
        for key_bytes, packets, bytes_ in sizings:
            for backup_id in self.backups_of(key_bytes):
                backup = self.nodes[backup_id]
                if ended:
                    backup.replica_flows.drop(key_bytes)
                if self.telemetry_enabled:
                    backup.backup_pipeline(primary_id).flow_sizes.observe_flow(packets, bytes_)

    def _resync_replication_plane(self) -> None:
        if self.replication <= 1:
            return
        for node in self.nodes.values():
            node.replica_flows.clear()
            node.backup_pipelines.clear()
        if len(self.ring) < 2:
            return
        for node in self.nodes.values():
            for key_bytes, record in node.engine.live_flow_pairs():
                if record is None:
                    continue
                for backup_id in self.backups_of(key_bytes):
                    self.nodes[backup_id].replica_flows.seed(key_bytes, replace(record))
            if node.pipeline is not None and node.pipeline.packets:
                hosts = [other for other in self.nodes if other != node.node_id]
                self.nodes[min(hosts)].backup_pipelines[node.node_id] = loads(
                    dumps(node.pipeline)
                )


# --------------------------------------------------------------------------- #
# Driving both fleets
# --------------------------------------------------------------------------- #


def replication_state(coordinator) -> dict:
    """Everything the replication plane holds, order included."""
    return {
        "pipelines": [
            (backup_id, primary_id, dumps(pipeline))
            for backup_id, node in coordinator.nodes.items()
            for primary_id, pipeline in node.backup_pipelines.items()
        ],
        "replicas": [
            (backup_id, key, astuple(record))  # a copy: promotion mutates records
            for backup_id, node in coordinator.nodes.items()
            for key, record in node.replica_flows._records.items()
        ],
        "updates": {node_id: node.replica_flows.updates for node_id, node in coordinator.nodes.items()},
        "replicated_packets": coordinator.replicated_packets,
        "insert_failures": sum(node.insert_failures for node in coordinator.nodes.values()),
        "books": coordinator.flow_books(),
        "merged": dumps(coordinator.merged_telemetry()),
    }


def drive(
    cls, scenario: str, executor, rows: int = 360, expire: bool = True, config=None
) -> List[dict]:
    """One history — ingest, pins, a join, expiry, a failover, a window
    close — with the replication state captured after every step.

    ``expire=False`` skips the expiry pass: its deletes leave completion
    callbacks in flight that cannot cross a process boundary.
    """
    block = scenario_block(scenario, rows, seed=29)
    duration_us = (int(block.timestamps[rows - 1]) - int(block.timestamps[0])) / 1e6
    coordinator = cls(
        nodes=4,
        config=config,
        telemetry_seed=31,
        replication=2,
        batch_size=32,
        flow_timeout_us=max(duration_us / 3, 1.0),
        executor=executor,
    )
    states = []
    step = rows // 6
    segments = [block.slice_rows(offset, offset + step) for offset in range(0, rows, step)]
    try:
        coordinator.ingest(segments[0])
        states.append(replication_state(coordinator))
        keys = list(dict.fromkeys(segments[0].keys()))[:40]
        members = sorted(coordinator.nodes)
        coordinator.pin_flows({key: members[index % len(members)] for index, key in enumerate(keys)})
        coordinator.ingest(segments[1])
        states.append(replication_state(coordinator))
        coordinator.add_node("joiner")
        coordinator.ingest(segments[2])
        coordinator.ingest(segments[3])
        states.append(replication_state(coordinator))
        if expire:
            coordinator.run_housekeeping(int(segments[3].timestamps[len(segments[3]) - 1]))
            states.append(replication_state(coordinator))
        nodes = coordinator.nodes
        coordinator.fail_node(max(nodes, key=lambda node_id: (nodes[node_id].completed, node_id)))
        for segment in segments[4:]:
            coordinator.ingest(segment)
        states.append(replication_state(coordinator))
        coordinator.finalize_telemetry()
        states.append(replication_state(coordinator))
    finally:
        coordinator.close()
    return states


def assert_same_states(expected: Sequence[dict], actual: Sequence[dict], label) -> None:
    assert len(actual) == len(expected)
    for step, (want, got) in enumerate(zip(expected, actual)):
        for field in want:
            assert got[field] == want[field], (label, step, field)


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("executor", ["off", "thread:2"])
def test_block_transport_equals_the_list_transport(each_backend, scenario, executor):
    for label, context in each_backend():
        with context:
            expected = drive(ListTransportCoordinator, scenario, executor)
            actual = drive(ClusterCoordinator, scenario, executor)
        assert expected[-1]["replicated_packets"] > 0
        assert_same_states(expected, actual, (scenario, executor, label))


def test_rows_without_a_flow_id_reach_backup_sketches_but_not_replicas(each_backend):
    config = small_test_config(num_flows=64, cam_entries=4)  # tables overflow
    for label, context in each_backend():
        with context:
            expected = drive(ListTransportCoordinator, "syn_flood", "off", config=config)
            actual = drive(ClusterCoordinator, "syn_flood", "off", config=config)
        assert max(state["insert_failures"] for state in expected) > 0
        assert_same_states(expected, actual, label)


def test_block_transport_crosses_the_process_boundary():
    expected = drive(ListTransportCoordinator, "zipf_mix", "off", rows=240, expire=False)
    actual = drive(ClusterCoordinator, "zipf_mix", "process:2", rows=240, expire=False)
    assert_same_states(expected, actual, "process")


# --------------------------------------------------------------------------- #
# The transport's column primitives
# --------------------------------------------------------------------------- #

_KEY = st.binary(min_size=13, max_size=13)


@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(st.integers(1, 3), min_size=1, max_size=6),
    count=st.integers(1, 8),
    vnodes=st.sampled_from([1, 4, 16]),
    keys=st.lists(_KEY, min_size=1, max_size=40),
    changes=st.lists(
        st.tuples(st.sampled_from(["add", "remove", "weight"]), st.integers(0, 9), st.integers(1, 3)),
        max_size=4,
    ),
)
def test_lookup_n_column_equals_lookup_n_through_membership_changes(
    each_backend, weights, count, vnodes, keys, changes
):
    data = b"".join(keys)
    for label, context in each_backend():
        with context:
            ring = HashRing(vnodes=vnodes)
            for index, weight in enumerate(weights):
                ring.add_node(f"n{index}", weight)

            def check():
                expected = [tuple(ring.lookup_n(key, count)) for key in keys]
                assert ring.lookup_n_column(data, len(keys), 13, count) == expected, label
                assert ring.lookup_column(data, len(keys), 13) == [ring.lookup(key) for key in keys]

            check()  # fills the replica-set memo the changes below must drop
            for step, (action, pick, weight) in enumerate(changes):
                members = ring.node_ids
                if action == "add":
                    ring.add_node(f"x{step}", weight)
                elif action == "remove" and len(members) > 1:
                    ring.remove_node(members[pick % len(members)])
                else:
                    ring.set_weight(members[pick % len(members)], weight)
                check()


def test_lookup_n_column_rejects_what_lookup_n_rejects():
    ring = HashRing()
    with pytest.raises(LookupError):
        ring.lookup_n_column(b"\x00" * 13, 1, 13)
    ring.add_node("a")
    with pytest.raises(ValueError):
        ring.lookup_n_column(b"\x00" * 13, 1, 13, 0)


def _observed_outcomes(rows: int = 64):
    """An outcome block carrying the hash columns of a seed-3 pipeline."""
    outcomes = FlowLUT(small_test_config()).process_block(scenario_block("zipf_mix", rows, seed=5))
    TelemetryPipeline(seed=3).observe_outcomes(outcomes)
    assert outcomes.hashes is not None
    return outcomes


def _hash_columns(hashes):
    return {name: getattr(hashes, name) for name in TelemetryHashes.__slots__}


@settings(max_examples=30, deadline=None)
@given(rows=st.lists(st.integers(0, 63), max_size=40))
def test_outcome_block_take_equals_row_selection(each_backend, rows):
    for label, context in each_backend():
        with context:
            outcomes = _observed_outcomes()
            taken = outcomes.take(rows)
            every = outcomes.to_outcomes()
            assert taken.to_outcomes() == [every[row] for row in rows], label
            assert taken.block == outcomes.block.take(rows), label
            assert _hash_columns(taken.hashes) == _hash_columns(
                TelemetryPipeline(seed=3)._hash_block(taken.block)
            ), label
            # Applying the carried columns equals hashing the slice afresh.
            carried, fresh = TelemetryPipeline(seed=3), TelemetryPipeline(seed=3)
            assert carried.observe_outcomes(taken) == len(rows)
            fresh._observe_block(taken.block)
            assert dumps(carried) == dumps(fresh), label


def test_carried_hashes_of_another_family_are_not_applied():
    outcomes = _observed_outcomes()
    other, reference = TelemetryPipeline(seed=4), TelemetryPipeline(seed=4)
    other.observe_outcomes(outcomes)
    reference._observe_block(outcomes.block)
    assert dumps(other) == dumps(reference)
    assert outcomes.hashes.family == TelemetryPipeline(seed=3)._hash_family()


def test_outcome_block_pickle_round_trip_keeps_the_hash_columns(each_backend):
    for label, context in each_backend():
        with context:
            taken = _observed_outcomes().take([5, 1, 1, 40])
            restored = pickle.loads(pickle.dumps(taken))
            assert restored.to_outcomes() == taken.to_outcomes(), label
            assert _hash_columns(restored.hashes) == _hash_columns(taken.hashes), label
