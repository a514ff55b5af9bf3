"""The control loop's lazy per-flow deltas against the eager refresh they replaced.

``ClusterControl`` snapshots one ``{key: packets}`` dict per window and derives
a flow's window delta only when a pin is being chosen.  The eager refresh it
replaced — every live flow on every node, sorted, a delta built per flow at
every window — survives here as :func:`reference_refresh_flow_deltas`; a
seeded ``hotspot_shift`` fleet is driven through flows that expire and
re-learn, flows that migrate (a join and the loop's own pins) and steps that
consume two windows at once, and at every window the lazy delta of every live
flow must equal the reference delta.
"""

from dataclasses import replace

from repro.cluster import ClusterControl, ClusterCoordinator, RebalancePolicy
from repro.core.config import small_test_config
from repro.obs import Observability
from repro.traffic import scenario_descriptors

CONFIG = small_test_config()
PACKETS = 3200
WINDOWS = 8


def reference_refresh_flow_deltas(nodes, previous_marks):
    """The eager refresh: ``(marks, deltas)`` over every live flow of the fleet.

    Reads every live flow's cumulative packet count and diffs it against the
    global marks (clamped at 0: a flow that expired and re-learned restarts
    its count).  Marks for flows no longer live are dropped.
    """
    marks = {}
    deltas = {}
    for node in nodes.values():
        for key_bytes, record in node.engine.live_flow_pairs():
            if record is None:
                continue
            marks[key_bytes] = record.packets
            deltas[key_bytes] = float(max(record.packets - previous_marks.get(key_bytes, 0), 0))
    return marks, deltas


def _fleet(seed=7):
    descriptors = scenario_descriptors("hotspot_shift", PACKETS, seed=seed)
    duration = descriptors[-1].timestamp_ps - descriptors[0].timestamp_ps
    obs = Observability(window_ps=max(1, duration // WINDOWS))
    # Flows age out only in an explicit housekeeping pass a stream's length later.
    coordinator = ClusterCoordinator(
        nodes=4, config=CONFIG, telemetry_seed=seed, obs=obs, flow_timeout_us=duration / 1e6
    )
    control = ClusterControl(
        coordinator, rebalance=RebalancePolicy(min_window_packets=PACKETS // (WINDOWS * 4))
    )
    return descriptors, duration, coordinator, control


def test_lazy_deltas_equal_the_eager_refresh_at_every_window():
    descriptors, duration, coordinator, control = _fleet()
    seen = {"marks": {}, "owners": {}, "windows": 0, "clamped": 0, "migrated": 0}
    refresh = control._refresh_flow_deltas

    def checked_refresh():
        refresh()
        previous = seen["marks"]
        seen["marks"], deltas = reference_refresh_flow_deltas(coordinator.nodes, previous)
        owners = {
            key: node_id
            for node_id, node in coordinator.nodes.items()
            for key, record in node.engine.live_flow_pairs()
            if record is not None
        }
        for key, delta in deltas.items():
            assert control._flow_delta(key) == delta
            if seen["marks"][key] < previous.get(key, 0):
                seen["clamped"] += 1
            moved_from = seen["owners"].get(key)
            if moved_from is not None and moved_from != owners[key] and delta > 0:
                seen["migrated"] += 1
        seen["owners"] = owners
        seen["windows"] += 1

    control._refresh_flow_deltas = checked_refresh
    steps = []

    def drive(chunk, segments):
        step = max(1, len(chunk) // segments)
        for offset in range(0, len(chunk), step):
            coordinator.ingest(chunk[offset : offset + step])
            before = seen["windows"]
            control.step()
            steps.append(seen["windows"] - before)

    half = PACKETS // 2
    drive(descriptors[:half], 16)
    coordinator.add_node("joiner")  # flows on the joiner's arcs migrate
    # Coarse segments: one ingest crosses two window boundaries.
    drive(descriptors[half:], 3)
    # Every flow expires, then the opening traffic re-learns them from one
    # packet while the marks still hold their old counts.
    shift = duration + 1
    coordinator.run_housekeeping(now_ps=descriptors[-1].timestamp_ps + 10 * shift)
    replay = [replace(d, timestamp_ps=d.timestamp_ps + 11 * shift) for d in descriptors[:half]]
    drive(replay, 8)

    assert any(action.kind == "pin" for action in control.actions)
    assert seen["migrated"] > 0
    assert seen["clamped"] > 0
    assert max(steps) >= 2
    assert seen["windows"] == control.windows_seen


def test_a_window_that_does_not_pin_walks_no_flow_pairs(monkeypatch):
    descriptors, _, coordinator, control = _fleet()
    calls = []
    for node in coordinator.nodes.values():
        walk = node.engine.live_flow_pairs

        def counted(walk=walk):
            calls.append(1)
            return walk()

        monkeypatch.setattr(node.engine, "live_flow_pairs", counted)
    # The balanced first quarter of hotspot_shift closes windows without an action.
    step = PACKETS // 32
    for offset in range(0, PACKETS // 4, step):
        coordinator.ingest(descriptors[offset : offset + step])
        control.step()
    assert control.windows_seen > 0
    assert control.actions == []
    assert calls == []
