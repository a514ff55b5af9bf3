"""Golden membership history: the coordinator's decisions, pinned byte for byte.

``tests/fixtures/coordinator_history.json`` was captured at the commit
*before* the coordinator's migration, event, failover and load-table copies
were collapsed (``PYTHONPATH=<that checkout>/src python
tests/test_coordinator_history.py`` rewrites it).  One scripted history —
ingest, join, pin, unpin, reweight, housekeeping, leave, fail — runs under
each protection mode, and everything an operator could observe of the
control plane's decisions must come out identical: the ``events`` list, the
conservation books, the merged top-10 and flow-size histogram, and the
order of journal entries.
"""

import json
from pathlib import Path

import pytest

from repro.cluster import ClusterCoordinator
from repro.core.config import small_test_config
from repro.telemetry import TelemetryConfig
from repro.traffic import scenario_descriptors

FIXTURE = Path(__file__).parent / "fixtures" / "coordinator_history.json"
PACKETS = 1600
SEED = 23
VARIANTS = {
    "k1_checkpoints": {"replication": 1, "checkpoint_interval": 60},
    "k2": {"replication": 2},
    "k2_checkpoints": {"replication": 2, "checkpoint_interval": 60},
}


def _hottest(coordinator, node_id, count):
    pairs = [
        (record.packets, key)
        for key, record in coordinator.nodes[node_id].engine.live_flow_pairs()
        if record is not None
    ]
    return [key for _, key in sorted(pairs, key=lambda p: (-p[0], p[1]))[:count]]


def _by_load(coordinator):
    return sorted(coordinator.nodes, key=lambda n: (coordinator.nodes[n].completed, n))


def run_history(**protection) -> dict:
    descriptors = scenario_descriptors("hotspot_shift", PACKETS, seed=SEED)
    coordinator = ClusterCoordinator(
        nodes=4,
        config=small_test_config(),
        telemetry_config=TelemetryConfig(heavy_hitter_capacity=4096),
        telemetry_seed=SEED,
        flow_timeout_us=40.0,
        batch_size=32,
        obs=True,
        **protection,
    )
    segments = iter(range(0, PACKETS, 200))

    def ingest():
        offset = next(segments)
        coordinator.ingest(descriptors[offset : offset + 200])
        return descriptors[offset + 199].timestamp_ps

    ingest()
    coordinator.add_node("joiner")
    ingest()
    order = _by_load(coordinator)
    hot = _hottest(coordinator, order[-1], 3)
    coordinator.pin_flows({key: order[0] for key in hot})
    ingest()
    coordinator.unpin_flows(hot[:1])
    coordinator.set_node_weight("node1", 2)
    now_ps = ingest()
    coordinator.run_housekeeping(now_ps)
    coordinator.remove_node("node2")
    ingest()
    coordinator.finalize_telemetry()
    coordinator.fail_node(_by_load(coordinator)[-1])
    ingest()
    coordinator.unpin_flows()
    ingest()
    # The coldest member sits below the checkpoint trigger, so this failure
    # has an un-checkpointed delta to lose.
    coordinator.fail_node(_by_load(coordinator)[0])
    ingest()
    coordinator.finalize_telemetry()

    merged = coordinator.merged_telemetry()
    return {
        "events": coordinator.events,
        "flow_books": coordinator.flow_books(),
        "cluster_totals": coordinator.cluster_totals(),
        "telemetry_packets_lost": coordinator.telemetry_packets_lost,
        "top10": [
            [hitter.key.hex(), hitter.count, hitter.error]
            for hitter in merged.top_talkers(10)
        ],
        "flow_sizes": merged.flow_sizes.histogram(),
        "journal": [[event.seq, event.kind] for event in coordinator.journal],
    }


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_history_matches_the_golden_capture(variant):
    golden = json.loads(FIXTURE.read_text())[variant]
    # Through JSON and back, so tuples and int keys compare like the fixture.
    assert json.loads(json.dumps(run_history(**VARIANTS[variant]))) == golden


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps(
            {name: run_history(**kwargs) for name, kwargs in sorted(VARIANTS.items())},
            indent=1,
        )
        + "\n"
    )
