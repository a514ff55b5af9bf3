"""Model-based test of the coordinator's placement invariant (ROADMAP 4(ii)).

``ClusterCoordinator`` has one migration body, ``_reconcile_placement``:
after anything changes the placement function it moves exactly the flows
whose ``owner_of(key)`` is no longer the node they sit on.  That is only
correct if, *between public calls*, every live flow already sits on its
owner — a join must not have to look for flows stranded by an earlier pin,
nor an unpin for flows a failover installed somewhere odd.  This state
machine drives random interleavings of every public mutation over a small
fleet and checks that invariant (and the books that depend on it) after
every step, on both column backends.

A failing run prints the rule sequence; check the shrunk sequence in below
as a plain seeded test so it stays fixed.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.cluster import ClusterCoordinator
from repro.core.config import small_test_config
from repro.traffic import scenario_descriptors

STREAM = scenario_descriptors("hotspot_shift", 1500, seed=31)
MAX_NODES = 5
# 50 examples x 2 backends inside the tier-1 budget (~3 s each here).
SETTINGS = settings(max_examples=50, stateful_step_count=12, deadline=None)

picks = st.integers(min_value=0, max_value=2**16)


class CoordinatorMachine(RuleBasedStateMachine):
    @initialize(replication=st.sampled_from([1, 2]))
    def build(self, replication):
        self.coordinator = ClusterCoordinator(
            nodes=3,
            config=small_test_config(),
            telemetry_seed=31,
            flow_timeout_us=30.0,
            batch_size=32,
            replication=replication,
        )
        self.cursor = 0
        self.joined = 0

    def _member(self, pick):
        members = sorted(self.coordinator.nodes)
        return members[pick % len(members)]

    def _live_keys(self):
        return sorted(
            key
            for node in self.coordinator.nodes.values()
            for key, record in node.engine.live_flow_pairs()
            if record is not None
        )

    # -- rules ---------------------------------------------------------------

    @precondition(lambda self: self.cursor < len(STREAM))
    @rule(count=st.integers(min_value=1, max_value=150))
    def ingest(self, count):
        segment = STREAM[self.cursor : self.cursor + count]
        self.coordinator.ingest(segment)
        self.cursor += len(segment)

    @precondition(lambda self: len(self.coordinator.nodes) < MAX_NODES)
    @rule()
    def add_node(self):
        self.joined += 1
        self.coordinator.add_node(f"joiner{self.joined}")

    @precondition(lambda self: len(self.coordinator.nodes) > 1)
    @rule(pick=picks)
    def remove_node(self, pick):
        self.coordinator.remove_node(self._member(pick))

    @precondition(lambda self: len(self.coordinator.nodes) > 1)
    @rule(pick=picks)
    def fail_node(self, pick):
        self.coordinator.fail_node(self._member(pick))

    @rule(flows=st.lists(st.tuples(picks, picks), min_size=1, max_size=4))
    def pin_flows(self, flows):
        keys = self._live_keys()
        if keys:
            self.coordinator.pin_flows(
                {keys[flow % len(keys)]: self._member(target) for flow, target in flows}
            )

    @rule(subset=st.one_of(st.none(), st.lists(picks, max_size=3)))
    def unpin_flows(self, subset):
        pinned = sorted(self.coordinator.pins)
        if subset is None or not pinned:
            self.coordinator.unpin_flows()
        else:
            self.coordinator.unpin_flows([pinned[pick % len(pinned)] for pick in subset])

    @rule(pick=picks, weight=st.integers(min_value=1, max_value=3))
    def set_node_weight(self, pick, weight):
        self.coordinator.set_node_weight(self._member(pick), weight)

    @rule()
    def checkpoint_all(self):
        self.coordinator.checkpoint_all()

    @precondition(lambda self: self.cursor > 0)
    @rule()
    def run_housekeeping(self):
        self.coordinator.run_housekeeping(STREAM[self.cursor - 1].timestamp_ps)

    # -- invariants ----------------------------------------------------------

    @invariant()
    def every_live_flow_sits_on_its_owner(self):
        coordinator = self.coordinator
        for node_id, node in coordinator.nodes.items():
            for key, _ in node.engine.live_flow_pairs():
                assert coordinator.owner_of(key) == node_id

    @invariant()
    def pins_target_members(self):
        assert set(self.coordinator.pins.values()) <= set(self.coordinator.nodes)

    @invariant()
    def books_balance(self):
        coordinator = self.coordinator
        assert coordinator.flow_books()["balanced"], coordinator.flow_books()
        assert coordinator.cluster_totals()["completed"] == coordinator.ingested

    @invariant()
    def replica_copies_sit_on_the_backups(self):
        coordinator = self.coordinator
        if coordinator.replication < 2:
            return
        for key in self._live_keys():
            holders = [n for n, node in coordinator.nodes.items() if key in node.replica_flows]
            assert sorted(holders) == sorted(coordinator.backups_of(key))


def test_random_histories_keep_every_flow_on_its_owner(each_backend):
    for _label, context in each_backend():
        with context:
            run_state_machine_as_test(CoordinatorMachine, settings=SETTINGS)
