"""Model-based test of one flow table's flow identities (ROADMAP 6(i), first slice).

Flow IDs are location-derived and flow state is keyed by them, so an ID that
is re-issued while its first holder is live, or that changes under a live
key, silently merges two flows' counters.  This machine drives random
interleavings of the operations that create, move and remove entries —
``process_block``, migration out (``detach`` + ``delete_flow``, and the
bulk ``extract_flows``), migration in (``restore_flow``) and
``run_housekeeping`` — against a plain dict of ``key -> flow ID``, and
holds the table's key index to its CAM and bucket contents after every
rule, on tables small enough to overflow into
the CAM and to refuse inserts, on both column backends.  The machine drives a
:class:`~repro.core.flow_lut.FlowTable`, the class every engine shard is.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from hypothesis.stateful import run_state_machine_as_test

from repro.columns import DescriptorBlock
from repro.core.config import small_test_config
from repro.core.flow_lut import FlowTable
from repro.core.flow_state import FlowRecord, FlowStateTable
from repro.net.fivetuple import FlowKey

FLOW_KEYS = [
    FlowKey(src_ip=0x0A000000 + i * 7919, dst_ip=0xC0A80000 + i, src_port=2000 + i,
            dst_port=443, protocol=6)
    for i in range(24)
]
ENGINE_KEYS = [DescriptorBlock.from_rows([(key, 0, 0, 0)]).key_data for key in FLOW_KEYS]
TIMEOUT_PS = 1_000_000
SETTINGS = settings(max_examples=40, stateful_step_count=20, deadline=None)

picks = st.integers(0, len(FLOW_KEYS) - 1)
steps_ps = st.integers(0, TIMEOUT_PS // 2)


class FlowTableMachine(RuleBasedStateMachine):
    @initialize(shape=st.sampled_from([(8, 2, 2), (12, 3, 1), (65_536, 2, 32)]))
    def build(self, shape):
        num_flows, bucket_entries, cam_entries = shape
        config = small_test_config(
            num_flows=num_flows, bucket_entries=bucket_entries, cam_entries=cam_entries
        )
        self.lut = FlowTable(config, flow_state=FlowStateTable(timeout_us=TIMEOUT_PS / 1e6))
        self.ids = {}  # engine key -> flow ID, while the flow is live
        self.last_seen = {}
        self.parked = {}  # engine key -> record taken out by migrate_out
        self.now = 0

    def _learn(self, key, flow_id, seen_ps):
        assert flow_id not in self.ids.values(), "a live flow's ID was issued again"
        self.ids[key] = flow_id
        self.last_seen[key] = seen_ps

    def _forget(self, key):
        del self.ids[key], self.last_seen[key]

    # -- rules ---------------------------------------------------------------

    @rule(rows=st.lists(st.tuples(picks, steps_ps), min_size=1, max_size=12))
    def process_block(self, rows):
        stamped = []
        for pick, step in rows:
            self.now += step
            stamped.append((pick, self.now))
        outcome = self.lut.process_block(
            DescriptorBlock.from_rows((FLOW_KEYS[pick], 64, ts, 0x10) for pick, ts in stamped)
        )
        for (pick, ts), flow_id, hit, new in zip(
            stamped, outcome.flow_ids, outcome.hits, outcome.new_flows
        ):
            key = ENGINE_KEYS[pick]
            if key in self.ids:
                assert hit and not new and flow_id == self.ids[key]
                self.last_seen[key] = ts
            elif new:
                assert not hit
                self._learn(key, int(flow_id), ts)
            else:  # nowhere to put it: both buckets and the CAM are full
                assert not hit and flow_id == -1
                assert self.lut.table.cam.is_full

    @rule(pick=picks)
    def migrate_out(self, pick):
        key = ENGINE_KEYS[pick]
        if key in self.ids:
            self.parked[key] = self.lut.flow_state.detach(self.ids[key])
            self._forget(key)
            assert self.lut.delete_flow(key)
        else:
            assert not self.lut.delete_flow(key)

    @rule(chosen=st.sets(picks, max_size=6))
    def extract_flows(self, chosen):
        # Bulk migration out: the moved keys leave the table through
        # delete_rows, their state as FlowRows, parked as records.
        wanted = {ENGINE_KEYS[pick] for pick in chosen}
        moved = self.lut.extract_flows(lambda keys: [key in wanted for key in keys])
        assert {key for key, _ in moved} == wanted & set(self.ids)
        for key, row in moved:
            assert row.flow_id == self.ids[key] and row.last_seen == self.last_seen[key]
            self.parked[key] = FlowRecord(
                row.flow_id, FLOW_KEYS[ENGINE_KEYS.index(key)], row.packets, row.octets,
                row.first_seen, row.last_seen, row.tcp_flags,
            )
            self._forget(key)

    @rule(pick=picks)
    def restore_flow(self, pick):
        key = ENGINE_KEYS[pick]
        record = self.parked.pop(key, None) or FlowRecord(
            flow_id=0, key=FLOW_KEYS[pick], packets=1, bytes=64,
            first_seen_ps=self.now, last_seen_ps=self.now,
        )
        seen_ps = record.last_seen_ps
        restored = self.lut.restore_flow(record, key)
        if key in self.ids:
            assert restored  # folded into the resident record, ID unchanged
            self.last_seen[key] = max(self.last_seen[key], seen_ps)
        elif restored:
            self._learn(key, record.flow_id, seen_ps)
        else:
            assert self.lut.table.cam.is_full

    @rule(step=st.integers(0, 2 * TIMEOUT_PS))
    def run_housekeeping(self, step):
        self.now += step
        stale = [key for key, seen in self.last_seen.items() if self.now - seen > TIMEOUT_PS]
        assert self.lut.run_housekeeping(self.now) == len(stale)
        for key in stale:
            self._forget(key)

    # -- invariants ----------------------------------------------------------

    @invariant()
    def live_keys_and_ids_are_the_models(self):
        live = self.lut.live_items()
        assert sorted((key, flow_id) for flow_id, key in live) == sorted(self.ids.items())
        assert len(self.lut.table) == len(live)

    @invariant()
    def the_table_stores_each_id_once(self):
        table = self.lut.table
        stored = [
            (entry.key, entry.flow_id)
            for memory in table._memories
            for entries in memory.values()
            for entry in entries
        ] + list(table.cam)
        assert sorted(stored) == sorted(self.ids.items())

    @invariant()
    def the_key_index_is_the_table_contents(self):
        # The index process_block and install resolve keys with must be
        # exactly the CAM plus both memories' buckets.
        table = self.lut.table
        stored = dict(table.cam)
        for buckets in table._memories:
            for entries in buckets.values():
                stored.update(entries)
        assert table._index == stored

    @invariant()
    def flow_state_follows_the_ids(self):
        state = self.lut.flow_state
        assert sorted(record.flow_id for record in state) == sorted(self.ids.values())
        for key, flow_id in self.ids.items():
            record = state.get(flow_id)
            assert record.flow_id == flow_id
            assert record.key == FLOW_KEYS[ENGINE_KEYS.index(key)]
            assert record.last_seen_ps == self.last_seen[key]


def test_random_histories_keep_flow_ids_unique_and_stable(each_backend):
    for _label, context in each_backend():
        with context:
            run_state_machine_as_test(FlowTableMachine, settings=SETTINGS)
