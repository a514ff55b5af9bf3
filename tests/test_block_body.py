"""The block body, ``FlowLUT.process_block``, against the loop it replaced.

``reference_process_block`` is the row loop as it stood before the body was
rewritten to touch each row once (it indexes numpy columns per row, builds a
``FlowKey`` for every row and re-probes through ``HashCamTable.insert`` on a
miss).  It is slow and obviously in step with the timed path; the shipped body
must agree with it on every observable: outcome columns, ``report()``, CAM and
flow-state books and records, live keys and snapshot bytes.  The count tests
pin what the rewrite is for — work that an all-hit block no longer does.
"""

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.columns import DescriptorBlock
from repro.columns.block import STAGE_CODES, OutcomeBlock
from repro.core.config import small_test_config
from repro.core.flow_lut import FlowLUT
from repro.core.flow_state import FlowStateTable
from repro.core.hash_cam import LookupStage
from repro.net.fivetuple import FlowKey
from repro.persist import dump_flow_lut


def reference_process_block(lut, block, hash_columns=None):
    """The pre-rewrite row loop, kept as the reference the body is tested against."""
    count = len(block)
    table = lut.table
    if hash_columns is None:
        idx1_col, idx2_col = table.column_hash_indices(block.key_data, count, block.key_width)
    else:
        idx1_col, idx2_col = hash_columns

    base = max(lut._last_complete_ps, lut.sim.now)
    period = lut._sys_period
    if count and lut._first_submit_ps is None:
        lut._first_submit_ps = base

    keys = block.keys()
    flow_state = lut.flow_state
    flow_keys = block.flow_keys() if flow_state is not None else None
    lengths = block.lengths
    timestamps = block.timestamps
    flags = block.flags

    cam = table.cam
    memories = table._memories
    code_mem = (STAGE_CODES[LookupStage.MEM1], STAGE_CODES[LookupStage.MEM2])

    flow_ids = []
    hits = bytearray(count)
    new_flows = bytearray(count)
    stages = bytearray(count)
    hit_total = 0
    new_total = 0

    for i in range(count):
        key = keys[i]
        flow_id = -1
        cam_value = cam.lookup(key)
        if cam_value is not None:
            flow_id = int(cam_value)
            hits[i] = 1
            stages[i] = STAGE_CODES[LookupStage.CAM]
            hit_total += 1
        else:
            index1 = int(idx1_col[i])
            index2 = int(idx2_col[i])
            found = False
            for memory, bucket in ((0, index1), (1, index2)):
                for entry in memories[memory].get(bucket, ()):
                    if entry.key == key:
                        flow_id = entry.flow_id
                        hits[i] = 1
                        stages[i] = code_mem[memory]
                        hit_total += 1
                        found = True
                        break
                if found:
                    break
            if not found:
                if not lut.config.insert_on_miss:
                    stages[i] = STAGE_CODES[LookupStage.MISS]
                else:
                    insert = table.insert(key, indices=(index1, index2))
                    assert not insert.already_present
                    if not insert.inserted:
                        lut.insert_failures += 1
                        stages[i] = STAGE_CODES[LookupStage.MISS]
                    else:
                        new_flows[i] = 1
                        stages[i] = STAGE_CODES[insert.stage]
                        new_total += 1
                        flow_id = insert.flow_id
                        lut._live_keys[insert.flow_id] = key
        flow_ids.append(flow_id)
        if flow_state is not None and flow_id >= 0:
            flow_state.update(
                flow_id,
                flow_keys[i],
                length_bytes=int(lengths[i]),
                timestamp_ps=int(timestamps[i]),
                tcp_flags=int(flags[i]),
            )

    lut.submitted += count
    lut.completed += count
    lut.hits += hit_total
    lut.misses += count - hit_total
    lut.new_flows += new_total
    if count:
        lut._last_complete_ps = base + ((count - 1) // 2 + 1) * period
    return OutcomeBlock(
        block,
        array("q", flow_ids),
        hits,
        new_flows,
        stages,
        array("b", [-1]) * count,
        array("q", [base]) * count,
        array("q", (base + (i // 2 + 1) * period for i in range(count))),
    )


# --------------------------------------------------------------------------- #
# Differential test
# --------------------------------------------------------------------------- #

KEY_POOL = [
    FlowKey(src_ip=0x0A000000 + i * 7919, dst_ip=0xC0A80000 + i, src_port=1024 + i,
            dst_port=(53, 80, 443)[i % 3], protocol=(6, 17)[i % 2])
    for i in range(48)
]

# (num_flows, bucket_entries, cam_entries): four rows of CAM-overflowing,
# insert-failing tables and one roomy one.
SHAPES = [(4, 1, 1), (8, 2, 2), (16, 2, 4), (24, 3, 1), (65_536, 2, 32)]

row = st.tuples(
    st.integers(0, len(KEY_POOL) - 1),
    st.integers(40, 1500),
    st.integers(0, 10**9),
    st.integers(0, 0xFFFF),
)
blocks = st.lists(st.lists(row, max_size=40), min_size=1, max_size=4)


def _columns(outcome):
    return [
        list(column)
        for column in (
            outcome.flow_ids, outcome.hits, outcome.new_flows, outcome.stages,
            outcome.first_paths, outcome.submit_ps, outcome.complete_ps,
        )
    ]


def _observable(lut):
    state = lut.flow_state
    return {
        "report": lut.report(),
        "cam": lut.table.cam.stats(),
        "flow_state": None if state is None else (
            state.stats(),
            sorted((r.flow_id, r.key, r.packets, r.bytes, r.first_seen_ps, r.last_seen_ps,
                    r.tcp_flags) for r in state),
        ),
        "live": lut.live_items(),
        "elapsed_ps": lut.elapsed_ps,
        "snapshot": dump_flow_lut(lut),
    }


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    insert_on_miss=st.booleans(),
    with_state=st.booleans(),
    given_columns=st.booleans(),
    preloaded=st.integers(0, 6),
    batches=blocks,
)
def test_block_body_matches_the_reference_loop(
    each_backend, shape, insert_on_miss, with_state, given_columns, preloaded, batches
):
    num_flows, bucket_entries, cam_entries = shape
    config = small_test_config(
        num_flows=num_flows, bucket_entries=bucket_entries, cam_entries=cam_entries,
        insert_on_miss=insert_on_miss,
    )
    for label, context in each_backend():
        with context:
            luts = [
                FlowLUT(config, flow_state=FlowStateTable() if with_state else None)
                for _ in range(2)
            ]
            for lut in luts:
                # Keys present before the first block, so insert_on_miss=False hits too.
                lut.preload([DescriptorBlock.from_rows([(key, 0, 0, 0)]).key_data
                             for key in KEY_POOL[:preloaded]])
            for rows in batches:
                block = DescriptorBlock.from_rows(
                    (KEY_POOL[k], length, ts, flags) for k, length, ts, flags in rows
                )
                results = []
                for body, lut in zip((reference_process_block, FlowLUT.process_block), luts):
                    columns = None
                    if given_columns:
                        columns = lut.table.column_hash_indices(
                            block.key_data, len(block), block.key_width
                        )
                    results.append(_columns(body(lut, block, hash_columns=columns)))
                assert results[0] == results[1], label
                assert _observable(luts[0]) == _observable(luts[1]), label


def test_empty_block_counts_nothing(each_backend):
    for _, context in each_backend():
        with context:
            lut = FlowLUT(small_test_config(), flow_state=FlowStateTable())
            before = _observable(lut)
            outcome = lut.process_block(DescriptorBlock.from_rows([]))
            assert len(outcome) == 0
            assert _observable(lut) == before


# --------------------------------------------------------------------------- #
# Count tests: what one block constructs and calls
# --------------------------------------------------------------------------- #


@pytest.fixture
def counted_lut(monkeypatch, count_hash_calls):
    """A Flow LUT with flow state whose ``FlowKey`` constructions, table
    ``lookup`` / ``_place`` calls and ``hash_indices`` calls are counted."""
    lut = FlowLUT(small_test_config(), flow_state=FlowStateTable())
    calls = {"FlowKey": 0, "lookup": 0, "_place": 0}

    validate = FlowKey.__post_init__

    def counting_post_init(self):
        calls["FlowKey"] += 1
        validate(self)

    monkeypatch.setattr(FlowKey, "__post_init__", counting_post_init)
    for name in ("lookup", "_place"):
        def counting(*args, _inner=getattr(lut.table, name), _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        setattr(lut.table, name, counting)
    calls["hash_indices"] = count_hash_calls(lut.table)
    return lut, calls


def test_an_all_hit_block_builds_no_flow_key_and_never_searches_twice(counted_lut, each_backend):
    lut, calls = counted_lut
    block = DescriptorBlock.from_rows((key, 100, i, 0x10) for i, key in enumerate(KEY_POOL))
    for _, context in each_backend():
        with context:
            lut.process_block(block)  # first pass inserts (numpy leg) or already hits
            calls.update(FlowKey=0, lookup=0, _place=0)
            del calls["hash_indices"][:]
            outcome = lut.process_block(block)
            assert list(outcome.hits) == [1] * len(KEY_POOL)
            assert calls == {"FlowKey": 0, "lookup": 0, "_place": 0, "hash_indices": []}


def test_a_block_of_new_flows_builds_one_flow_key_and_places_once_per_flow(counted_lut):
    lut, calls = counted_lut
    rows = [(key, 100, i, 0) for i, key in enumerate(KEY_POOL)]
    block = DescriptorBlock.from_rows(rows + rows)  # every flow twice: n creations, n hits
    outcome = lut.process_block(block)
    n = len(KEY_POOL)
    assert sum(outcome.new_flows) == n and sum(outcome.hits) == n
    assert calls == {"FlowKey": n, "lookup": 0, "_place": n, "hash_indices": []}
    assert lut.flow_state.created == n and lut.flow_state.updated == n
    assert lut.table.lookups == n  # each placement still counts as the search it replaces


def test_flow_state_rejects_a_block_whose_keys_are_not_five_tuples_before_touching_anything():
    lut = FlowLUT(small_test_config(), flow_state=FlowStateTable())
    zeros = array("q", [0, 0])
    block = DescriptorBlock(bytes(8), zeros, zeros, array("H", [0, 0]), key_width=4)
    before = _observable(lut)
    with pytest.raises(ValueError, match="13-byte"):
        lut.process_block(block)
    with pytest.raises(ValueError, match="hash_columns"):
        lut.process_block(DescriptorBlock.from_rows([(KEY_POOL[0], 1, 1, 0)]), ([0, 1], [0]))
    assert _observable(lut) == before
