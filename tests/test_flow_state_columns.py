"""``FlowStateTable``'s columns against the record dict they replaced.

``ReferenceFlowStateTable`` is the table as it stood when it kept one
:class:`FlowRecord` object per flow in a ``flow_id -> record`` dict.  Seeded
random histories of ``update`` / ``update_rows`` / ``adopt`` / ``fold`` /
``detach`` / ``detach_rows`` / ``remove`` / ``expire`` / ``drain_exported``
over a small pool of flow IDs — so rows are freed and reused, and live IDs
are adopted over — must leave the columnar table and the reference with the
same live records in the same iteration order, the same export stream and
the same ``stats()`` after every step.
"""

import random
from dataclasses import replace
from typing import Dict, List, Optional

import pytest

from repro.core.flow_state import FlowRecord, FlowRow, FlowStateTable
from repro.net.fivetuple import FlowKey
from repro.net.parser import engine_key_from_flow_key, flow_key_from_engine_key


class ReferenceFlowStateTable:
    """The dict-of-records flow-state table, kept as the reference."""

    def __init__(self, timeout_us: float) -> None:
        self.timeout_us = timeout_us
        self._records: Dict[int, FlowRecord] = {}
        self.exported: List[FlowRecord] = []
        self.created = self.updated = self.expired = 0
        self.adopted = self.folded = self.drained = 0

    def __iter__(self):
        return iter(self._records.values())

    def get(self, flow_id: int) -> Optional[FlowRecord]:
        return self._records.get(flow_id)

    def update(self, flow_id, key, length_bytes, timestamp_ps, tcp_flags=0) -> None:
        record = self._records.get(flow_id)
        if record is None:
            record = FlowRecord(flow_id, key, first_seen_ps=timestamp_ps, last_seen_ps=timestamp_ps)
            self._records[flow_id] = record
            self.created += 1
        else:
            self.updated += 1
        record.packets += 1
        record.bytes += length_bytes
        if timestamp_ps > record.last_seen_ps:
            record.last_seen_ps = timestamp_ps
        record.tcp_flags |= tcp_flags

    def drain_exported(self) -> List[FlowRecord]:
        drained, self.exported = self.exported, []
        self.drained += len(drained)
        return drained

    def remove(self, flow_id: int) -> Optional[FlowRecord]:
        record = self._records.pop(flow_id, None)
        if record is not None:
            self.exported.append(record)
        return record

    def detach(self, flow_id: int) -> Optional[FlowRecord]:
        return self._records.pop(flow_id, None)

    def adopt(self, flow_id: int, record: FlowRecord) -> None:
        record.flow_id = flow_id
        self._records[flow_id] = record
        self.adopted += 1

    def fold(self, flow_id: int, record: FlowRecord) -> None:
        self._records[flow_id].absorb(record)
        self.folded += 1

    def expire(self, now_ps: int) -> List[FlowRecord]:
        timeout_ps = int(self.timeout_us * 1e6)
        stale = [
            flow_id
            for flow_id, record in self._records.items()
            if now_ps - record.last_seen_ps > timeout_ps
        ]
        removed = [self._records.pop(flow_id) for flow_id in stale]
        self.exported.extend(removed)
        self.expired += len(removed)
        return removed

    def stats(self) -> dict:
        return {
            "active_flows": len(self._records),
            "created": self.created,
            "updated": self.updated,
            "expired": self.expired,
            "adopted": self.adopted,
            "folded": self.folded,
            "exported": len(self.exported),
            "drained": self.drained,
            "timeout_us": self.timeout_us,
        }


POOL = 12
TIMEOUT_US = 1.0  # 1 000 000 ps
KEYS = [
    FlowKey(src_ip=0x0A000000 + 7919 * i, dst_ip=0xC0A80000 + i, src_port=1024 + i,
            dst_port=(53, 80, 443)[i % 3], protocol=(6, 17)[i % 2])
    for i in range(POOL)
]


def _random_record(rng: random.Random, now: int) -> FlowRecord:
    first = max(0, now - rng.randrange(2_000_000))
    return FlowRecord(
        flow_id=-1, key=rng.choice(KEYS), packets=rng.randrange(1, 50),
        bytes=rng.randrange(40, 90_000), first_seen_ps=first,
        last_seen_ps=first + rng.randrange(1_000_000), tcp_flags=rng.randrange(256),
    )


def _step(rng: random.Random, table: FlowStateTable, reference, now: int) -> int:
    """One random operation on both tables; returns the advanced clock."""
    live = [record.flow_id for record in reference]
    op = rng.choice(
        ("update", "update", "update_rows", "adopt", "adopt_row", "fold", "detach",
         "detach_rows", "remove", "expire", "drain")
    )
    if op == "update":
        flow_id = rng.randrange(POOL)
        now += rng.randrange(400_000)
        stamp = now - rng.randrange(2) * rng.randrange(300_000)  # sometimes late
        key = KEYS[flow_id]
        length, flags = rng.randrange(40, 1500), rng.choice((0, 0x02, 0x10, 0x18, 0x01))
        cell = rng.choice((key, engine_key_from_flow_key(key)))
        table.update(flow_id, cell, length, stamp, flags)
        reference.update(flow_id, key, length, stamp, flags)
    elif op == "update_rows":
        rows = []
        for _ in range(rng.randrange(1, 9)):
            flow_id = rng.randrange(-1, POOL)  # -1: a row the table did not place
            now += rng.randrange(200_000)
            rows.append((flow_id, rng.randrange(40, 1500), now, rng.choice((0, 0x02, 0x10))))
        table.update_rows(
            [flow_id for flow_id, *_ in rows],
            [engine_key_from_flow_key(KEYS[flow_id]) for flow_id, *_ in rows],
            [length for _, length, _, _ in rows],
            [stamp for _, _, stamp, _ in rows],
            [flags for *_, flags in rows],
        )
        for flow_id, length, stamp, flags in rows:
            if flow_id >= 0:
                reference.update(flow_id, KEYS[flow_id], length, stamp, flags)
    elif op == "adopt":
        flow_id = rng.randrange(POOL)  # live or not: a live ID is overwritten in place
        record = _random_record(rng, now)
        table.adopt(flow_id, replace(record))
        reference.adopt(flow_id, replace(record))
    elif op == "adopt_row":
        flow_id = rng.randrange(POOL)
        record = _random_record(rng, now)
        row = FlowRow(
            rng.randrange(1000), engine_key_from_flow_key(record.key), record.packets, record.bytes,
            record.first_seen_ps, record.last_seen_ps, record.tcp_flags,
        )
        table.adopt(flow_id, row)
        reference.adopt(flow_id, record)
    elif op == "fold" and live:
        flow_id = rng.choice(live)
        record = _random_record(rng, now)
        if rng.randrange(2):
            table.fold(flow_id, replace(record))
        else:
            table.fold(flow_id, FlowRow(
                0, engine_key_from_flow_key(record.key), record.packets, record.bytes,
                record.first_seen_ps, record.last_seen_ps, record.tcp_flags,
            ))
        reference.fold(flow_id, record)
    elif op == "detach":
        flow_id = rng.randrange(POOL)
        assert table.detach(flow_id) == reference.detach(flow_id)
    elif op == "detach_rows" and live:
        chosen = rng.sample(live, rng.randrange(1, len(live) + 1))
        rows = table.detach_rows(chosen)
        assert [row.flow_id for row in rows] == chosen
        for row in rows:
            expected = reference.detach(row.flow_id)
            assert (row.packets, row.octets, row.first_seen, row.last_seen, row.tcp_flags) == (
                expected.packets, expected.bytes, expected.first_seen_ps,
                expected.last_seen_ps, expected.tcp_flags,
            )
            assert row.key == engine_key_from_flow_key(expected.key)
    elif op == "remove":
        flow_id = rng.randrange(POOL)
        assert table.remove(flow_id) == reference.remove(flow_id)
    elif op == "expire":
        now += rng.randrange(1_500_000)
        assert table.expire(now) == reference.expire(now)
    elif op == "drain" and rng.randrange(3) == 0:
        assert table.drain_exported() == reference.drain_exported()
    return now


def _assert_same(table: FlowStateTable, reference) -> None:
    assert list(table) == list(reference)  # values and iteration order
    assert table.exported == reference.exported  # export order
    assert table.stats() == reference.stats()
    for flow_id in range(-1, POOL):
        assert table.get(flow_id) == reference.get(flow_id)
        assert (flow_id in table) == (reference.get(flow_id) is not None)
    assert len(table) == len(table.rows)
    # The key column holds engine keys only, whatever form a key came in as.
    for flow_id, row in table.rows.items():
        key = table.keys[row]
        assert type(key) is bytes and flow_key_from_engine_key(key) == reference.get(flow_id).key
    # Freed rows are reused: the columns never outgrow the most flows live at once.
    assert len(table.packets) <= POOL


@pytest.mark.parametrize("seed", range(20))
def test_random_histories_match_the_record_dict(seed):
    rng = random.Random(seed)
    table = FlowStateTable(timeout_us=TIMEOUT_US)
    reference = ReferenceFlowStateTable(timeout_us=TIMEOUT_US)
    now = 0
    for _ in range(250):
        now = _step(rng, table, reference, now)
        _assert_same(table, reference)


def test_a_handed_out_record_is_a_snapshot():
    table = FlowStateTable(timeout_us=TIMEOUT_US)
    table.update(3, KEYS[3], 100, 5)
    record = table.get(3)
    record.packets = 99
    assert table.get(3).packets == 1
    table.update(3, KEYS[3], 100, 6)
    assert record.last_seen_ps == 5 and table.get(3).last_seen_ps == 6


def test_top_flows_ranks_the_columns_in_record_order_on_ties():
    table = FlowStateTable(timeout_us=TIMEOUT_US)
    for flow_id, size in ((4, 300), (1, 900), (7, 300), (2, 50)):
        table.update(flow_id, KEYS[flow_id], size, 0)
    assert [record.flow_id for record in table.top_flows(3, by="bytes")] == [1, 4, 7]
    assert [record.flow_id for record in table.top_flows(2, by="packets")] == [4, 1]


def test_an_engine_key_of_another_width_is_refused_on_create():
    table = FlowStateTable(timeout_us=TIMEOUT_US)
    with pytest.raises(ValueError, match="13"):
        table.update(1, b"\x00" * 4, 100, 0)
    assert len(table) == 0 and table.created == 0
