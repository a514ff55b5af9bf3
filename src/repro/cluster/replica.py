"""Passive flow-state replicas for k>=2 ring replication.

With replication enabled, every packet a primary node processes is also
accounted — functionally, off the timed path — on the backup node(s) of
its key's ring replica set.  The backup does not run the packet through
its own Flow LUT (that would double every hit/miss in the global books);
it keeps a :class:`ReplicaStore`: plain flow-record copies keyed by the
*engine* key bytes, mirroring exactly what the primary's flow-state table
accumulates.  On the primary's failure the coordinator promotes the
matching entries onto the keys' new owners, which is what makes failover
lossless for replicated flows.

Replica entries are copies, so several stores may hold *segments* of the
same flow after membership changes re-point the backup mid-life; each
packet updates exactly one store, so the segments partition the packet
stream and :meth:`~repro.core.flow_state.FlowRecord.absorb` reassembles
the full record at promotion time.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.columns.block import as_list
from repro.core.flow_state import FlowRecord
from repro.net.parser import flow_key_from_engine_key
from repro.telemetry.pipeline import EXACT_BYTES_PER_FLOW

REPLICA_BYTES_PER_FLOW = EXACT_BYTES_PER_FLOW
"""Provisioned bytes per replica entry (engine key + counters +
timestamps) — the exact-path per-flow budget, shared so the replication
memory overhead stays comparable against the primary tables."""


class ReplicaStore:
    """Backup copies of live flow records, keyed by engine key bytes.

    Replica records carry ``flow_id`` 0 — flow IDs are location-derived,
    so a promoted record receives whatever ID its new table placement
    yields (exactly like migration).
    """

    def __init__(self) -> None:
        self._records: Dict[bytes, FlowRecord] = {}
        self.updates = 0
        self.promoted = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key_bytes: bytes) -> bool:
        return key_bytes in self._records

    def observe_block(self, outcomes) -> int:
        """Mirror a primary's outcome rows (an ``OutcomeBlock``) into the
        backup copies, in row order.

        Only rows that produced a flow ID are mirrored — a row the primary
        could not place (table overflow) created no record there, and
        replicating it would let a failover "restore" a flow that never
        existed.  Returns the number of rows mirrored.
        """
        block = outcomes.block
        records = self._records
        mirrored = 0
        for key_bytes, flow_id, timestamp, length, flags in zip(
            block.keys(),
            as_list(outcomes.flow_ids),
            as_list(block.timestamps),
            as_list(block.lengths),
            as_list(block.flags),
        ):
            if flow_id < 0:
                continue
            record = records.get(key_bytes)
            if record is None:
                record = records[key_bytes] = FlowRecord(
                    flow_id=0,
                    key=flow_key_from_engine_key(key_bytes),
                    first_seen_ps=timestamp,
                    last_seen_ps=timestamp,
                )
            record.packets += 1
            record.bytes += length
            if timestamp > record.last_seen_ps:
                record.last_seen_ps = timestamp
            record.tcp_flags |= flags
            mirrored += 1
        self.updates += mirrored
        return mirrored

    def seed(self, key_bytes: bytes, record: FlowRecord) -> None:
        """Keep ``record``, the primary's full record of the flow, as this
        store's copy (plane resync); its ``flow_id`` becomes 0.

        The store takes the object over: a record a flow-state table hands
        out is a snapshot, not live primary state, so no copy is made here
        and later replica updates change only this store's copy — a
        caller seeding one record into several stores passes each its own
        copy.  A full record supersedes anything held for the key, so
        seeding overwrites — segments only ever meet at *promotion* time
        (``fail_node``), never here.
        """
        record.flow_id = 0
        self._records[key_bytes] = record

    def clear(self) -> int:
        """Forget every entry (the coordinator is resyncing the plane);
        the lifetime counters are kept.  Returns the entries dropped."""
        count = len(self._records)
        self._records.clear()
        return count

    def drop(self, key_bytes: bytes) -> bool:
        """Forget a flow (its primary expired or terminated it)."""
        if self._records.pop(key_bytes, None) is not None:
            self.dropped += 1
            return True
        return False

    def pop_matching(
        self, predicate: Callable[[bytes], bool]
    ) -> List[Tuple[bytes, FlowRecord]]:
        """Remove and return every ``(key_bytes, record)`` the predicate
        selects — the promotion path when those keys' primary failed."""
        taken = [(key, record) for key, record in self._records.items() if predicate(key)]
        for key, _ in taken:
            del self._records[key]
        self.promoted += len(taken)
        return taken

    @property
    def memory_bytes(self) -> int:
        """Provisioned replica storage (entries times the per-flow budget)."""
        return len(self._records) * REPLICA_BYTES_PER_FLOW

    def stats(self) -> dict:
        return {
            "entries": len(self._records),
            "updates": self.updates,
            "promoted": self.promoted,
            "dropped": self.dropped,
            "memory_bytes": self.memory_bytes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ReplicaStore(entries={len(self._records)}, updates={self.updates})"
