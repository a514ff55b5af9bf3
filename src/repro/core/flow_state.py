"""Per-flow state storage and housekeeping.

The paper's target application is NetFlow-style monitoring: besides looking a
packet's flow up, the processor stores and retrieves per-flow state (packet
and byte counters, timestamps, TCP flags).  A housekeeping function
periodically checks and removes timed-out flow entries so new flows can be
stored; those removals become the deletion requests fed to the Update block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Union

from repro.net.fivetuple import FlowKey
from repro.net.parser import flow_key_from_engine_key


@dataclass
class FlowRecord:
    """Accumulated state of one flow."""

    flow_id: int
    key: FlowKey
    packets: int = 0
    bytes: int = 0
    first_seen_ps: int = 0
    last_seen_ps: int = 0
    tcp_flags: int = 0

    @property
    def duration_ps(self) -> int:
        return self.last_seen_ps - self.first_seen_ps

    def absorb(self, other: "FlowRecord") -> "FlowRecord":
        """Fold another instance of the same flow into this record.

        Used when two partial views of one flow meet — a migrated or
        checkpoint-restored copy landing where the flow was already
        re-learned, or replica segments that each saw a disjoint span of
        the packet stream.  Counters add, the observation window widens,
        and the TCP flag union is kept; this record's identity (flow ID
        and key) wins.
        """
        self.packets += other.packets
        self.bytes += other.bytes
        self.first_seen_ps = min(self.first_seen_ps, other.first_seen_ps)
        self.last_seen_ps = max(self.last_seen_ps, other.last_seen_ps)
        self.tcp_flags |= other.tcp_flags
        return self

    @property
    def mean_packet_bytes(self) -> float:
        return self.bytes / self.packets if self.packets else 0.0

    def as_export(self) -> dict:
        """NetFlow-style export record."""
        return {
            "flow_id": self.flow_id,
            "src": self.key.src_ip_str,
            "dst": self.key.dst_ip_str,
            "src_port": self.key.src_port,
            "dst_port": self.key.dst_port,
            "protocol": self.key.protocol,
            "packets": self.packets,
            "bytes": self.bytes,
            "first_seen_us": self.first_seen_ps / 1e6,
            "last_seen_us": self.last_seen_ps / 1e6,
            "tcp_flags": self.tcp_flags,
        }


class FlowStateTable:
    """Per-flow statistics keyed by flow ID, with timeout housekeeping.

    Parameters
    ----------
    timeout_us: a flow is considered idle (and eligible for removal) when no
        packet has been seen for this long.
    """

    def __init__(self, timeout_us: float = 15_000_000.0) -> None:
        if timeout_us <= 0:
            raise ValueError("timeout_us must be positive")
        self.timeout_us = timeout_us
        self._records: Dict[int, FlowRecord] = {}
        self.exported: List[FlowRecord] = []
        self.created = 0
        self.updated = 0
        self.expired = 0
        self.adopted = 0
        self.folded = 0
        self.drained = 0

    @classmethod
    def from_state(
        cls,
        *,
        timeout_us: float,
        records: List[FlowRecord],
        exported: List[FlowRecord],
        created: int = 0,
        updated: int = 0,
        expired: int = 0,
        adopted: int = 0,
        folded: int = 0,
        drained: int = 0,
    ) -> "FlowStateTable":
        """Rebuild a table from snapshotted records and books.

        Live records must carry unique flow IDs; the counters are restored
        verbatim so a snapshot→restore round trip preserves the table's
        accounting exactly.
        """
        table = cls(timeout_us=timeout_us)
        for record in records:
            if record.flow_id in table._records:
                raise ValueError(f"duplicate flow_id {record.flow_id} in snapshot")
            table._records[record.flow_id] = record
        table.exported = list(exported)
        if min(created, updated, expired, adopted, folded, drained) < 0:
            raise ValueError("flow-state counters must be non-negative")
        table.created = created
        table.updated = updated
        table.expired = expired
        table.adopted = adopted
        table.folded = folded
        table.drained = drained
        return table

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, flow_id: int) -> bool:
        return flow_id in self._records

    def __iter__(self) -> Iterator[FlowRecord]:
        return iter(self._records.values())

    @property
    def timeout_ps(self) -> int:
        return int(self.timeout_us * 1e6)

    def get(self, flow_id: int) -> Optional[FlowRecord]:
        return self._records.get(flow_id)

    def update(
        self,
        flow_id: int,
        key: Union[FlowKey, bytes],
        length_bytes: int,
        timestamp_ps: int,
        tcp_flags: int = 0,
    ) -> FlowRecord:
        """Account one packet to ``flow_id``, creating the record if needed.

        ``key`` is read only when the record is created, so the block body
        passes the 13-byte engine key the table stores and the (validated)
        :class:`FlowKey` is built here, once per flow rather than per packet.
        """
        record = self._records.get(flow_id)
        if record is None:
            if not isinstance(key, FlowKey):
                key = flow_key_from_engine_key(key)
            record = FlowRecord(
                flow_id=flow_id,
                key=key,
                first_seen_ps=timestamp_ps,
                last_seen_ps=timestamp_ps,
            )
            self._records[flow_id] = record
            self.created += 1
        else:
            self.updated += 1
        record.packets += 1
        record.bytes += length_bytes
        if timestamp_ps > record.last_seen_ps:
            record.last_seen_ps = timestamp_ps
        record.tcp_flags |= tcp_flags
        return record

    def drain_exported(self) -> List[FlowRecord]:
        """Hand the accumulated export stream to a consumer and clear it.

        This is the NetFlow hook: terminated and expired records pile up
        in :attr:`exported` until an exporter (e.g.
        :class:`~repro.trace.netflow.NetFlowV5Exporter`) drains them into
        datagrams.  The drained count is retained in :attr:`drained` so
        the conservation books (``created == live + exported + ...``)
        keep balancing after the hand-off — see :attr:`exported_total`.
        """
        drained, self.exported = self.exported, []
        self.drained += len(drained)
        return drained

    @property
    def exported_total(self) -> int:
        """Every record ever exported: still queued plus already drained."""
        return len(self.exported) + self.drained

    def remove(self, flow_id: int) -> Optional[FlowRecord]:
        """Remove and return a record (e.g. on FIN/RST termination)."""
        record = self._records.pop(flow_id, None)
        if record is not None:
            self.exported.append(record)
        return record

    def detach(self, flow_id: int) -> Optional[FlowRecord]:
        """Remove and return a record *without* exporting it.

        Used when a live flow migrates to another node: the flow is not
        terminating, so it must not appear in this table's NetFlow export
        stream — it continues accumulating on its new owner.
        """
        return self._records.pop(flow_id, None)

    def adopt(self, flow_id: int, record: FlowRecord) -> FlowRecord:
        """Install a migrated record under this table's (new) flow ID.

        Flow IDs are location-derived, so a record re-homed onto another
        node gets whatever ID its new table location yields; the accumulated
        counters and timestamps travel with it unchanged.
        """
        record.flow_id = flow_id
        self._records[flow_id] = record
        self.adopted += 1
        return record

    def fold(self, flow_id: int, record: FlowRecord) -> FlowRecord:
        """Merge an arriving copy of a flow into the record already stored.

        The cluster layer hits this when a migrated, replica-promoted or
        checkpoint-restored record lands on a node that has since
        re-learned the same flow: the copy's counters are absorbed into
        the resident record and the copy ceases to exist as an instance
        (tracked by ``folded``, which the cluster's conservation books
        balance against).
        """
        existing = self._records[flow_id]
        existing.absorb(record)
        self.folded += 1
        return existing

    def expire(self, now_ps: int) -> List[FlowRecord]:
        """Housekeeping pass: remove every flow idle for longer than the timeout.

        Returns the expired records; the caller turns them into deletion
        requests towards the Update block.
        """
        timeout_ps = self.timeout_ps
        stale = [
            flow_id
            for flow_id, record in self._records.items()
            if now_ps - record.last_seen_ps > timeout_ps
        ]
        removed = []
        for flow_id in stale:
            record = self._records.pop(flow_id)
            self.exported.append(record)
            removed.append(record)
        self.expired += len(removed)
        return removed

    def top_flows(self, count: int = 10, by: str = "bytes") -> List[FlowRecord]:
        """The ``count`` largest active flows by ``"bytes"`` or ``"packets"``."""
        if by not in ("bytes", "packets"):
            raise ValueError("by must be 'bytes' or 'packets'")
        return sorted(self._records.values(), key=lambda r: getattr(r, by), reverse=True)[:count]

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
