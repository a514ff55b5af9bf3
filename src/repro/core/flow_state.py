"""Per-flow state storage and housekeeping.

The paper's target application is NetFlow-style monitoring: besides looking a
packet's flow up, the processor stores and retrieves per-flow state (packet
and byte counters, timestamps, TCP flags).  A housekeeping function
periodically checks and removes timed-out flow entries so new flows can be
stored; those removals become the deletion requests fed to the Update block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.net.fivetuple import FLOW_KEY_BYTES, FlowKey
from repro.net.parser import engine_key_from_flow_key, flow_key_from_engine_key


@dataclass
class FlowRecord:
    """Accumulated state of one flow.

    A :class:`FlowStateTable` keeps flow state in columns and builds a record
    on demand, so a record it hands out is a snapshot: changing it does not
    change the table.
    """

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


class FlowRow(NamedTuple):
    """One flow's state as the columns hold it, taken out of a table by
    :meth:`FlowStateTable.detach_rows` — what migration carries to the new
    owner's :meth:`FlowStateTable.adopt` without building a
    :class:`FlowRecord`.  ``flow_id`` is the ID it had where it was taken
    from; ``key`` is its 13-byte engine key."""

    flow_id: int
    key: bytes
    packets: int
    octets: int
    first_seen: int
    last_seen: int
    tcp_flags: int


_new_row = partial(tuple.__new__, FlowRow)
"""A :class:`FlowRow` from a tuple of its fields (the C constructor)."""


class FlowStateTable:
    """Per-flow statistics keyed by flow ID, with timeout housekeeping.

    The state is stored as columns.  :attr:`rows` maps every live flow ID to
    its row, in record order (the order records were created or adopted in,
    which iteration, :meth:`expire` and the snapshots follow).  Six plain
    lists hold each row's values: :attr:`keys`, :attr:`packets`,
    :attr:`octets`, :attr:`first_seen`, :attr:`last_seen` (both in ps) and
    :attr:`tcp_flags`.  A key cell is the flow's 13-byte engine key
    (:func:`~repro.net.parser.engine_key_from_flow_key` layout): the block
    body stores the key it probed with as is, so no :class:`FlowKey` is
    built per flow, and a :class:`FlowKey` brought in by a record or a
    timed-path packet is packed into that form.  Readers index the columns
    through :attr:`rows`; only this class writes them.  A row freed by
    :meth:`detach`, :meth:`remove` or :meth:`expire` is reused by the next
    flow created.

    A :class:`FlowRecord` is built on demand by :meth:`records` — for
    :meth:`get`, iteration, :meth:`detach`, :meth:`remove`, :meth:`expire`
    and :meth:`top_flows` — and is a snapshot of the row.  :meth:`update` and :meth:`update_rows` write
    packets into the columns; :meth:`adopt` and :meth:`fold` take a record
    or a :class:`FlowRow` in.

    Parameters
    ----------
    timeout_us: a flow is considered idle (and eligible for removal) when no
        packet has been seen for this long.
    """

    def __init__(self, timeout_us: float = 15_000_000.0) -> None:
        if timeout_us <= 0:
            raise ValueError("timeout_us must be positive")
        self.timeout_us = timeout_us
        self.rows: Dict[int, int] = {}
        self.keys: List[bytes] = []
        self.packets: List[int] = []
        self.octets: List[int] = []
        self.first_seen: List[int] = []
        self.last_seen: List[int] = []
        self.tcp_flags: List[int] = []
        self._free_rows: List[int] = []
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
            if record.flow_id in table.rows:
                raise ValueError(f"duplicate flow_id {record.flow_id} in snapshot")
            table._store_record(record.flow_id, record)
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

    # ------------------------------------------------------------------ #
    # Rows
    # ------------------------------------------------------------------ #

    def _store(
        self, flow_id: int, key: bytes, packets: int, octets: int,
        first_seen: int, last_seen: int, tcp_flags: int,
    ) -> None:
        """Write one flow's values: over its row when ``flow_id`` is live
        (the row keeps its place in record order), else into a freed row or
        a new one at the end of the columns."""
        row = self.rows.get(flow_id)
        if row is None:
            if not self._free_rows:
                self.rows[flow_id] = len(self.packets)
                self.keys.append(key)
                self.packets.append(packets)
                self.octets.append(octets)
                self.first_seen.append(first_seen)
                self.last_seen.append(last_seen)
                self.tcp_flags.append(tcp_flags)
                return
            row = self.rows[flow_id] = self._free_rows.pop()
        self.keys[row] = key
        self.packets[row] = packets
        self.octets[row] = octets
        self.first_seen[row] = first_seen
        self.last_seen[row] = last_seen
        self.tcp_flags[row] = tcp_flags

    def _store_record(self, flow_id: int, record: FlowRecord) -> None:
        self._store(
            flow_id, engine_key_from_flow_key(record.key), record.packets, record.bytes,
            record.first_seen_ps, record.last_seen_ps, record.tcp_flags,
        )

    def _release(self, flow_ids: Sequence[int]) -> List[FlowRecord]:
        """Take live flows out of the columns, in order; returns their
        records."""
        released = self.records(flow_ids)
        pop = self.rows.pop
        self._free_rows.extend([pop(flow_id) for flow_id in flow_ids])
        return released

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, flow_id: int) -> bool:
        return flow_id in self.rows

    def __iter__(self) -> Iterator[FlowRecord]:
        return iter(self.records(self.rows))

    @property
    def timeout_ps(self) -> int:
        return int(self.timeout_us * 1e6)

    def get(self, flow_id: int) -> Optional[FlowRecord]:
        return self.records((flow_id,))[0]

    def records(self, flow_ids: Iterable[int]) -> List[Optional[FlowRecord]]:
        """:meth:`get` for a column of flow IDs: each live ID's record, built
        from its row (a snapshot), or ``None`` for an ID that is not live.
        The one place a record is built."""
        row_of = self.rows.get
        key_of = flow_key_from_engine_key
        keys, packets, octets = self.keys, self.packets, self.octets
        first_seen, last_seen, tcp_flags = self.first_seen, self.last_seen, self.tcp_flags
        built: List[Optional[FlowRecord]] = []
        for flow_id in flow_ids:
            row = row_of(flow_id)
            built.append(None if row is None else FlowRecord(
                flow_id, key_of(keys[row]), packets[row], octets[row],
                first_seen[row], last_seen[row], tcp_flags[row],
            ))
        return built

    def sizes(self) -> List[Tuple[int, int]]:
        """``(packets, bytes)`` of every live flow, in record order — the
        flow sizes read off two columns, no record built."""
        packets, octets = self.packets, self.octets
        return [(packets[row], octets[row]) for row in self.rows.values()]

    # ------------------------------------------------------------------ #
    # Packets
    # ------------------------------------------------------------------ #

    def update(
        self,
        flow_id: int,
        key: Union[FlowKey, bytes],
        length_bytes: int,
        timestamp_ps: int,
        tcp_flags: int = 0,
    ) -> None:
        """Account one packet to ``flow_id``, creating its row if needed.

        ``key`` — a :class:`FlowKey` or the flow's 13-byte engine key — is
        read only when the row is created, and stored as an engine key.
        The per-packet entrance of the timed path; a block of rows goes
        through :meth:`update_rows`.
        """
        row = self.rows.get(flow_id)
        if row is None:
            if isinstance(key, FlowKey):
                key = engine_key_from_flow_key(key)
            else:
                key = bytes(key)
                if len(key) != FLOW_KEY_BYTES:
                    raise ValueError(f"engine key is {len(key)} bytes, expected {FLOW_KEY_BYTES}")
            self._store(flow_id, key, 1, length_bytes, timestamp_ps, timestamp_ps, tcp_flags)
            self.created += 1
            return
        self.updated += 1
        self.packets[row] += 1
        self.octets[row] += length_bytes
        if timestamp_ps > self.last_seen[row]:
            self.last_seen[row] = timestamp_ps
        self.tcp_flags[row] |= tcp_flags

    def update_rows(
        self,
        flow_ids: Sequence[int],
        keys: Sequence[bytes],
        lengths: Sequence[int],
        timestamps: Sequence[int],
        flags: Sequence[int],
    ) -> None:
        """:meth:`update` for a block of rows, in row order, folded into the
        columns inline; a row whose flow ID is negative (not placed) is
        skipped.  ``keys`` are the rows' 13-byte engine keys, which the
        caller has checked."""
        rows = self.rows
        get = rows.get
        free_rows = self._free_rows
        packets, octets, last_seen, tcp_flags = (
            self.packets, self.octets, self.last_seen, self.tcp_flags
        )
        appends = [
            column.append
            for column in (self.keys, packets, octets, self.first_seen, last_seen, tcp_flags)
        ]
        add_key, add_packets, add_octets, add_first, add_last, add_flags = appends
        created = updated = 0
        rows_in = zip(flow_ids, keys, lengths, timestamps, flags)
        for flow_id, key, length, timestamp, flag in rows_in:
            row = get(flow_id)
            if row is not None:
                packets[row] += 1
                octets[row] += length
                if timestamp > last_seen[row]:
                    last_seen[row] = timestamp
                tcp_flags[row] |= flag
                updated += 1
            elif flow_id >= 0:
                created += 1
                if free_rows:
                    self._store(flow_id, key, 1, length, timestamp, timestamp, flag)
                    continue
                # _store's new-row case, inline: this is the insert pass.
                rows[flow_id] = len(packets)
                add_key(key)
                add_packets(1)
                add_octets(length)
                add_first(timestamp)
                add_last(timestamp)
                add_flags(flag)
        self.created += created
        self.updated += updated

    # ------------------------------------------------------------------ #
    # Export, migration and housekeeping
    # ------------------------------------------------------------------ #

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
        if flow_id not in self.rows:
            return None
        record = self._release((flow_id,))[0]
        self.exported.append(record)
        return record

    def detach(self, flow_id: int) -> Optional[FlowRecord]:
        """Remove and return a record *without* exporting it.

        Used when a live flow migrates to another node: the flow is not
        terminating, so it must not appear in this table's NetFlow export
        stream — it continues accumulating on its new owner.
        """
        return self._release((flow_id,))[0] if flow_id in self.rows else None

    def detach_rows(self, flow_ids: Sequence[int]) -> List[FlowRow]:
        """:meth:`detach` for a column of live flow IDs, returning each flow's
        :class:`FlowRow` instead of a record (a flow not live raises
        ``KeyError``)."""
        pop = self.rows.pop
        rows = [pop(flow_id) for flow_id in flow_ids]
        self._free_rows.extend(rows)
        columns = [
            [column[row] for row in rows]
            for column in (
                self.keys, self.packets, self.octets,
                self.first_seen, self.last_seen, self.tcp_flags,
            )
        ]
        return list(map(_new_row, zip(flow_ids, *columns)))

    def adopt(self, flow_id: int, record: Union[FlowRecord, FlowRow]) -> None:
        """Install a migrated flow under this table's (new) flow ID.

        Flow IDs are location-derived, so a flow re-homed onto another node
        gets whatever ID its new table location yields; the accumulated
        counters and timestamps travel with it unchanged.  A
        :class:`FlowRecord` is re-labelled with the new ID; the table keeps
        its values, not the object.
        """
        if type(record) is FlowRow:
            _, key, packets, octets, first_seen, last_seen, tcp_flags = record
            self._store(flow_id, key, packets, octets, first_seen, last_seen, tcp_flags)
        else:
            record.flow_id = flow_id
            self._store_record(flow_id, record)
        self.adopted += 1

    def fold(self, flow_id: int, record: Union[FlowRecord, FlowRow]) -> None:
        """Merge an arriving copy of a flow into the state already stored.

        The cluster layer hits this when a migrated, replica-promoted or
        checkpoint-restored flow lands on a node that has since re-learned
        it: the copy's counters are absorbed into the resident row as
        :meth:`FlowRecord.absorb` would, and the copy ceases to exist as an
        instance (tracked by ``folded``, which the cluster's conservation
        books balance against).
        """
        if type(record) is FlowRow:
            _, _, packets, octets, first_seen, last_seen, tcp_flags = record
        else:
            packets, octets = record.packets, record.bytes
            first_seen, last_seen = record.first_seen_ps, record.last_seen_ps
            tcp_flags = record.tcp_flags
        row = self.rows[flow_id]
        self.packets[row] += packets
        self.octets[row] += octets
        self.first_seen[row] = min(self.first_seen[row], first_seen)
        self.last_seen[row] = max(self.last_seen[row], last_seen)
        self.tcp_flags[row] |= tcp_flags
        self.folded += 1

    def expire(self, now_ps: int) -> List[FlowRecord]:
        """Housekeeping pass: remove every flow idle for longer than the timeout.

        Returns the expired records, in record order; the caller turns them
        into deletion requests towards the Update block.
        """
        timeout_ps = self.timeout_ps
        last_seen = self.last_seen
        stale = [
            flow_id for flow_id, row in self.rows.items() if now_ps - last_seen[row] > timeout_ps
        ]
        removed = self._release(stale)
        self.exported.extend(removed)
        self.expired += len(removed)
        return removed

    def top_flows(self, count: int = 10, by: str = "bytes") -> List[FlowRecord]:
        """The ``count`` largest active flows by ``"bytes"`` or ``"packets"``."""
        if by not in ("bytes", "packets"):
            raise ValueError("by must be 'bytes' or 'packets'")
        column = self.octets if by == "bytes" else self.packets
        ranked = sorted(self.rows.items(), key=lambda item: column[item[1]], reverse=True)
        return self.records([flow_id for flow_id, _ in ranked[:count]])

    def stats(self) -> dict:
        return {
            "active_flows": len(self.rows),
            "created": self.created,
            "updated": self.updated,
            "expired": self.expired,
            "adopted": self.adopted,
            "folded": self.folded,
            "exported": len(self.exported),
            "drained": self.drained,
            "timeout_us": self.timeout_us,
        }
