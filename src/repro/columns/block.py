"""Columnar batch structures: :class:`DescriptorBlock` and :class:`OutcomeBlock`.

A :class:`DescriptorBlock` holds a batch of packet descriptors column-wise:
one contiguous ``bytes`` buffer of packed engine keys plus parallel columns for
lengths, timestamps and TCP flags::

    key_data   : | dst_ip | src_ip | dst_port | src_port | proto | ...  (13 B x N)
    lengths    : int64  x N
    timestamps : int64  x N   (picoseconds)
    flags      : uint16 x N

Keys use the engine layout — the 5-tuple field order of
:data:`repro.net.parser.FIVE_TUPLE` — which is exactly what
``PacketDescriptor.key_bytes`` holds, so block rows hash and probe
byte-identically to the object path.  The :meth:`DescriptorBlock.packed_keys`
view reorders bytes into the :meth:`repro.net.fivetuple.FlowKey.pack` layout
that telemetry counters key on (:meth:`DescriptorBlock.packed_key_data` is
the same column left contiguous, for column-wise hashing).

Columns are numpy arrays when numpy is available and stdlib ``array.array``
otherwise (see :mod:`repro.columns.backend`); both expose ``tolist`` and
integer indexing, and block equality compares logical content so the two
backends interconvert freely.

An :class:`OutcomeBlock` carries the Flow LUT's bulk-probe results for one
block in the same columnar shape (flow ids, hit/new-flow flags, lookup
stage codes, submit/complete times); :meth:`OutcomeBlock.to_outcomes` turns
it into the :class:`~repro.core.flow_lut.LookupOutcome` list the replication
transport and the list-returning entry points carry.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.columns import backend
from repro.core.hash_cam import LookupStage
from repro.net.fivetuple import FLOW_KEY_BYTES, FlowKey
from repro.net.parser import FIVE_TUPLE_STRUCT, PacketDescriptor, flow_key_from_engine_key

ENGINE_KEY_WIDTH = FLOW_KEY_BYTES
"""Bytes per key in the engine layout (13 for the IPv4 5-tuple)."""

_PACK_ORDER = (4, 5, 6, 7, 0, 1, 2, 3, 10, 11, 8, 9, 12)
"""Byte permutation from the engine layout to ``FlowKey.pack()`` order."""

STAGES: Tuple[LookupStage, ...] = (
    LookupStage.CAM,
    LookupStage.MEM1,
    LookupStage.MEM2,
    LookupStage.MISS,
)
"""Stage-code table: ``STAGES[code]`` is the stage an outcome column stores."""

STAGE_CODES = {stage: code for code, stage in enumerate(STAGES)}


def _engine_key(key: FlowKey) -> bytes:
    return FIVE_TUPLE_STRUCT.pack(key.dst_ip, key.src_ip, key.dst_port, key.src_port, key.protocol)


def _column(values: Sequence[int], typecode: str, dtype: str):
    np = backend.np
    if np is not None:
        return np.array(values, dtype=dtype)
    return array(typecode, values)


def as_list(column) -> List[int]:
    """A column of either backend (or a plain sequence) as Python ints."""
    if hasattr(column, "tolist"):
        return column.tolist()
    return list(column)


class DescriptorBlock:
    """``count`` packet descriptors stored column-wise (see module docstring)."""

    __slots__ = ("key_data", "key_width", "lengths", "timestamps", "flags", "_flow_key_cache")

    def __init__(self, key_data: bytes, lengths, timestamps, flags, key_width: int = ENGINE_KEY_WIDTH) -> None:
        if key_width <= 0:
            raise ValueError("key_width must be positive")
        if len(key_data) % key_width:
            raise ValueError(f"key column of {len(key_data)} bytes is not a multiple of width {key_width}")
        count = len(key_data) // key_width
        for name, column in (("lengths", lengths), ("timestamps", timestamps), ("flags", flags)):
            if len(column) != count:
                raise ValueError(f"{name} column has {len(column)} rows, key column has {count}")
        self.key_data = bytes(key_data)
        self.key_width = key_width
        self.lengths = lengths
        self.timestamps = timestamps
        self.flags = flags
        self._flow_key_cache: Optional[List[FlowKey]] = None

    # ------------------------------------------------------------------ build
    @classmethod
    def from_rows(cls, rows: Iterable[Tuple[FlowKey, int, int, int]]) -> "DescriptorBlock":
        """Build from ``(flow_key, length_bytes, timestamp_ps, tcp_flags)`` rows."""
        chunks: List[bytes] = []
        lengths: List[int] = []
        timestamps: List[int] = []
        flags: List[int] = []
        for key, length, timestamp, tcp_flags in rows:
            chunks.append(_engine_key(key))
            lengths.append(length)
            timestamps.append(timestamp)
            flags.append(tcp_flags)
        return cls(
            b"".join(chunks),
            _column(lengths, "q", "int64"),
            _column(timestamps, "q", "int64"),
            _column(flags, "H", "uint16"),
        )

    @classmethod
    def from_descriptors(cls, descriptors: Sequence[PacketDescriptor]) -> "DescriptorBlock":
        """Build from object-path descriptors (must use the 5-tuple key layout)."""
        chunks: List[bytes] = []
        lengths: List[int] = []
        timestamps: List[int] = []
        flags: List[int] = []
        for descriptor in descriptors:
            packed = _engine_key(descriptor.key)
            if packed != descriptor.key_bytes:
                raise ValueError(
                    "DescriptorBlock requires the standard 5-tuple key layout "
                    f"(got key_bytes {descriptor.key_bytes!r} for {descriptor.key})"
                )
            chunks.append(packed)
            lengths.append(descriptor.length_bytes)
            timestamps.append(descriptor.timestamp_ps)
            flags.append(descriptor.tcp_flags)
        return cls(
            b"".join(chunks),
            _column(lengths, "q", "int64"),
            _column(timestamps, "q", "int64"),
            _column(flags, "H", "uint16"),
        )

    @classmethod
    def from_packets(cls, packets: Sequence, bidirectional: bool = False) -> "DescriptorBlock":
        """Build straight from parsed packets, skipping descriptor objects."""
        return cls.from_rows(
            (
                packet.key.bidirectional() if bidirectional else packet.key,
                packet.length_bytes,
                packet.timestamp_ps,
                packet.tcp_flags,
            )
            for packet in packets
        )

    # ------------------------------------------------------------------ views
    def __len__(self) -> int:
        return len(self.key_data) // self.key_width

    def keys(self) -> List[bytes]:
        """Per-row engine key bytes (the probe/hash input)."""
        width = self.key_width
        data = self.key_data
        return [data[i * width : (i + 1) * width] for i in range(len(self))]

    def flow_keys(self) -> List[FlowKey]:
        """Per-row :class:`FlowKey` objects (cached; built on first use)."""
        if self._flow_key_cache is None:
            self._flow_key_cache = [flow_key_from_engine_key(key) for key in self.keys()]
        return self._flow_key_cache

    def packed_key_data(self) -> bytes:
        """The key column in ``FlowKey.pack()`` byte order, keys back to back
        (telemetry's keying: what its sketches hash column-wise)."""
        width = self.key_width
        if width != ENGINE_KEY_WIDTH:
            return b"".join(key.pack() for key in self.flow_keys())
        np = backend.np
        if np is not None and len(self):
            arr = np.frombuffer(self.key_data, dtype=np.uint8).reshape(len(self), width)
            return arr[:, list(_PACK_ORDER)].tobytes()
        data = self.key_data
        return bytes(
            data[base + p] for base in range(0, len(data), width) for p in _PACK_ORDER
        )

    def packed_keys(self) -> List[bytes]:
        """Per-row keys in ``FlowKey.pack()`` byte order."""
        packed = self.packed_key_data()
        width = ENGINE_KEY_WIDTH
        return [packed[offset : offset + width] for offset in range(0, len(packed), width)]

    def _field_column(self, offset: int, size: int) -> List[int]:
        np = backend.np
        count = len(self)
        width = self.key_width
        if np is not None and count:
            arr = np.frombuffer(self.key_data, dtype=np.uint8).reshape(count, width)
            view = np.ascontiguousarray(arr[:, offset : offset + size])
            if size == 1:
                return view[:, 0].tolist()
            return view.view(np.dtype(f">u{size}"))[:, 0].tolist()
        data = self.key_data
        return [
            int.from_bytes(data[i * width + offset : i * width + offset + size], "big")
            for i in range(count)
        ]

    def dst_ips(self) -> List[int]:
        return self._field_column(0, 4)

    def src_ips(self) -> List[int]:
        return self._field_column(4, 4)

    def dst_ports(self) -> List[int]:
        return self._field_column(8, 2)

    def src_ports(self) -> List[int]:
        return self._field_column(10, 2)

    def protocols(self) -> List[int]:
        return self._field_column(12, 1)

    def to_descriptors(self) -> List[PacketDescriptor]:
        """Materialise the object-path representation of every row."""
        keys = self.flow_keys()
        key_bytes = self.keys()
        lengths = as_list(self.lengths)
        timestamps = as_list(self.timestamps)
        flags = as_list(self.flags)
        return [
            PacketDescriptor(
                key_bytes=key_bytes[i],
                key=keys[i],
                length_bytes=lengths[i],
                timestamp_ps=timestamps[i],
                tcp_flags=flags[i],
            )
            for i in range(len(self))
        ]

    def take(self, indices) -> "DescriptorBlock":
        """A new block holding the given rows, in the given order."""
        np = backend.np
        width = self.key_width
        count = len(self)
        if np is not None:
            idx = np.asarray(indices, dtype=np.int64)
            arr = np.frombuffer(self.key_data, dtype=np.uint8).reshape(count, width)
            return DescriptorBlock(
                arr[idx].tobytes(),
                np.asarray(self.lengths, dtype=np.int64)[idx],
                np.asarray(self.timestamps, dtype=np.int64)[idx],
                np.asarray(self.flags, dtype=np.uint16)[idx],
                key_width=width,
            )
        idx_list = list(indices)
        data = self.key_data
        return DescriptorBlock(
            b"".join(data[i * width : (i + 1) * width] for i in idx_list),
            array("q", (self.lengths[i] for i in idx_list)),
            array("q", (self.timestamps[i] for i in idx_list)),
            array("H", (self.flags[i] for i in idx_list)),
            key_width=width,
        )

    def slice_rows(self, start: int, stop: int) -> "DescriptorBlock":
        """A new block holding the contiguous row range ``[start, stop)``.

        The cheap special case of :meth:`take` for the sub-batch loops that
        walk a block front to back (per-node workers in
        :mod:`repro.parallel` take every row exactly once, in order): plain
        slicing on every column — no index array, no gather — with numpy
        slices staying views of the parent columns.  ``stop`` is clamped to
        the block length like ordinary slicing.
        """
        count = len(self)
        start = max(0, int(start))
        stop = min(int(stop), count)
        if start == 0 and stop == count:
            return self
        width = self.key_width
        return DescriptorBlock(
            self.key_data[start * width : stop * width],
            self.lengths[start:stop],
            self.timestamps[start:stop],
            self.flags[start:stop],
            key_width=width,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, DescriptorBlock):
            return NotImplemented
        return (
            self.key_width == other.key_width
            and self.key_data == other.key_data
            and as_list(self.lengths) == as_list(other.lengths)
            and as_list(self.timestamps) == as_list(other.timestamps)
            and as_list(self.flags) == as_list(other.flags)
        )

    def __repr__(self) -> str:
        return f"DescriptorBlock(count={len(self)}, key_width={self.key_width})"


class OutcomeBlock:
    """Bulk-probe results for one :class:`DescriptorBlock`, column-wise.

    ``flow_ids`` uses ``-1`` for "no flow id" and ``first_paths`` uses ``-1``
    for "no first-path preference"; ``stages`` stores codes into
    :data:`STAGES`.
    """

    __slots__ = ("block", "flow_ids", "hits", "new_flows", "stages", "first_paths", "submit_ps", "complete_ps")

    def __init__(self, block, flow_ids, hits, new_flows, stages, first_paths, submit_ps, complete_ps) -> None:
        count = len(block)
        for name, column in (
            ("flow_ids", flow_ids),
            ("hits", hits),
            ("new_flows", new_flows),
            ("stages", stages),
            ("first_paths", first_paths),
            ("submit_ps", submit_ps),
            ("complete_ps", complete_ps),
        ):
            if len(column) != count:
                raise ValueError(f"{name} column has {len(column)} rows, block has {count}")
        self.block = block
        self.flow_ids = flow_ids
        self.hits = hits
        self.new_flows = new_flows
        self.stages = stages
        self.first_paths = first_paths
        self.submit_ps = submit_ps
        self.complete_ps = complete_ps

    def __len__(self) -> int:
        return len(self.block)

    @classmethod
    def merge_scatter(
        cls, block, parts: Sequence[Tuple[Sequence[int], "OutcomeBlock"]]
    ) -> "OutcomeBlock":
        """Assemble a full-block outcome from per-partition outcomes.

        ``parts`` pairs each partition's original row indices with its
        outcome block; together the index sets must cover every row once.
        """
        np = backend.np
        count = len(block)
        if np is not None:
            flow_ids = np.full(count, -1, dtype=np.int64)
            hits = np.zeros(count, dtype=np.uint8)
            new_flows = np.zeros(count, dtype=np.uint8)
            stages = np.zeros(count, dtype=np.uint8)
            first_paths = np.full(count, -1, dtype=np.int8)
            submit_ps = np.zeros(count, dtype=np.int64)
            complete_ps = np.zeros(count, dtype=np.int64)
            for indices, part in parts:
                idx = np.asarray(indices, dtype=np.int64)
                flow_ids[idx] = np.asarray(part.flow_ids, dtype=np.int64)
                hits[idx] = np.asarray(part.hits, dtype=np.uint8)
                new_flows[idx] = np.asarray(part.new_flows, dtype=np.uint8)
                stages[idx] = np.asarray(part.stages, dtype=np.uint8)
                first_paths[idx] = np.asarray(part.first_paths, dtype=np.int8)
                submit_ps[idx] = np.asarray(part.submit_ps, dtype=np.int64)
                complete_ps[idx] = np.asarray(part.complete_ps, dtype=np.int64)
        else:
            flow_ids = array("q", [0]) * count
            hits = bytearray(count)
            new_flows = bytearray(count)
            stages = bytearray(count)
            first_paths = array("b", [0]) * count
            submit_ps = array("q", [0]) * count
            complete_ps = array("q", [0]) * count
            for indices, part in parts:
                for row_in, row_out in enumerate(indices):
                    flow_ids[row_out] = part.flow_ids[row_in]
                    hits[row_out] = part.hits[row_in]
                    new_flows[row_out] = part.new_flows[row_in]
                    stages[row_out] = part.stages[row_in]
                    first_paths[row_out] = part.first_paths[row_in]
                    submit_ps[row_out] = part.submit_ps[row_in]
                    complete_ps[row_out] = part.complete_ps[row_in]
        return cls(block, flow_ids, hits, new_flows, stages, first_paths, submit_ps, complete_ps)

    def to_outcomes(self) -> list:
        """Materialise :class:`LookupOutcome` objects for every row, in order."""
        from repro.core.flow_lut import LookupOutcome

        descriptors = self.block.to_descriptors()
        flow_ids = as_list(self.flow_ids)
        first_paths = as_list(self.first_paths)
        submit_ps = as_list(self.submit_ps)
        complete_ps = as_list(self.complete_ps)
        return [
            LookupOutcome(
                descriptor=descriptors[i],
                flow_id=None if flow_ids[i] < 0 else flow_ids[i],
                hit=bool(self.hits[i]),
                new_flow=bool(self.new_flows[i]),
                stage=STAGES[self.stages[i]],
                first_path=None if first_paths[i] < 0 else first_paths[i],
                submit_ps=submit_ps[i],
                complete_ps=complete_ps[i],
            )
            for i in range(len(self))
        ]
