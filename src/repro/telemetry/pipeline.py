"""The telemetry pipeline: sketches subscribed to the flow processor.

:class:`TelemetryPipeline` is the measurement plane of the Figure 7 analyzer:
it consumes the same per-packet stream the exact Flow LUT path processes and
summarises it with the bounded-memory structures of this package (Count-Min
packet/byte counts, Space-Saving heavy hitters, superspreader fan-out,
flow-size distribution) plus simple anomaly flags (SYN flood, port scan).

It can be driven two ways:

* **attached** — :meth:`attach` registers the pipeline as an observer on a
  :class:`~repro.analyzer.flow_processor.FlowProcessor` (or a whole
  :class:`~repro.analyzer.traffic_analyzer.TrafficAnalyzer`), so every lookup
  outcome and flow event feeds the sketches while the exact path runs.  This
  is the head-to-head configuration: :meth:`compare_with_exact` then scores
  the sketch estimates against the exact flow-state records.
* **standalone** — :meth:`observe_packet` feeds raw packets directly, for
  sketch-only measurement at rates where the timed LUT model is not needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analyzer.event_engine import FlowEvent, FlowEventType
from repro.columns.block import DescriptorBlock, OutcomeBlock
from repro.net.fivetuple import FLOW_KEY_BYTES, FlowKey, PROTO_TCP
from repro.net.packet import Packet, TCP_FLAGS
from repro.sim.rng import SeedLike, make_rng
from repro.telemetry.flow_size import FlowSizeDistribution
from repro.telemetry.heavy_hitters import HeavyHitter, SpaceSavingTracker
from repro.telemetry.sketches import CountMinSketch
from repro.telemetry.superspreader import SpreaderReport, SuperSpreaderDetector

EXACT_BYTES_PER_FLOW = 64
"""DDR3 bucket-entry budget per exact flow (key + counters + timestamps),
used when comparing sketch memory against the exact Flow LUT path."""


@dataclass(frozen=True)
class TelemetryConfig:
    """Sizing and detection thresholds of the measurement plane.

    Attributes
    ----------
    cm_width / cm_depth: Count-Min geometry for the packet and byte sketches.
    heavy_hitter_capacity: Space-Saving counters for top-talker tracking.
    spreader_sources / spreader_bitmap_bits: superspreader table geometry.
    spreader_threshold: distinct destination IPs flagging a superspreader.
    scan_threshold: distinct (IP, port) contacts flagging a port scanner.
    syn_flood_fraction: share of bare-SYN packets that raises the flood flag.
    syn_flood_min_packets: packets required before the flood flag can fire.
    """

    cm_width: int = 2048
    cm_depth: int = 4
    heavy_hitter_capacity: int = 128
    spreader_sources: int = 256
    spreader_bitmap_bits: int = 512
    spreader_threshold: float = 64.0
    scan_threshold: float = 96.0
    syn_flood_fraction: float = 0.5
    syn_flood_min_packets: int = 1000

    def __post_init__(self) -> None:
        if not 0.0 < self.syn_flood_fraction <= 1.0:
            raise ValueError("syn_flood_fraction must be in (0, 1]")
        if self.syn_flood_min_packets <= 0:
            raise ValueError("syn_flood_min_packets must be positive")


class TelemetryPipeline:
    """Streaming measurement over the analyzer's packet/event stream."""

    def __init__(self, config: Optional[TelemetryConfig] = None, seed: SeedLike = None) -> None:
        self.config = config or TelemetryConfig()
        rng = make_rng(seed)
        cfg = self.config
        self.packet_counts = CountMinSketch(
            cfg.cm_width, cfg.cm_depth, key_bits=104, seed=rng.getrandbits(64)
        )
        self.byte_counts = CountMinSketch(
            cfg.cm_width, cfg.cm_depth, key_bits=104, seed=rng.getrandbits(64)
        )
        self.heavy_hitters = SpaceSavingTracker(cfg.heavy_hitter_capacity)
        self.spreaders = SuperSpreaderDetector(
            cfg.spreader_sources,
            cfg.spreader_bitmap_bits,
            threshold=cfg.spreader_threshold,
            seed=rng.getrandbits(64),
        )
        self.port_scanners = SuperSpreaderDetector(
            cfg.spreader_sources,
            cfg.spreader_bitmap_bits,
            threshold=cfg.scan_threshold,
            seed=rng.getrandbits(64),
        )
        self.flow_sizes = FlowSizeDistribution()
        self.packets = 0
        self.bytes = 0
        self.syn_packets = 0
        self.events_seen = 0

    @classmethod
    def from_components(
        cls,
        config: TelemetryConfig,
        *,
        packet_counts: CountMinSketch,
        byte_counts: CountMinSketch,
        heavy_hitters: SpaceSavingTracker,
        spreaders: SuperSpreaderDetector,
        port_scanners: SuperSpreaderDetector,
        flow_sizes: FlowSizeDistribution,
        packets: int,
        bytes_: int,
        syn_packets: int,
        events_seen: int,
    ) -> "TelemetryPipeline":
        """Reassemble a pipeline from restored components (:mod:`repro.persist`).

        Each component must match the geometry the config would have built
        — the same compatibility :meth:`merge` relies on — otherwise a
        restored pipeline could silently refuse to merge with its peers.
        Violations raise :class:`ValueError` before any state is adopted.
        """
        for sketch, label in ((packet_counts, "packet"), (byte_counts, "byte")):
            if (sketch.width, sketch.depth) != (config.cm_width, config.cm_depth):
                raise ValueError(f"{label} sketch geometry does not match the config")
        if heavy_hitters.capacity != config.heavy_hitter_capacity:
            raise ValueError("heavy-hitter capacity does not match the config")
        for detector, label in ((spreaders, "spreader"), (port_scanners, "port-scan")):
            if (
                detector.max_sources != config.spreader_sources
                or detector.bitmap_bits != config.spreader_bitmap_bits
            ):
                raise ValueError(f"{label} detector geometry does not match the config")
        if min(packets, bytes_, syn_packets, events_seen) < 0:
            raise ValueError("pipeline counters must be non-negative")
        # Assembled directly (no throwaway __init__ components): a normal
        # construction would build and immediately discard two full
        # Count-Min grids, two detectors and a tracker on every restore.
        pipeline = cls.__new__(cls)
        pipeline.config = config
        pipeline.packet_counts = packet_counts
        pipeline.byte_counts = byte_counts
        pipeline.heavy_hitters = heavy_hitters
        pipeline.spreaders = spreaders
        pipeline.port_scanners = port_scanners
        pipeline.flow_sizes = flow_sizes
        pipeline.packets = packets
        pipeline.bytes = bytes_
        pipeline.syn_packets = syn_packets
        pipeline.events_seen = events_seen
        return pipeline

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #

    def _observe(self, key: FlowKey, length_bytes: int, tcp_flags: int) -> None:
        key_bytes = key.pack()
        self.packets += 1
        self.bytes += length_bytes
        self.packet_counts.update(key_bytes)
        if length_bytes > 0:  # descriptors, unlike packets, may carry no length
            self.byte_counts.update(key_bytes, length_bytes)
            self.heavy_hitters.update(key_bytes, length_bytes)
        self.spreaders.update(key.src_ip, key.dst_ip)
        self.port_scanners.update(key.src_ip, (key.dst_ip << 16) | key.dst_port)
        if key.protocol == PROTO_TCP and tcp_flags & TCP_FLAGS["SYN"] and not tcp_flags & TCP_FLAGS["ACK"]:
            self.syn_packets += 1

    def observe_packet(self, packet: Packet) -> None:
        """Standalone mode: account one raw packet."""
        self._observe(packet.key, packet.length_bytes, packet.tcp_flags)

    def observe_packets(self, packets: Iterable[Packet]) -> int:
        """Standalone mode: account a packet stream; returns the count."""
        count = 0
        for packet in packets:
            self.observe_packet(packet)
            count += 1
        return count

    def observe_outcome(self, outcome) -> None:
        """Attached mode: account one Flow LUT lookup outcome."""
        descriptor = outcome.descriptor
        key = getattr(descriptor, "key", None)
        if not isinstance(key, FlowKey):
            return  # pattern descriptors carry no 5-tuple to measure
        self._observe(
            key,
            getattr(descriptor, "length_bytes", 0),
            getattr(descriptor, "tcp_flags", 0),
        )

    def observe_outcomes(self, outcomes) -> int:
        """Batch mode: account a whole batch of lookup outcomes at once.

        This is the callback the sharded engine, the replication plane and
        the batched analyzer invoke — one call per batch rather than one per
        packet.  Accepts a :class:`~repro.columns.OutcomeBlock` or an
        iterable of :class:`LookupOutcome` objects; the latter is packed
        into a block here, once (descriptors that carry no 5-tuple are
        skipped), and both run the one block body.  Returns the number of
        outcomes in the batch.
        """
        if isinstance(outcomes, OutcomeBlock):
            self._observe_block(outcomes.block)
            return len(outcomes)
        count = 0
        rows = []
        for outcome in outcomes:
            count += 1
            descriptor = outcome.descriptor
            key = getattr(descriptor, "key", None)
            if isinstance(key, FlowKey):  # pattern descriptors carry no 5-tuple
                length = getattr(descriptor, "length_bytes", 0)
                # The timestamp column stays zero: telemetry never reads it.
                rows.append((key, length, 0, getattr(descriptor, "tcp_flags", 0)))
        self._observe_block(DescriptorBlock.from_rows(rows))
        return count

    def _observe_block(self, block: DescriptorBlock) -> None:
        """The batch body: hash by column, update by row.

        The block's key column is hashed once per hash function — the two
        sketches' Count-Min rows over the packed keys, each detector's one
        bitmap hash over its destination column — and every structure then
        takes its updates in row order, so each ends in exactly the state
        :meth:`_observe` row by row would leave it in.  Rows that carry no
        length touch neither the byte sketch nor the heavy hitters.
        """
        count = len(block)
        if not count:
            return
        packed = block.packed_key_data()
        width = FLOW_KEY_BYTES
        lengths = block.lengths.tolist()
        self.packets += count
        self.bytes += sum(lengths)
        self.packet_counts.update_column(packed, width)
        self.byte_counts.update_column(
            packed, width, [length if length > 0 else 0 for length in lengths]
        )
        update = self.heavy_hitters.update
        for offset, length in zip(range(0, len(packed), width), lengths):
            if length > 0:
                update(packed[offset : offset + width], length)
        sources = block.src_ips()
        destinations = block.dst_ips()
        self.spreaders.update_column(sources, destinations)
        self.port_scanners.update_column(
            sources,
            [(ip << 16) | port for ip, port in zip(destinations, block.dst_ports())],
        )
        bare_syn = TCP_FLAGS["SYN"]
        syn_ack = bare_syn | TCP_FLAGS["ACK"]
        self.syn_packets += sum(
            1
            for protocol, flags in zip(block.protocols(), block.flags.tolist())
            if protocol == PROTO_TCP and flags & syn_ack == bare_syn
        )

    def observe_event(self, event: FlowEvent) -> None:
        """Attached mode: account one flow event (flow-size accounting).

        A flow's size is recorded only once its record is final: expiry
        removes the record from the flow-state table, and :meth:`finalize`
        sweeps the records still active at window close.  FIN/RST
        termination events are *not* sized — the record stays in the table
        and may keep accumulating retransmitted or trailing packets.
        """
        self.events_seen += 1
        if event.kind is FlowEventType.FLOW_EXPIRED and event.record is not None:
            self.flow_sizes.observe_flow(event.record.packets, event.record.bytes)

    def attach(self, target, batch: bool = False) -> "TelemetryPipeline":
        """Subscribe to a flow processor (or traffic analyzer); returns self.

        Lookup outcomes feed the sketches and flow events feed the flow-size
        collector; an already-registered ``on_event`` callback is chained,
        not replaced.  With ``batch=True`` the pipeline registers as a
        *batch* observer (:meth:`observe_outcomes`) instead of a per-outcome
        callback: one call per batch on the batched analyzer path, one call
        per run on the per-packet path.  Attaching the same pipeline to the
        same processor again, in either mode, is a no-op (it would otherwise
        double-count every packet).
        """
        processor = getattr(target, "flow_processor", target)
        if (
            self.observe_outcome in processor.observers
            or self.observe_outcomes in processor.batch_observers
        ):
            return self
        if batch:
            processor.add_batch_observer(self.observe_outcomes)
        else:
            processor.add_observer(self.observe_outcome)
        engine = processor.event_engine
        if engine is not None:
            previous = engine.on_event

            def chained(event: FlowEvent) -> None:
                if previous is not None:
                    previous(event)
                self.observe_event(event)

            engine.on_event = chained
        return self

    def merge(self, other: "TelemetryPipeline") -> "TelemetryPipeline":
        """Fold another pipeline's measurements into this one.

        This is the cluster aggregation step: per-node pipelines summarise
        their slice of the traffic, and merging them yields the measurement
        plane one pipeline would have built over the whole stream (exactly
        for the Count-Min sketches, bitmaps and flow-size histogram;
        bounded-error for the Space-Saving summary).  Both pipelines must
        have been constructed with the same :class:`TelemetryConfig` and
        seed — the config is checked here, and every underlying structure
        verifies its own geometry/seed before mutating, so a mismatched
        merge fails on its first structure (the packet sketch) with nothing
        yet combined.
        """
        if other.config != self.config:
            raise ValueError("cannot merge pipelines with different configurations")
        self.packet_counts.merge(other.packet_counts)
        self.byte_counts.merge(other.byte_counts)
        self.heavy_hitters.merge(other.heavy_hitters)
        self.spreaders.merge(other.spreaders)
        self.port_scanners.merge(other.port_scanners)
        self.flow_sizes.merge(other.flow_sizes)
        self.packets += other.packets
        self.bytes += other.bytes
        self.syn_packets += other.syn_packets
        self.events_seen += other.events_seen
        return self

    def finalize(self, flow_state) -> int:
        """Close the measurement window: size flows still active in ``flow_state``.

        Complements the expiry-driven accounting of :meth:`observe_event`
        (active and expired records are disjoint, so together they size each
        flow exactly once).  Call once per measurement window.  Returns how
        many records were added to the flow-size distribution.
        """
        added = 0
        for record in flow_state:
            self.flow_sizes.observe_flow(record.packets, record.bytes)
            added += 1
        return added

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def estimate_packets(self, key: FlowKey) -> int:
        """Count-Min packet-count estimate for one flow (never underestimates)."""
        return self.packet_counts.estimate(key.pack())

    def estimate_bytes(self, key: FlowKey) -> int:
        return self.byte_counts.estimate(key.pack())

    def top_talkers(self, count: int = 10) -> List[HeavyHitter]:
        """Space-Saving top flows by bytes (keys are packed 5-tuples)."""
        return self.heavy_hitters.top(count)

    def superspreaders(self) -> List[SpreaderReport]:
        return self.spreaders.superspreaders()

    def port_scan_suspects(self) -> List[SpreaderReport]:
        return self.port_scanners.superspreaders()

    @property
    def syn_fraction(self) -> float:
        return self.syn_packets / self.packets if self.packets else 0.0

    @property
    def syn_flood_detected(self) -> bool:
        return (
            self.packets >= self.config.syn_flood_min_packets
            and self.syn_fraction >= self.config.syn_flood_fraction
        )

    @property
    def port_scan_detected(self) -> bool:
        return bool(self.port_scanners.superspreaders())

    @property
    def memory_bytes(self) -> int:
        """Total provisioned sketch memory of the measurement plane."""
        bits = (
            self.packet_counts.memory_bits
            + self.byte_counts.memory_bits
            + self.spreaders.memory_bits
            + self.port_scanners.memory_bits
        )
        # A Space-Saving entry stores a packed key plus count and error.
        hh_bytes = self.heavy_hitters.capacity * (13 + 8 + 8)
        return (bits + 7) // 8 + hh_bytes

    def record_occupancy(self, metrics, **labels: object) -> None:
        """Export the sketches' fill state as gauges on ``metrics``.

        ``metrics`` is a :class:`~repro.obs.metrics.MetricsRegistry`;
        ``labels`` (typically ``node=<id>``) distinguish pipelines sharing
        one registry.  Occupancy is a *now* figure, so this samples rather
        than accumulates: Count-Min non-zero-counter fraction per sketch,
        Space-Saving monitored-entry fill, detector source-table fill, and
        the packet total the pipeline has absorbed.  Walking the Count-Min
        grids is O(width × depth) — scrape-path cost, never hot-path.
        """
        label_names = tuple(sorted(labels))
        occupancy = metrics.gauge(
            "repro_telemetry_occupancy",
            "Fill fraction of each bounded telemetry structure",
            labels=(*label_names, "structure"),
        )
        occupancy.set(self.packet_counts.occupancy, **labels, structure="cm_packets")
        occupancy.set(self.byte_counts.occupancy, **labels, structure="cm_bytes")
        occupancy.set(
            len(self.heavy_hitters) / self.heavy_hitters.capacity,
            **labels,
            structure="heavy_hitters",
        )
        for detector, structure in (
            (self.spreaders, "spreaders"),
            (self.port_scanners, "port_scanners"),
        ):
            occupancy.set(
                detector.stats()["monitored_sources"] / detector.max_sources,
                **labels,
                structure=structure,
            )
        metrics.gauge(
            "repro_telemetry_packets",
            "Packets absorbed by each telemetry pipeline",
            labels=label_names,
        ).set(self.packets, **labels)

    # ------------------------------------------------------------------ #
    # Head-to-head against the exact path
    # ------------------------------------------------------------------ #

    def compare_with_exact(self, records: Iterable, top_k: int = 10) -> dict:
        """Score sketch estimates against exact per-flow records.

        ``records`` is an iterable of flow-state records (anything with
        ``key`` / ``packets`` / ``bytes`` attributes, e.g.
        :class:`~repro.core.flow_state.FlowRecord`, live or exported) or of
        plain ``(key, packets, bytes)`` tuples.  Returns accuracy and
        memory-footprint figures for the comparison the subsystem exists to
        make: bounded-memory sketches versus the exact DDR3-resident flow
        table.
        """
        exact: Dict[bytes, Tuple[int, int]] = {}
        for record in records:
            if isinstance(record, tuple):
                key, record_packets, record_bytes = record
            else:
                key, record_packets, record_bytes = record.key, record.packets, record.bytes
            packed = key.pack()
            # The same 5-tuple can appear in several records (flow-ID churn);
            # the stream-level truth is their sum.
            packets, bytes_ = exact.get(packed, (0, 0))
            exact[packed] = (packets + record_packets, bytes_ + record_bytes)
        if not exact:
            return {
                "flows": 0,
                "cm_mean_relative_error": 0.0,
                "cm_max_relative_error": 0.0,
                "cm_underestimates": 0,
                "top_k": top_k,
                "heavy_hitter_recall": 0.0,
                "sketch_memory_bytes": self.memory_bytes,
                "exact_memory_bytes": 0,
            }

        underestimates = 0
        relative_errors: List[float] = []
        for packed, (packets, _) in exact.items():
            estimate = self.packet_counts.estimate(packed)
            if estimate < packets:
                underestimates += 1
            relative_errors.append((estimate - packets) / packets if packets else 0.0)

        exact_top = sorted(exact.items(), key=lambda item: item[1][1], reverse=True)
        true_top = {packed for packed, _ in exact_top[:top_k]}
        sketch_top = {hitter.key for hitter in self.heavy_hitters.top(top_k)}
        recall = len(true_top & sketch_top) / len(true_top) if true_top else 0.0

        return {
            "flows": len(exact),
            "cm_mean_relative_error": sum(relative_errors) / len(relative_errors),
            "cm_max_relative_error": max(relative_errors),
            "cm_underestimates": underestimates,
            "top_k": top_k,
            "heavy_hitter_recall": recall,
            "sketch_memory_bytes": self.memory_bytes,
            "exact_memory_bytes": len(exact) * EXACT_BYTES_PER_FLOW,
        }

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def report(self) -> dict:
        """Operator-facing summary: traffic totals, detections, sketch health."""
        return {
            "packets": self.packets,
            "bytes": self.bytes,
            "syn_fraction": self.syn_fraction,
            "events_seen": self.events_seen,
            "detections": {
                "syn_flood": self.syn_flood_detected,
                "port_scan": self.port_scan_detected,
                "superspreaders": len(self.superspreaders()),
            },
            "heavy_hitters": self.heavy_hitters.stats(),
            "spreaders": self.spreaders.stats(),
            "port_scanners": self.port_scanners.stats(),
            "flow_sizes": self.flow_sizes.stats(),
            "packet_sketch": self.packet_counts.stats(),
            "memory_bytes": self.memory_bytes,
        }
