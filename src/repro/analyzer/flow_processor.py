"""Flow processor: the Flow LUT plus flow state, driven by packets.

This is the glue between raw packets and the timed Flow LUT: it extracts the
n-tuple descriptor, submits it for lookup, accumulates per-flow state on the
result, raises events for new/terminated flows and periodically runs the
housekeeping pass that expires idle flows (which in turn generates deletion
requests towards the Update blocks).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.analyzer.event_engine import EventEngine
from repro.core.config import FlowLUTConfig
from repro.core.flow_lut import FlowLUT, LookupOutcome
from repro.core.flow_state import FlowStateTable
from repro.net.packet import Packet
from repro.net.parser import DescriptorExtractor


class FlowProcessor:
    """Per-packet flow lookup, state maintenance and housekeeping.

    Parameters
    ----------
    config: Flow LUT configuration.
    extractor: descriptor extraction (defaults to the standard 5-tuple).
    event_engine: optional event engine notified of flow-level events.
    housekeeping_interval_us: how often (in trace time) the housekeeping scan
        runs; ``None`` disables automatic housekeeping.
    """

    def __init__(
        self,
        config: Optional[FlowLUTConfig] = None,
        extractor: Optional[DescriptorExtractor] = None,
        event_engine: Optional[EventEngine] = None,
        housekeeping_interval_us: Optional[float] = 1_000_000.0,
    ) -> None:
        self.config = config or FlowLUTConfig()
        self.extractor = extractor or DescriptorExtractor()
        self.event_engine = event_engine
        self.flow_state = FlowStateTable(timeout_us=self.config.flow_timeout_us)
        self.flow_lut = FlowLUT(
            self.config,
            flow_state=self.flow_state,
            on_result=self._on_result,
        )
        self.housekeeping_interval_us = housekeeping_interval_us
        self._next_housekeeping_ps: Optional[int] = (
            int(housekeeping_interval_us * 1e6) if housekeeping_interval_us else None
        )
        self.packets_processed = 0
        self.packets_rejected = 0
        self.flows_expired = 0
        self.outcomes: List[LookupOutcome] = []
        self.observers: List[Callable[[LookupOutcome], None]] = []
        self.batch_observers: List[Callable[[List[LookupOutcome]], None]] = []

    def add_observer(self, observer: Callable[[LookupOutcome], None]) -> None:
        """Register a per-lookup tap (e.g. a telemetry pipeline).

        Observers are invoked for every completed lookup outcome, after flow
        state and events have been updated, in registration order.
        """
        self.observers.append(observer)

    def add_batch_observer(self, observer: Callable[[List[LookupOutcome]], None]) -> None:
        """Register a per-batch tap: one call per :meth:`process_batch` with
        every outcome the batch produced, instead of a per-packet callback."""
        self.batch_observers.append(observer)

    # ------------------------------------------------------------------ #
    # Packet path
    # ------------------------------------------------------------------ #

    def process(self, packet: Packet) -> bool:
        """Submit one packet's descriptor; returns ``False`` on backpressure."""
        return self._offer(self.extractor.extract(packet), packet.timestamp_ps)

    def _offer(self, descriptor, timestamp_ps: int) -> bool:
        if not self.flow_lut.submit(descriptor):
            self.packets_rejected += 1
            return False
        self.packets_processed += 1
        self._maybe_housekeep(timestamp_ps)
        return True

    def process_blocking(self, packet: Packet) -> None:
        """Process one packet, riding out input-FIFO backpressure.

        The descriptor is extracted exactly once — retrying :meth:`process`
        from the outside would re-extract on every rejection and inflate the
        extractor's ``packets_parsed`` tally.
        """
        descriptor = self.extractor.extract(packet)
        while not self._offer(descriptor, packet.timestamp_ps):
            # Let in-flight lookups retire, then retry the same descriptor.
            self.flow_lut.sim.run(
                until_ps=self.flow_lut.sim.now + self.config.system_clock_period_ps * 8
            )

    def flush_batch_observers(self, start: int) -> List[LookupOutcome]:
        """Deliver ``outcomes[start:]`` to the batch observers; returns the slice."""
        batch = self.outcomes[start:]
        if batch:
            for observer in self.batch_observers:
                observer(batch)
        return batch

    def process_all(self, packets) -> int:
        """Process a packet sequence, draining the LUT whenever it pushes back.

        Batch observers see the whole sequence as one batch.  Returns the
        number of packets processed.
        """
        start = len(self.outcomes)
        count = 0
        for packet in packets:
            self.process_blocking(packet)
            count += 1
        self.flow_lut.drain()
        self.flush_batch_observers(start)
        return count

    def process_batch(self, packets) -> List[LookupOutcome]:
        """Process one packet batch and return its lookup outcomes.

        This is the batch entry point of the fast-path engine: the whole
        batch is submitted (draining under backpressure), the LUT is drained
        once at the end, and every registered batch observer receives the
        batch's outcomes in a single call.  Per-outcome observers still fire
        individually as each lookup completes.
        """
        start = len(self.outcomes)
        self.process_all(packets)
        return self.outcomes[start:]

    def _on_result(self, outcome: LookupOutcome) -> None:
        self.outcomes.append(outcome)
        timestamp = getattr(outcome.descriptor, "timestamp_ps", outcome.complete_ps)
        if self.event_engine is not None and outcome.flow_id is not None:
            if outcome.new_flow:
                self.event_engine.observe_new_flow(outcome.flow_id, timestamp)
            record = self.flow_state.get(outcome.flow_id)
            if record is not None:
                self.event_engine.observe_update(record, timestamp)
            flags = getattr(outcome.descriptor, "tcp_flags", 0)
            if flags & 0x05:  # FIN or RST
                self.event_engine.observe_termination(outcome.flow_id, timestamp, record=record)
        for observer in self.observers:
            observer(outcome)

    # ------------------------------------------------------------------ #
    # Housekeeping
    # ------------------------------------------------------------------ #

    def _maybe_housekeep(self, trace_time_ps: int) -> None:
        if self._next_housekeeping_ps is None:
            return
        if trace_time_ps < self._next_housekeeping_ps:
            return
        self.run_housekeeping(trace_time_ps)
        interval_ps = int(self.housekeeping_interval_us * 1e6)
        while self._next_housekeeping_ps <= trace_time_ps:
            self._next_housekeeping_ps += interval_ps

    def run_housekeeping(self, trace_time_ps: Optional[int] = None) -> int:
        """Expire idle flows and raise expiry events; returns the count removed."""
        now = trace_time_ps if trace_time_ps is not None else self.flow_lut.sim.now
        expired_records = self.flow_state.expire(now)
        removed = 0
        for record in expired_records:
            key_bytes = self.flow_lut.live_key(record.flow_id)
            if key_bytes is not None and self.flow_lut.delete_flow(key_bytes):
                removed += 1
            if self.event_engine is not None:
                self.event_engine.observe_expiry(record, now)
        self.flows_expired += removed
        return removed

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        return {
            "packets_processed": self.packets_processed,
            "packets_rejected": self.packets_rejected,
            "flows_expired": self.flows_expired,
            "active_flows": len(self.flow_state),
            "throughput_mdesc_s": self.flow_lut.throughput_mdesc_s,
            "miss_rate": self.flow_lut.miss_rate,
            "flow_state": self.flow_state.stats(),
        }
