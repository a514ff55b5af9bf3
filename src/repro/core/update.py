"""The Update block (paper Figure 5).

Each path has an Update block consisting of a request arbitrator (``Req_Arb``)
and a burst write generator (``BWr_Gen``).  ``Req_Arb`` merges two request
streams — deletions signalled by the Flow State housekeeping when idle flows
time out, and insertions asserted by the Flow Match block when a search misses
— into a single optimised sequence.  ``BWr_Gen`` watches both the time since
the last update and the number of outstanding updates, and releases the whole
group as one burst of writes either when the count reaches a threshold or when
a timeout expires.  Long same-direction write bursts are what keep the DQ bus
efficient (Figure 3); issuing each update individually would pay a read/write
turnaround every time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.config import FlowLUTConfig
from repro.core.dlu import DataLookupUnit, PendingWrite
from repro.sim.engine import Event, Simulator
from repro.sim.stats import RunningStats


class UpdateKind(enum.Enum):
    INSERT = "insert"
    DELETE = "delete"


@dataclass
class UpdateRequest:
    """One insertion or deletion heading for DRAM."""

    kind: UpdateKind
    address: int
    key: bytes
    submit_ps: int
    callback: Optional[Callable[[int, int], None]] = None


class UpdateBlock:
    """Req_Arb + BWr_Gen for one lookup path.

    Parameters
    ----------
    sim: shared simulator.
    config: Flow LUT configuration (threshold / timeout / enable flags).
    dlu: the path's Data Lookup Unit (updates are issued through its Memory
        Control block, and its Request Filter is informed of in-flight
        addresses).
    name: label used in reports.
    """

    def __init__(
        self,
        sim: Simulator,
        config: FlowLUTConfig,
        dlu: DataLookupUnit,
        name: str = "updt",
    ) -> None:
        self.sim = sim
        self.config = config
        self.dlu = dlu
        self.name = name
        self._pending: List[UpdateRequest] = []
        self._timeout_event: Optional[Event] = None
        self._timeout_ps = config.burst_write_timeout_cycles * config.system_clock_period_ps
        self._bursts_per_bucket = config.bursts_per_bucket

        self.insert_requests = 0
        self.delete_requests = 0
        self.flushes = 0
        self.timeout_flushes = 0
        self.threshold_flushes = 0
        self.batch_sizes = RunningStats(name=f"{name}-batch")
        self.completed_writes = 0

    # ------------------------------------------------------------------ #
    # Req_Arb: request ingress
    # ------------------------------------------------------------------ #

    @property
    def pending(self) -> int:
        return len(self._pending)

    @property
    def busy(self) -> bool:
        return bool(self._pending)

    def request_insert(
        self,
        address: int,
        key: bytes,
        callback: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        """Insertion request from the Flow Match block (search missed)."""
        self.insert_requests += 1
        self._add(UpdateRequest(UpdateKind.INSERT, address, key, self.sim.now, callback))

    def request_delete(
        self,
        address: int,
        key: bytes,
        callback: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        """Deletion request from the housekeeping function (flow timed out)."""
        self.delete_requests += 1
        self._add(UpdateRequest(UpdateKind.DELETE, address, key, self.sim.now, callback))

    def _add(self, update: UpdateRequest) -> None:
        # The Request Filter must hold lookups to this location until the
        # write lands, otherwise a search could observe a half-updated bucket.
        self.dlu.block_address(update.address)
        self._pending.append(update)

        if not self.config.burst_writes_enabled:
            self._flush(reason="immediate")
            return
        if len(self._pending) >= self.config.burst_write_threshold:
            self._flush(reason="threshold")
        elif self._timeout_event is None:
            self._timeout_event = self.sim.schedule(self._timeout_ps, self._on_timeout)

    def _on_timeout(self) -> None:
        self._timeout_event = None
        if self._pending:
            self._flush(reason="timeout")

    # ------------------------------------------------------------------ #
    # BWr_Gen: burst write release
    # ------------------------------------------------------------------ #

    def flush(self) -> None:
        """Force the current group out (used when draining an experiment)."""
        if self._pending:
            self._flush(reason="forced")

    def _flush(self, reason: str) -> None:
        if self._timeout_event is not None:
            self._timeout_event.cancel()
            self._timeout_event = None
        batch = self._pending
        self._pending = []
        self.flushes += 1
        if reason == "timeout":
            self.timeout_flushes += 1
        elif reason == "threshold":
            self.threshold_flushes += 1
        self.batch_sizes.record(len(batch))

        writes = [
            PendingWrite(
                address=update.address,
                bursts=self._bursts_per_bucket,
                callback=self._make_completion(update),
            )
            for update in batch
        ]
        self.dlu.submit_write_burst(writes)

    def _make_completion(self, update: UpdateRequest):
        def _on_complete(address: int, now_ps: int) -> None:
            self.completed_writes += 1
            self.dlu.unblock_address(address)
            if update.callback is not None:
                update.callback(address, now_ps)

        return _on_complete

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        return {
            "name": self.name,
            "insert_requests": self.insert_requests,
            "delete_requests": self.delete_requests,
            "flushes": self.flushes,
            "threshold_flushes": self.threshold_flushes,
            "timeout_flushes": self.timeout_flushes,
            "mean_batch_size": self.batch_sizes.mean,
            "completed_writes": self.completed_writes,
            "pending": self.pending,
        }
