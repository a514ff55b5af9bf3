"""DDR3 memory controller model.

The paper explicitly places its Data Lookup Unit *in front of* "a standard
DDR3 memory controller" (Altera's UniPhy IP in the prototype): the DLU does
the application-aware reordering, the controller only enforces DRAM protocol
timing and offers a bounded command queue.  This module models that standard
controller: an in-order-ish reservation engine with a small lookahead window
that prefers row hits (FR-FCFS lite), a configurable page policy and a bounded
number of outstanding requests which provides the backpressure that ultimately
limits lookup throughput.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.memory.commands import MemoryOp, MemoryRequest
from repro.memory.dram import DDR3Device
from repro.memory.timing import DDR3Geometry, DDR3Timing
from repro.sim.engine import Simulator
from repro.sim.stats import RunningStats


class PagePolicy(enum.Enum):
    """Row-buffer management policy."""

    OPEN = "open"
    CLOSED = "closed"


class AddressMapping:
    """Byte-address to (bank, row, column) decomposition.

    Two interleaving schemes are provided:

    * ``bank_interleaved`` (default): bank bits sit directly above the burst
      offset, so consecutive buckets rotate across all banks.  This is the
      layout the Flow LUT relies on ("the bank selector works to re-organize
      the input data into 8 banks", Section V-A).
    * ``row_major``: bank bits sit above the row bits, so large contiguous
      regions map to a single bank — the worst case for random lookups, used
      by ablation studies.
    """

    SCHEMES = ("bank_interleaved", "row_major")

    def __init__(self, geometry: DDR3Geometry, scheme: str = "bank_interleaved") -> None:
        if scheme not in self.SCHEMES:
            raise ValueError(f"unknown mapping scheme {scheme!r}; expected one of {self.SCHEMES}")
        self.geometry = geometry
        self.scheme = scheme
        self._burst_bytes = geometry.burst_bytes
        self._bursts_per_row = geometry.bursts_per_row
        self._banks = geometry.banks
        self._rows = geometry.rows
        self._burst_length = geometry.burst_length
        self._bank_interleaved = scheme == "bank_interleaved"

    def decompose(self, address: int) -> Tuple[int, int, int]:
        """Return ``(bank, row, column)`` for a byte address."""
        if address < 0:
            raise ValueError("address must be non-negative")
        burst_index = address // self._burst_bytes
        bursts_per_row = self._bursts_per_row
        if self._bank_interleaved:
            bank = burst_index % self._banks
            remaining = burst_index // self._banks
            column_burst = remaining % bursts_per_row
            row = (remaining // bursts_per_row) % self._rows
        else:  # row_major
            column_burst = burst_index % bursts_per_row
            remaining = burst_index // bursts_per_row
            row = remaining % self._rows
            bank = (remaining // self._rows) % self._banks
        return bank, row, column_burst * self._burst_length

    def compose(self, bank: int, row: int, column: int) -> int:
        """Inverse of :meth:`decompose` (column must be burst aligned)."""
        geometry = self.geometry
        column_burst = column // geometry.burst_length
        if self.scheme == "bank_interleaved":
            burst_index = (row * self._bursts_per_row + column_burst) * geometry.banks + bank
        else:
            burst_index = (bank * geometry.rows + row) * self._bursts_per_row + column_burst
        return burst_index * self._burst_bytes


@dataclass
class ControllerStats:
    """Aggregate controller statistics."""

    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    rejected: int = 0

    def as_dict(self) -> dict:
        total = self.row_hits + self.row_misses
        return {
            "reads": self.reads,
            "writes": self.writes,
            "row_hits": self.row_hits,
            "row_misses": self.row_misses,
            "row_hit_rate": self.row_hits / total if total else 0.0,
            "rejected": self.rejected,
        }


class DDR3Controller:
    """Event-driven controller front-end over a :class:`DDR3Device`.

    Parameters
    ----------
    sim: simulation engine driving completions.
    timing / geometry: DDR3 speed grade and organisation.
    mapping: address mapping (defaults to bank-interleaved).
    page_policy: open- or closed-page row management.
    queue_depth: maximum number of requests waiting to be issued.
    max_outstanding: maximum number of issued-but-incomplete requests; this is
        what creates backpressure towards the DLU.
    reorder_window: how many queued requests the controller inspects when
        preferring a row hit (FR-FCFS lite).  ``1`` makes it strictly FCFS.
    """

    def __init__(
        self,
        sim: Simulator,
        timing: DDR3Timing,
        geometry: DDR3Geometry,
        mapping: Optional[AddressMapping] = None,
        page_policy: PagePolicy = PagePolicy.OPEN,
        queue_depth: int = 16,
        max_outstanding: int = 8,
        reorder_window: int = 4,
        refresh_enabled: bool = True,
        name: str = "ddr3",
    ) -> None:
        if queue_depth <= 0:
            raise ValueError("queue_depth must be positive")
        if max_outstanding <= 0:
            raise ValueError("max_outstanding must be positive")
        if reorder_window <= 0:
            raise ValueError("reorder_window must be positive")
        self.sim = sim
        self.name = name
        self.timing = timing
        self.geometry = geometry
        self.mapping = mapping or AddressMapping(geometry)
        self.page_policy = page_policy
        self.queue_depth = queue_depth
        self.max_outstanding = max_outstanding
        self.reorder_window = reorder_window
        self.device = DDR3Device(
            timing,
            geometry,
            auto_precharge=(page_policy is PagePolicy.CLOSED),
            refresh_enabled=refresh_enabled,
        )
        self._pending: List[MemoryRequest] = []
        self._outstanding = 0
        self.stats = ControllerStats()
        self.latency_stats = RunningStats(name=f"{name}-latency-ps")
        self._drain_callbacks: List[Callable[[], None]] = []

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #

    @property
    def pending(self) -> int:
        return len(self._pending)

    @property
    def outstanding(self) -> int:
        return self._outstanding

    @property
    def busy(self) -> bool:
        return bool(self._pending) or self._outstanding > 0

    def can_accept(self) -> bool:
        """Whether a new request would be accepted right now."""
        return len(self._pending) < self.queue_depth

    def submit(self, request: MemoryRequest) -> bool:
        """Queue ``request``; returns ``False`` (and drops it) when full."""
        if len(self._pending) >= self.queue_depth:
            self.stats.rejected += 1
            return False
        request.submit_ps = self.sim._now
        request.location = self.mapping.decompose(request.address)
        self._pending.append(request)
        self._try_issue()
        return True

    def on_drain(self, callback: Callable[[], None]) -> None:
        """Register a callback invoked whenever queue space frees up."""
        self._drain_callbacks.append(callback)

    # ------------------------------------------------------------------ #
    # Issue / completion
    # ------------------------------------------------------------------ #

    def _pick_index(self) -> int:
        """Pick the next request: oldest row hit within the reorder window,
        falling back to the oldest request."""
        pending = self._pending
        banks = self.device.banks
        for i in range(min(len(pending), self.reorder_window)):
            bank, row, _ = pending[i].location
            if banks[bank].open_row == row:
                return i
        return 0

    def _try_issue(self) -> None:
        pending = self._pending
        while pending and self._outstanding < self.max_outstanding:
            request = pending.pop(self._pick_index() if len(pending) > 1 else 0)
            bank, row, column = request.location
            result = self.device.access(
                request.op, bank, row, column, self.sim._now, request.bursts
            )
            request.issue_ps = result.cas_ps
            request.complete_ps = complete_ps = result.complete_ps
            request.row_hit = row_hit = result.row_hit
            stats = self.stats
            if request.op is MemoryOp.READ:
                stats.reads += 1
            else:
                stats.writes += 1
            if row_hit:
                stats.row_hits += 1
            else:
                stats.row_misses += 1
            self._outstanding += 1
            self.sim.schedule_at(complete_ps, self._complete, request)

    def _complete(self, request: MemoryRequest) -> None:
        self._outstanding -= 1
        self.latency_stats.record(request.complete_ps - request.submit_ps)
        if request.callback is not None:
            request.callback(request, self.sim._now)
        self._try_issue()
        for callback in self._drain_callbacks:
            callback()

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def utilisation(self) -> float:
        """DQ-bus utilisation observed so far."""
        return self.device.dq_utilisation()

    def report(self) -> dict:
        report = self.stats.as_dict()
        report.update(
            {
                "name": self.name,
                "dq_utilisation": self.device.dq_utilisation(),
                "mean_latency_ns": self.latency_stats.mean / 1000.0,
                "max_latency_ns": (self.latency_stats.maximum / 1000.0) if self.latency_stats.count else 0.0,
                "device": self.device.stats(),
            }
        )
        return report
