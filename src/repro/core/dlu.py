"""The Data Lookup Unit (paper Figure 4).

Each lookup path owns one DLU sitting between the Flow LUT logic and that
path's standard DDR3 controller.  It contains three blocks:

* **Bank Selector** — queues the two kinds of incoming lookups (LU1 from the
  sequencer, LU2 redirected from the other path's Flow Match) and orders them
  by the DDR3 bank they target, so consecutive requests hit different banks
  and activates overlap data transfers.
* **Request Filter** — holds back lookups that target a location with an
  update in flight, the corner case the paper calls out explicitly.
* **Memory Control** — issues read requests (and the Update block's batched
  writes) to the DDR3 controller.  Writes are issued as uninterrupted groups
  so the DQ bus sees long same-direction bursts (Figure 3's lesson).

The DLU reorders *across* flows only; requests for the same flow key are kept
in order because a second lookup for a key is never launched while its first
is still outstanding, and updates block lookups to the same address.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.config import FlowLUTConfig
from repro.memory.commands import MemoryOp, MemoryRequest
from repro.sim.engine import Simulator


@dataclass
class PendingLookup:
    """A lookup waiting inside the Bank Selector."""

    job: object
    lookup_num: int
    address: int
    bank: int


@dataclass
class PendingWrite:
    """One batched update write waiting in the Memory Control block."""

    address: int
    bursts: int
    callback: Optional[Callable[[int, int], None]] = None


class DataLookupUnit:
    """One path's DLU.

    Parameters
    ----------
    sim: shared simulator.
    config: Flow LUT configuration (queue depths, feature toggles).
    controller: this path's DDR3 controller (or an object with the same
        ``submit`` / ``can_accept`` interface, e.g. the QDR SRAM model).
    on_bucket_data: callback ``(job, lookup_num, now_ps)`` invoked when a
        bucket read completes.
    name: label used in reports.
    """

    def __init__(
        self,
        sim: Simulator,
        config: FlowLUTConfig,
        controller,
        on_bucket_data: Callable[[object, int, int], None],
        name: str = "dlu",
    ) -> None:
        self.sim = sim
        self.config = config
        self.controller = controller
        self.on_bucket_data = on_bucket_data
        self.name = name

        banks = config.geometry.banks
        self._bank_queues: List[Deque[PendingLookup]] = [deque() for _ in range(banks)]
        self._bank_pointer = 0
        self._write_queue: Deque[PendingWrite] = deque()
        self._blocked: Dict[int, List[PendingLookup]] = {}
        self._lu1_depth = config.lu1_queue_depth
        self.lu1_headroom = config.lu1_queue_depth
        """Free slots in the first-lookup input queue (drives the sequencer)."""
        self._lu2_pending = 0
        self._drain_callbacks: List[Callable[[], None]] = []
        self._issue_period_ps = config.dlu_issue_cycles * config.system_clock_period_ps
        self._next_issue_ps = 0
        self._pump_scheduled = False
        self._bursts_per_bucket = config.bursts_per_bucket
        # Controllers without an address mapping (the QDR SRAM model) have
        # no banks: every lookup queues on bank 0.
        mapping = getattr(controller, "mapping", None)
        self._decompose = mapping.decompose if mapping is not None else None

        self.lu1_accepted = 0
        self.lu2_accepted = 0
        self.reads_issued = 0
        self.writes_issued = 0
        self.filter_blocks = 0
        self.max_lu1_pending = 0
        self.max_lu2_pending = 0
        self.bank_histogram = [0] * banks

        controller.on_drain(self._pump)

    # ------------------------------------------------------------------ #
    # Acceptance / backpressure
    # ------------------------------------------------------------------ #

    @property
    def pending_lookups(self) -> int:
        blocked = sum(len(items) for items in self._blocked.values())
        return self._lu1_depth - self.lu1_headroom + self._lu2_pending + blocked

    @property
    def busy(self) -> bool:
        return (
            self.pending_lookups > 0
            or bool(self._write_queue)
            or self.controller.busy
        )

    def on_lu1_drain(self, callback: Callable[[], None]) -> None:
        """Register a callback fired whenever LU1 queue space frees up."""
        self._drain_callbacks.append(callback)

    # ------------------------------------------------------------------ #
    # Bank Selector + Request Filter (lookup ingress)
    # ------------------------------------------------------------------ #

    def submit_lookup(self, job, lookup_num: int, address: int) -> bool:
        """Accept a lookup request (LU1 from the sequencer, LU2 redirected).

        LU1 requests respect the configured queue depth and may be refused;
        LU2 requests are always accepted so a descriptor already holding
        resources on the other path can never deadlock.
        """
        if lookup_num not in (1, 2):
            raise ValueError("lookup_num must be 1 or 2")
        if lookup_num == 1:
            if self.lu1_headroom <= 0:
                return False
            self.lu1_headroom -= 1
            self.lu1_accepted += 1
            lu1_pending = self._lu1_depth - self.lu1_headroom
            if lu1_pending > self.max_lu1_pending:
                self.max_lu1_pending = lu1_pending
        else:
            self._lu2_pending += 1
            self.lu2_accepted += 1
            if self._lu2_pending > self.max_lu2_pending:
                self.max_lu2_pending = self._lu2_pending

        bank = self._decompose(address)[0] if self._decompose is not None else 0
        pending = PendingLookup(job, lookup_num, address, bank)
        self.bank_histogram[bank % len(self.bank_histogram)] += 1

        if self.config.request_filter_enabled and address in self._blocked:
            self.filter_blocks += 1
            self._blocked[address].append(pending)
        else:
            self._enqueue(pending)
        self._pump()
        return True

    def _enqueue(self, pending: PendingLookup) -> None:
        if self.config.bank_select_enabled:
            self._bank_queues[pending.bank % len(self._bank_queues)].append(pending)
        else:
            # Bank selection disabled: everything funnels through queue 0 in
            # arrival order (the ablation case).
            self._bank_queues[0].append(pending)

    def _next_lookup(self) -> Optional[PendingLookup]:
        """Round-robin over non-empty bank queues (arrival order when the
        Bank Selector is disabled)."""
        queues = self._bank_queues
        count = len(queues)
        pointer = self._bank_pointer
        for index in chain(range(pointer, count), range(pointer)):
            if queues[index]:
                self._bank_pointer = (index + 1) % count
                return queues[index].popleft()
        return None

    # ------------------------------------------------------------------ #
    # Update ingress (from the Update block)
    # ------------------------------------------------------------------ #

    def submit_write_burst(self, writes: List[PendingWrite]) -> None:
        """Accept a batch of update writes from the Burst Write Generator.

        The batch is kept together so the controller sees consecutive write
        bursts — the behaviour Figure 3 motivates.
        """
        for write in writes:
            self._write_queue.append(write)
        self._pump()

    def block_address(self, address: int) -> None:
        """Request Filter: hold lookups to ``address`` until unblocked."""
        if not self.config.request_filter_enabled:
            return
        self._blocked.setdefault(address, [])

    def unblock_address(self, address: int) -> None:
        """Release lookups held for ``address`` (update completed)."""
        waiting = self._blocked.pop(address, None)
        if waiting:
            for pending in waiting:
                self._enqueue(pending)
        self._pump()

    # ------------------------------------------------------------------ #
    # Memory Control (egress to the DDR3 controller)
    # ------------------------------------------------------------------ #

    def _pump(self) -> None:
        controller = self.controller
        sim = self.sim
        write_queue = self._write_queue
        issued_any = False
        while controller.can_accept():
            # The Memory Control block presents at most one request to the
            # controller user interface every ``dlu_issue_cycles`` system
            # cycles; defer the rest of the work until that slot opens.
            now = sim._now
            if now < self._next_issue_ps:
                if not self._pump_scheduled:
                    self._pump_scheduled = True
                    sim.schedule_at(self._next_issue_ps, self._deferred_pump)
                break
            # Drain queued update writes first so they stay contiguous.
            if write_queue:
                write = write_queue.popleft()
                request = MemoryRequest(
                    MemoryOp.WRITE, write.address, write.bursts, self._on_write, write
                )
                if not controller.submit(request):
                    write_queue.appendleft(write)
                    break
                self.writes_issued += 1
                self._next_issue_ps = now + self._issue_period_ps
                issued_any = True
                continue

            pending = self._next_lookup()
            if pending is None:
                break
            request = MemoryRequest(
                MemoryOp.READ, pending.address, self._bursts_per_bucket, self._on_read, pending
            )
            if not controller.submit(request):
                # Put it back where it came from and stop for now.
                self._bank_queues[pending.bank % len(self._bank_queues)].appendleft(pending)
                break
            self.reads_issued += 1
            self._next_issue_ps = now + self._issue_period_ps
            issued_any = True
            if pending.lookup_num == 1:
                self.lu1_headroom += 1
            else:
                self._lu2_pending -= 1

        if issued_any:
            for callback in self._drain_callbacks:
                callback()

    def _deferred_pump(self) -> None:
        self._pump_scheduled = False
        self._pump()

    def _on_read(self, request: MemoryRequest, now_ps: int) -> None:
        pending = request.metadata
        self.on_bucket_data(pending.job, pending.lookup_num, now_ps)

    def _on_write(self, request: MemoryRequest, now_ps: int) -> None:
        write = request.metadata
        if write.callback is not None:
            write.callback(write.address, now_ps)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        return {
            "name": self.name,
            "lu1_accepted": self.lu1_accepted,
            "lu2_accepted": self.lu2_accepted,
            "reads_issued": self.reads_issued,
            "writes_issued": self.writes_issued,
            "filter_blocks": self.filter_blocks,
            "max_lu1_pending": self.max_lu1_pending,
            "max_lu2_pending": self.max_lu2_pending,
            "bank_histogram": list(self.bank_histogram),
        }
