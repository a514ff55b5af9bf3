"""Multi-bank DDR3 device model.

The device is a *reservation* model: callers ask it to perform a read or
write of one or more bursts to a (bank, row, column) location, and the device
computes the earliest legal time for every command in the sequence given the
JEDEC constraints and the commands reserved so far.  This captures exactly the
effects the paper's architecture exploits and suffers from:

* row hits are cheap, row conflicts pay the row cycle time (tRC);
* activates to *different* banks can overlap another bank's data transfer,
  which is what the DLU's Bank Selector banks on (Section IV-A);
* read↔write bus turnaround wastes DQ cycles, which is why the Update block's
  Burst Write Generator batches writes (Section IV-B, Figure 3);
* the DQ bus carries BL/2 clock cycles of data per burst, so utilisation can
  be accounted exactly (Figure 3).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, NamedTuple, Optional

from repro.memory.bank import Bank
from repro.memory.commands import Command, CommandType, MemoryOp
from repro.memory.timing import DDR3Geometry, DDR3Timing

_READ = MemoryOp.READ


class AccessResult(NamedTuple):
    """Timing of one reserved access (possibly multiple consecutive bursts).

    The reservation records when each command issues; :attr:`commands`
    spells them out as :class:`Command` records on demand.  Consecutive
    bursts issue ``burst_spacing_ps`` apart (tCCD) and advance the column
    by ``burst_columns`` (BL).
    """

    op: MemoryOp
    bank: int
    row: int
    row_hit: bool
    first_command_ps: int
    cas_ps: int
    data_start_ps: int
    data_end_ps: int
    complete_ps: int
    column: int
    bursts: int
    burst_spacing_ps: int
    burst_columns: int
    precharge_ps: Optional[int]
    """PRECHARGE closing a conflicting row before the ACTIVATE (else ``None``)."""
    activate_ps: Optional[int]
    """ACTIVATE of ``row`` (``None`` on a row hit)."""
    close_ps: Optional[int]
    """Auto-precharge closing the row after the access (closed page only)."""

    @property
    def commands(self) -> List[Command]:
        """The issued commands in order: [PRE], [ACT], one CAS per burst, [PRE]."""
        bank = self.bank
        commands: List[Command] = []
        if self.precharge_ps is not None:
            commands.append(Command(CommandType.PRECHARGE, bank, issue_ps=self.precharge_ps))
        if self.activate_ps is not None:
            commands.append(
                Command(CommandType.ACTIVATE, bank, row=self.row, issue_ps=self.activate_ps)
            )
        cas_kind = CommandType.READ if self.op is _READ else CommandType.WRITE
        for i in range(self.bursts):
            commands.append(
                Command(
                    cas_kind,
                    bank,
                    row=self.row,
                    column=self.column + i * self.burst_columns,
                    issue_ps=self.cas_ps + i * self.burst_spacing_ps,
                )
            )
        if self.close_ps is not None:
            commands.append(Command(CommandType.PRECHARGE, bank, issue_ps=self.close_ps))
        return commands


class DDR3Device:
    """One DDR3 memory set (a rank of devices behind one controller).

    Parameters
    ----------
    timing: speed-grade timing parameters.
    geometry: bank/row/column organisation and data-bus width.
    auto_precharge: when ``True`` every access closes its row afterwards
        (closed-page); when ``False`` rows stay open until a conflict or a
        refresh closes them (open-page).
    refresh_enabled: model periodic REFRESH commands (tREFI / tRFC).

    Every timing constraint is converted to picoseconds once, here; the
    reservation path only adds and compares integers.
    """

    def __init__(
        self,
        timing: DDR3Timing,
        geometry: DDR3Geometry,
        auto_precharge: bool = False,
        refresh_enabled: bool = True,
    ) -> None:
        self.timing = timing
        self.geometry = geometry
        self.auto_precharge = auto_precharge
        self.refresh_enabled = refresh_enabled

        ps = timing.ps
        self._t_rc = ps(timing.t_rc)
        self._t_rrd = ps(timing.t_rrd)
        self._t_faw = ps(timing.t_faw)
        self._t_ccd = ps(timing.t_ccd)
        self._t_rp = ps(timing.t_rp)
        self._t_rcd = ps(timing.t_rcd)
        self._t_ras = ps(timing.t_ras)
        self._t_rtp = ps(timing.t_rtp)
        self._t_rfc = ps(timing.t_rfc)
        self._t_refi = ps(timing.t_refi)
        self._write_to_read = ps(timing.write_to_read)
        self._read_to_write = ps(timing.read_to_write)
        self._write_to_precharge = ps(timing.write_to_precharge)
        self._read_latency = ps(timing.read_latency)
        self._write_latency = ps(timing.write_latency)
        self._burst = ps(timing.burst_cycles)

        self.banks = [Bank(index=i) for i in range(geometry.banks)]
        self._last_activate_any_ps = -(10**18)
        self._activate_window: Deque[int] = deque(maxlen=4)
        self._last_read_cas_ps = -(10**18)
        self._last_write_cas_ps = -(10**18)
        self._last_cas_ps = -(10**18)
        self._next_refresh_ps = self._t_refi if refresh_enabled else None

        self.data_bus_busy_ps = 0
        self.first_activity_ps: Optional[int] = None
        self.last_activity_ps: int = 0
        self.reads = 0
        self.writes = 0
        self.refreshes = 0
        self.row_hits = 0
        self.row_conflicts = 0
        self.row_empty = 0

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #

    def _maybe_refresh(self, now_ps: int) -> int:
        """Perform any overdue refreshes; returns the earliest time normal
        commands may resume."""
        if self._next_refresh_ps is None:
            return now_ps
        resume = now_ps
        while self._next_refresh_ps <= resume:
            # All banks must be precharged before REFRESH; model this by
            # starting the refresh once every bank could have been precharged.
            start = max(
                resume,
                self._next_refresh_ps,
                max(bank.precharge_allowed_ps for bank in self.banks),
            )
            end = start + self._t_rfc
            for bank in self.banks:
                bank.open_row = None
                bank.activate_allowed_ps = max(bank.activate_allowed_ps, end)
                bank.cas_allowed_ps = max(bank.cas_allowed_ps, end)
                bank.precharge_allowed_ps = max(bank.precharge_allowed_ps, end)
            self.refreshes += 1
            self._next_refresh_ps += self._t_refi
            resume = end
        return resume

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def access(
        self,
        op: MemoryOp,
        bank_index: int,
        row: int,
        column: int,
        now_ps: int,
        bursts: int = 1,
    ) -> AccessResult:
        """Reserve a read or write of ``bursts`` consecutive bursts.

        Returns the full command/data timing.  The device state is updated so
        subsequent calls observe this reservation.
        """
        if not 0 <= bank_index < self.geometry.banks:
            raise ValueError(f"bank {bank_index} out of range 0..{self.geometry.banks - 1}")
        if not 0 <= row < self.geometry.rows:
            raise ValueError(f"row {row} out of range 0..{self.geometry.rows - 1}")
        if bursts <= 0:
            raise ValueError("bursts must be positive")

        bank = self.banks[bank_index]
        next_refresh = self._next_refresh_ps
        if next_refresh is not None and next_refresh <= now_ps:
            now_ps = self._maybe_refresh(now_ps)

        open_row = bank.open_row
        precharge_ps = activate_ps = None
        if open_row == row:
            self.row_hits += 1
            bank.row_hits += 1
            cas_earliest = bank.cas_allowed_ps
            if now_ps > cas_earliest:
                cas_earliest = now_ps
        else:
            if open_row is not None:
                self.row_conflicts += 1
                bank.row_conflicts += 1
                precharge_ps = bank.precharge_allowed_ps
                if now_ps > precharge_ps:
                    precharge_ps = now_ps
                bank.open_row = None
                bank.precharges += 1
                act_ps = precharge_ps + self._t_rp
            else:
                self.row_empty += 1
                bank.row_empty += 1
                act_ps = now_ps
            # tRC (same bank), tRRD (any bank) and tFAW (four-activate window).
            if bank.activate_allowed_ps > act_ps:
                act_ps = bank.activate_allowed_ps
            floor = bank.last_activate_ps + self._t_rc
            if floor > act_ps:
                act_ps = floor
            floor = self._last_activate_any_ps + self._t_rrd
            if floor > act_ps:
                act_ps = floor
            window = self._activate_window
            if len(window) == 4:
                floor = window[0] + self._t_faw
                if floor > act_ps:
                    act_ps = floor
            activate_ps = act_ps
            bank.open_row = row
            bank.last_activate_ps = act_ps
            bank.activates += 1
            self._last_activate_any_ps = act_ps
            window.append(act_ps)
            cas_earliest = act_ps + self._t_rcd
            if cas_earliest > bank.cas_allowed_ps:
                bank.cas_allowed_ps = cas_earliest
            # tRAS lower-bounds the following precharge.
            floor = act_ps + self._t_ras
            if floor > bank.precharge_allowed_ps:
                bank.precharge_allowed_ps = floor

        # tCCD after the last CAS, and the bus turnaround after the last CAS
        # of the other direction.  Later bursts follow tCCD apart.
        if bank.cas_allowed_ps > cas_earliest:
            cas_earliest = bank.cas_allowed_ps
        t_ccd = self._t_ccd
        is_read = op is _READ
        if is_read:
            latency = self._read_latency
            floor = self._last_write_cas_ps + self._write_to_read
        else:
            latency = self._write_latency
            floor = self._last_read_cas_ps + self._read_to_write
        first_cas_ps = self._last_cas_ps + t_ccd
        if floor > first_cas_ps:
            first_cas_ps = floor
        if cas_earliest > first_cas_ps:
            first_cas_ps = cas_earliest
        last_cas_ps = first_cas_ps + (bursts - 1) * t_ccd

        data_start_ps = first_cas_ps + latency
        data_end_ps = last_cas_ps + latency + self._burst
        self.data_bus_busy_ps += bursts * self._burst
        if self.first_activity_ps is None:
            self.first_activity_ps = data_start_ps
        if data_end_ps > self.last_activity_ps:
            self.last_activity_ps = data_end_ps

        if precharge_ps is not None:
            first_command_ps = precharge_ps
        elif activate_ps is not None:
            first_command_ps = activate_ps
        else:
            first_command_ps = first_cas_ps
        if first_command_ps > first_cas_ps:
            first_command_ps = first_cas_ps

        # Update global CAS trackers.
        self._last_cas_ps = last_cas_ps
        if is_read:
            self._last_read_cas_ps = last_cas_ps
            self.reads += bursts
            floor = last_cas_ps + self._t_rtp
        else:
            self._last_write_cas_ps = last_cas_ps
            self.writes += bursts
            floor = last_cas_ps + self._write_to_precharge
        if floor > bank.precharge_allowed_ps:
            bank.precharge_allowed_ps = floor
        floor = last_cas_ps + t_ccd
        if floor > bank.cas_allowed_ps:
            bank.cas_allowed_ps = floor

        close_ps = None
        if self.auto_precharge:
            close_ps = bank.precharge_allowed_ps
            bank.open_row = None
            bank.precharges += 1
            floor = close_ps + self._t_rp
            if floor > bank.activate_allowed_ps:
                bank.activate_allowed_ps = floor

        return AccessResult(
            op,
            bank_index,
            row,
            activate_ps is None,
            first_command_ps,
            first_cas_ps,
            data_start_ps,
            data_end_ps,
            data_end_ps,
            column,
            bursts,
            t_ccd,
            self.timing.bl,
            precharge_ps,
            activate_ps,
            close_ps,
        )

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #

    @property
    def observed_window_ps(self) -> int:
        """Span between the first and last DQ-bus activity."""
        if self.first_activity_ps is None:
            return 0
        return self.last_activity_ps - self.first_activity_ps

    def dq_utilisation(self, window_ps: Optional[int] = None) -> float:
        """Fraction of the window during which the DQ bus carried data."""
        window = self.observed_window_ps if window_ps is None else window_ps
        if window <= 0:
            return 0.0
        return min(1.0, self.data_bus_busy_ps / window)

    def open_row(self, bank_index: int) -> Optional[int]:
        """Currently open row in ``bank_index`` (``None`` when precharged)."""
        return self.banks[bank_index].open_row

    def stats(self) -> dict:
        return {
            "timing": self.timing.name,
            "reads": self.reads,
            "writes": self.writes,
            "refreshes": self.refreshes,
            "row_hits": self.row_hits,
            "row_empty": self.row_empty,
            "row_conflicts": self.row_conflicts,
            "data_bus_busy_ps": self.data_bus_busy_ps,
            "observed_window_ps": self.observed_window_ps,
            "dq_utilisation": self.dq_utilisation(),
        }
