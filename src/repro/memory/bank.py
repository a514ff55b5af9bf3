"""Per-bank state tracked by the DDR3 device model."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class BankState(enum.Enum):
    """Simplified bank state: a bank either has a row open or it does not."""

    IDLE = "idle"
    ACTIVE = "active"


@dataclass
class Bank:
    """Timing state of one DRAM bank.

    All ``*_ps`` fields are absolute simulation times (picoseconds) describing
    the earliest instant at which the named command may legally be issued to
    this bank, given the commands issued so far.
    """

    index: int
    open_row: Optional[int] = None
    activate_allowed_ps: int = 0
    cas_allowed_ps: int = 0
    precharge_allowed_ps: int = 0
    last_activate_ps: int = -(10**18)

    activates: int = field(default=0)
    precharges: int = field(default=0)
    row_hits: int = field(default=0)
    row_conflicts: int = field(default=0)
    row_empty: int = field(default=0)

    @property
    def state(self) -> BankState:
        return BankState.ACTIVE if self.open_row is not None else BankState.IDLE

    def stats(self) -> dict:
        return {
            "bank": self.index,
            "activates": self.activates,
            "precharges": self.precharges,
            "row_hits": self.row_hits,
            "row_empty": self.row_empty,
            "row_conflicts": self.row_conflicts,
        }
