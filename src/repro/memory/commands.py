"""DRAM command set and the user-level memory request record."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple


class CommandType(enum.Enum):
    """JEDEC DDR3 commands modelled by the device."""

    ACTIVATE = "ACT"
    READ = "RD"
    WRITE = "WR"
    PRECHARGE = "PRE"
    REFRESH = "REF"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class MemoryOp(enum.Enum):
    """User-level operation carried by a :class:`MemoryRequest`."""

    READ = "read"
    WRITE = "write"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class Command:
    """A single DRAM command as issued on the command bus."""

    kind: CommandType
    bank: int
    row: int = 0
    column: int = 0
    issue_ps: int = 0


_request_ids = itertools.count()


@dataclass
class MemoryRequest:
    """A read or write of one or more consecutive bursts.

    Parameters
    ----------
    op: read or write.
    address: byte address within the memory set.
    bursts: number of consecutive BL-length bursts to transfer.
    callback: invoked as ``callback(request, complete_ps)`` when data is
        available (reads) or written (writes).
    metadata: opaque payload carried for the issuer (the DLU attaches the
        lookup request here).

    The controller fills in ``location`` — the address's ``(bank, row,
    column)`` — once, when it accepts the request, and the timing fields as
    the request issues and completes.
    """

    op: MemoryOp
    address: int
    bursts: int = 1
    callback: Optional[Callable[["MemoryRequest", int], None]] = None
    metadata: Any = None
    request_id: int = field(default_factory=_request_ids.__next__)

    submit_ps: Optional[int] = None
    issue_ps: Optional[int] = None
    complete_ps: Optional[int] = None
    row_hit: Optional[bool] = None
    location: Optional[Tuple[int, int, int]] = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError(f"address must be non-negative, got {self.address}")
        if self.bursts <= 0:
            raise ValueError(f"bursts must be positive, got {self.bursts}")

    @property
    def is_read(self) -> bool:
        return self.op is MemoryOp.READ

    @property
    def is_write(self) -> bool:
        return self.op is MemoryOp.WRITE

    @property
    def latency_ps(self) -> Optional[int]:
        """Submit-to-complete latency, once the request has finished."""
        if self.submit_ps is None or self.complete_ps is None:
            return None
        return self.complete_ps - self.submit_ps
