"""Clock-domain helpers.

Hardware models in this repository live in two clock domains, mirroring the
paper's prototype: a 200 MHz system clock driving the Flow LUT logic and a
DDR3 I/O clock (533 MHz for DDR3-1066 up to 800 MHz for DDR3-1600) driving the
memory devices.  :class:`Clock` converts between cycles and picoseconds and
aligns arbitrary times to clock edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PS_PER_SECOND = 1_000_000_000_000


@dataclass(frozen=True)
class Clock:
    """An ideal clock described by its frequency.

    Parameters
    ----------
    freq_hz:
        Clock frequency in hertz.
    name:
        Optional label used in reports.
    """

    freq_hz: float
    name: str = "clk"
    period_ps: int = field(init=False, repr=False, compare=False)
    """Clock period in picoseconds, rounded to the nearest integer (resolved
    once, at construction)."""

    def __post_init__(self) -> None:
        if self.freq_hz <= 0:
            raise ValueError(f"clock frequency must be positive, got {self.freq_hz}")
        object.__setattr__(self, "period_ps", max(1, round(PS_PER_SECOND / self.freq_hz)))

    @property
    def freq_mhz(self) -> float:
        return self.freq_hz / 1e6

    def cycles_to_ps(self, cycles: float) -> int:
        """Duration of ``cycles`` clock cycles, in picoseconds."""
        return int(round(cycles * self.period_ps))

    def ps_to_cycles(self, duration_ps: int) -> float:
        """Number of clock cycles spanned by ``duration_ps``."""
        return duration_ps / self.period_ps

    def next_edge(self, now_ps: int) -> int:
        """First clock edge at or after ``now_ps`` (edges at multiples of the period)."""
        period = self.period_ps
        remainder = now_ps % period
        if remainder == 0:
            return now_ps
        return now_ps + (period - remainder)

    def edge(self, index: int) -> int:
        """Absolute time of edge number ``index`` (edge 0 is time 0)."""
        if index < 0:
            raise ValueError("edge index must be non-negative")
        return index * self.period_ps


SYSTEM_CLOCK_200MHZ = Clock(200e6, name="sys_200mhz")
"""The Flow LUT system clock used by the paper's prototype."""
