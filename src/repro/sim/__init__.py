"""Event-driven simulation kernel used by every timed model in :mod:`repro`.

The kernel is intentionally small: an event queue keyed on integer picoseconds
(:class:`~repro.sim.engine.Simulator`), clock-domain helpers
(:class:`~repro.sim.clock.Clock`), and measurement utilities
(:mod:`repro.sim.stats`).

Time is always an ``int`` number of picoseconds.  Using integers keeps event
ordering exact across clock domains (200 MHz system clock, 533/667/800 MHz
DDR3 I/O clocks) without floating-point drift.
"""

from repro.sim.clock import Clock, PS_PER_SECOND
from repro.sim.engine import Event, Simulator
from repro.sim.rng import make_rng
from repro.sim.stats import Counter, Histogram, RateMeter, RunningStats

__all__ = [
    "Clock",
    "Counter",
    "Event",
    "Histogram",
    "PS_PER_SECOND",
    "RateMeter",
    "RunningStats",
    "Simulator",
    "make_rng",
]
