"""Measurement utilities: counters, rates, histograms and running statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.sim.clock import PS_PER_SECOND


def busiest_over_mean(loads: Iterable[float]) -> float:
    """The busiest member's load over the mean (1.0 means perfectly even).

    With nothing loaded there is no ratio to take, so the figure is defined
    as 0.0 — never a division error or NaN.
    """
    loads = list(loads)
    total = sum(loads)
    if total <= 0:
        return 0.0
    return max(loads) * len(loads) / total


class Counter:
    """A named monotonically increasing counter."""

    def __init__(self, name: str = "counter") -> None:
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a separate counter for decrements")
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class RateMeter:
    """Converts an event count over simulated time into a rate.

    The paper reports processing rates in "Mdesc/s" (million descriptors per
    second); :meth:`rate_per_second` divided by 1e6 gives that unit directly.
    """

    def __init__(self, name: str = "rate") -> None:
        self.name = name
        self.events = 0
        self.start_ps: Optional[int] = None
        self.end_ps: Optional[int] = None

    def record(self, time_ps: int, count: int = 1) -> None:
        """Record ``count`` events occurring at ``time_ps``."""
        if self.start_ps is None:
            self.start_ps = time_ps
        self.end_ps = time_ps
        self.events += count

    @property
    def elapsed_ps(self) -> int:
        if self.start_ps is None or self.end_ps is None:
            return 0
        return self.end_ps - self.start_ps

    def rate_per_second(self, elapsed_ps: Optional[int] = None) -> float:
        """Events per second over ``elapsed_ps`` (defaults to observed span)."""
        span = self.elapsed_ps if elapsed_ps is None else elapsed_ps
        if span <= 0:
            return 0.0
        return self.events * PS_PER_SECOND / span

    def rate_mega_per_second(self, elapsed_ps: Optional[int] = None) -> float:
        """Events per second in millions (the paper's Mdesc/s unit)."""
        return self.rate_per_second(elapsed_ps) / 1e6


class RunningStats:
    """Streaming mean / variance / min / max (Welford's algorithm)."""

    def __init__(self, name: str = "stats") -> None:
        self.name = name
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def record(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "stddev": self.stddev,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
        }


@dataclass
class Histogram:
    """Fixed-width bucket histogram for latency/occupancy distributions."""

    bucket_width: float
    name: str = "histogram"
    buckets: Dict[int, int] = field(default_factory=dict)
    total: int = 0

    def record(self, value: float) -> None:
        if self.bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        index = int(value // self.bucket_width)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.total += 1

    def percentile(self, fraction: float) -> float:
        """Upper edge of the bucket containing the requested percentile."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        if self.total == 0:
            return 0.0
        target = fraction * self.total
        cumulative = 0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= target:
                return (index + 1) * self.bucket_width
        last = max(self.buckets)
        return (last + 1) * self.bucket_width

    def as_sorted_items(self) -> List[tuple]:
        return [(index * self.bucket_width, count) for index, count in sorted(self.buckets.items())]
