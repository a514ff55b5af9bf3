"""Discrete-event simulation engine with integer-picosecond timestamps."""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Optional


class Event:
    """A scheduled callback, and the handle that cancels it.

    The simulator orders events by ``(time_ps, priority, sequence)``: its
    heap holds ``(time_ps, priority, sequence, event)`` tuples, so the
    ordering is compared in C and never reaches the event.  The sequence
    number guarantees FIFO ordering between events scheduled for the same
    instant with the same priority, which keeps the simulation deterministic.
    """

    __slots__ = ("time_ps", "callback", "args", "cancelled")

    def __init__(self, time_ps: int, callback: Callable[..., None], args: tuple = ()) -> None:
        self.time_ps = time_ps
        self.callback = callback
        self.args = args
        self.cancelled = False

    def __repr__(self) -> str:
        return f"Event(time_ps={self.time_ps}, cancelled={self.cancelled})"

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        self.cancelled = True


class Simulator:
    """A minimal discrete-event simulator.

    Components schedule callbacks at absolute or relative times.  The
    simulator advances time only when :meth:`run` (or one of its variants)
    is called, executing callbacks in timestamp order.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> handle = sim.schedule(1_000, fired.append, "a")
    >>> _ = sim.schedule(500, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    1000
    """

    def __init__(self) -> None:
        self._now: int = 0
        self._queue: list[tuple[int, int, int, Event]] = []
        self._sequence = itertools.count()
        self._events_executed = 0

    @property
    def now(self) -> int:
        """Current simulation time in picoseconds."""
        return self._now

    @property
    def now_ns(self) -> float:
        """Current simulation time in nanoseconds (for reporting only)."""
        return self._now / 1_000.0

    @property
    def events_executed(self) -> int:
        """Number of callbacks executed so far."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)

    def schedule_at(
        self,
        time_ps: int,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time_ps``."""
        if time_ps < self._now:
            raise ValueError(
                f"cannot schedule event in the past: {time_ps} < now {self._now}"
            )
        time_ps = int(time_ps)
        event = Event(time_ps, callback, args)
        heappush(self._queue, (time_ps, priority, next(self._sequence), event))
        return event

    def schedule(
        self,
        delay_ps: int,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` after a relative delay in picoseconds."""
        if delay_ps < 0:
            raise ValueError(f"delay must be non-negative, got {delay_ps}")
        time_ps = self._now + int(delay_ps)
        event = Event(time_ps, callback, args)
        heappush(self._queue, (time_ps, priority, next(self._sequence), event))
        return event

    def run(self, until_ps: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run until the event queue drains, ``until_ps`` is reached, or
        ``max_events`` callbacks have executed.

        Returns the number of events executed by this call.  When ``until_ps``
        is given and the queue still holds later events, simulation time is
        advanced exactly to ``until_ps``.
        """
        queue = self._queue
        bounded = until_ps is not None or max_events is not None
        executed = 0
        while queue:
            if bounded:
                if until_ps is not None and queue[0][0] > until_ps:
                    if until_ps > self._now:
                        self._now = until_ps
                    return executed
                if max_events is not None and executed >= max_events:
                    return executed
            time_ps, _, _, event = heappop(queue)
            if event.cancelled:
                continue
            self._now = time_ps
            event.callback(*event.args)
            self._events_executed += 1
            executed += 1
        if until_ps is not None and until_ps > self._now:
            self._now = until_ps
        return executed

    def step(self) -> bool:
        """Execute exactly one (non-cancelled) event.  Returns ``False`` when idle."""
        queue = self._queue
        while queue:
            time_ps, _, _, event = heappop(queue)
            if event.cancelled:
                continue
            self._now = time_ps
            event.callback(*event.args)
            self._events_executed += 1
            return True
        return False

    def peek_next_time(self) -> Optional[int]:
        """Timestamp of the next pending event, or ``None`` when idle."""
        queue = self._queue
        while queue and queue[0][3].cancelled:
            heappop(queue)
        return queue[0][0] if queue else None
