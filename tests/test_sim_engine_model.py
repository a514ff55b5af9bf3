"""Model-based test of the discrete-event simulator's ordering contract.

A rule-based machine drives :class:`Simulator` and a sorted-list reference
with the same operations — ``schedule``, ``schedule_at``, ``cancel``,
``run(until_ps)``, ``run(max_events)``, ``step`` and ``peek_next_time`` —
and checks that both fire the same callbacks at the same times, return the
same counts and agree on ``now``, ``events_executed`` and
``pending_events``.  Times are drawn from a narrow range and priorities
include negatives, so same-time / same-priority FIFO ties are common; some
callbacks schedule a follow-up at ``now`` from inside the run.
"""

import bisect

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis.stateful import run_state_machine_as_test

from repro.sim.engine import Simulator

SETTINGS = settings(max_examples=60, stateful_step_count=25, deadline=None)

delays = st.integers(0, 6)
priorities = st.integers(-2, 2)
spawn = st.one_of(st.none(), priorities)


class ReferenceSimulator:
    """The engine's contract over a list kept sorted by (time, priority, seq)."""

    def __init__(self, fire) -> None:
        self.now = 0
        self.queue = []  # [time, priority, seq, label, cancelled] lists
        self.seq = 0
        self.events_executed = 0
        self.fire = fire

    def schedule_at(self, time_ps, label, priority):
        if time_ps < self.now:
            raise ValueError("past")
        entry = [time_ps, priority, self.seq, label, False]
        self.seq += 1
        bisect.insort(self.queue, entry, key=lambda e: (e[0], e[1], e[2]))
        return entry

    def _execute(self, entry):
        self.now = entry[0]
        self.fire(entry[3])
        self.events_executed += 1

    def run(self, until_ps=None, max_events=None):
        executed = 0
        while self.queue:
            head = self.queue[0]
            if until_ps is not None and head[0] > until_ps:
                self.now = max(self.now, until_ps)
                return executed
            if max_events is not None and executed >= max_events:
                return executed
            self.queue.pop(0)
            if head[4]:
                continue
            self._execute(head)
            executed += 1
        if until_ps is not None:
            self.now = max(self.now, until_ps)
        return executed

    def step(self):
        while self.queue:
            head = self.queue.pop(0)
            if not head[4]:
                self._execute(head)
                return True
        return False

    def peek_next_time(self):
        while self.queue and self.queue[0][4]:
            self.queue.pop(0)
        return self.queue[0][0] if self.queue else None


class SimulatorMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.sim = Simulator()
        self.ref = ReferenceSimulator(self._ref_fire)
        self.fired = []
        self.ref_fired = []
        self.handles = []  # [engine event, reference entry] pairs
        self.children = []  # follow-ups the engine scheduled, for the reference
        self.spawns = {}  # label -> priority of the follow-up it schedules at now
        self.labels = 0

    def _label(self, spawn_priority):
        label = self.labels
        self.labels += 1
        if spawn_priority is not None:
            self.spawns[label] = spawn_priority
        return label

    def _fire(self, label):
        self.fired.append((label, self.sim.now))
        if label in self.spawns:
            child = self._label(None)
            event = self.sim.schedule_at(self.sim.now, self._fire, child,
                                         priority=self.spawns[label])
            handle = [event, None]
            self.handles.append(handle)
            self.children.append((child, handle))

    def _ref_fire(self, label):
        # The engine ran first; its follow-ups are scheduled here in the
        # order the engine scheduled them.
        self.ref_fired.append((label, self.ref.now))
        if label in self.spawns:
            child, handle = self.children.pop(0)
            handle[1] = self.ref.schedule_at(self.ref.now, child, self.spawns[label])

    def _both(self, engine_call, ref_call):
        result = engine_call()
        assert ref_call() == result
        assert not self.children

    # -- rules ---------------------------------------------------------------

    @rule(delay=delays, priority=priorities, spawn_priority=spawn)
    def schedule(self, delay, priority, spawn_priority):
        label = self._label(spawn_priority)
        event = self.sim.schedule(delay, self._fire, label, priority=priority)
        entry = self.ref.schedule_at(self.ref.now + delay, label, priority)
        self.handles.append([event, entry])

    @rule(offset=delays, priority=priorities, spawn_priority=spawn)
    def schedule_at(self, offset, priority, spawn_priority):
        label = self._label(spawn_priority)
        event = self.sim.schedule_at(self.sim.now + offset, self._fire, label, priority=priority)
        entry = self.ref.schedule_at(self.ref.now + offset, label, priority)
        self.handles.append([event, entry])

    @rule(back=st.integers(1, 5))
    def schedule_in_the_past_raises(self, back):
        if self.sim.now >= back:
            with pytest.raises(ValueError):
                self.sim.schedule_at(self.sim.now - back, self._fire, -1)
        with pytest.raises(ValueError):
            self.sim.schedule(-back, self._fire, -1)

    @rule(pick=st.integers(0, 10_000))
    def cancel(self, pick):
        if self.handles:
            event, entry = self.handles[pick % len(self.handles)]
            event.cancel()
            entry[4] = True

    @rule(horizon=st.integers(0, 8))
    def run_until(self, horizon):
        until = self.sim.now + horizon
        self._both(lambda: self.sim.run(until_ps=until), lambda: self.ref.run(until_ps=until))

    @rule(count=st.integers(0, 4))
    def run_max_events(self, count):
        self._both(lambda: self.sim.run(max_events=count), lambda: self.ref.run(max_events=count))

    @rule()
    def run_to_idle(self):
        self._both(self.sim.run, self.ref.run)

    @rule()
    def step(self):
        self._both(self.sim.step, self.ref.step)

    @rule()
    def peek_next_time(self):
        assert self.sim.peek_next_time() == self.ref.peek_next_time()

    # -- invariants ----------------------------------------------------------

    @invariant()
    def agrees_with_the_reference(self):
        assert self.fired == self.ref_fired
        assert self.sim.now == self.ref.now
        assert self.sim.events_executed == self.ref.events_executed
        assert self.sim.pending_events == len(self.ref.queue)


def test_simulator_matches_the_sorted_list_reference():
    run_state_machine_as_test(SimulatorMachine, settings=SETTINGS)
