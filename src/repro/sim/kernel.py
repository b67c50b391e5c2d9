"""Deterministic discrete-event simulation kernel.

The :class:`Simulator` owns a binary-heap event calendar keyed by
``(time, priority, sequence)``; equal-time events are processed in the
order they were scheduled, which makes every run bit-reproducible for a
given seed (see :mod:`repro.sim.rng`).

The kernel is deliberately small: time, a heap, and event processing.
Higher-level behaviour (processes, resources, queues) is layered on top.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Callable, Generator, List, Optional, Tuple

from .events import AllOf, AnyOf, Event, Timeout
from .process import Process

__all__ = ["Simulator", "StopSimulation"]


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Simulator.run`."""


#: Priority for ordinary events.
NORMAL = 1
#: Priority used by ``run(until=...)`` sentinels so that the stop event
#: is handled after same-time normal events.
LOW = 2


class Simulator:
    """A discrete-event simulator with simulated seconds as time unit."""

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._seq = count()
        #: Optional request-lifecycle tracer (a
        #: :class:`repro.obs.tracer.RequestTracer`). The kernel never
        #: touches it; it lives here so every layer holding a sim
        #: reference can reach the same tracer. None = tracing off.
        self.obs = None

    # -- time ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event factories ---------------------------------------------------

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        return Timeout(self, delay, value=value, name=name)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Spawn a new process running ``gen``."""
        return Process(self, gen, name=name)

    def any_of(self, events) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events) -> AllOf:
        return AllOf(self, events)

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0,
                  priority: int = NORMAL) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        heapq.heappush(self._heap, (self._now + delay, priority,
                                    next(self._seq), event))

    def call_at(self, when: float, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` at absolute simulated time ``when``."""
        if when < self._now:
            raise ValueError(f"call_at({when}) is in the past (now={self._now})")
        ev = self.timeout(when - self._now)
        ev.callbacks.append(lambda _e: fn())
        return ev

    def call_in(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` after ``delay`` simulated seconds."""
        ev = self.timeout(delay)
        ev.callbacks.append(lambda _e: fn())
        return ev

    # -- execution -----------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process one event. Raises IndexError when the calendar is empty."""
        when, _prio, _seq, event = heapq.heappop(self._heap)
        if event.cancelled:
            return
        self._now = when
        event._process()
        if event._exc is not None and not event._defused:
            raise event._exc

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the calendar empties, ``until`` time passes, or the
        given event triggers (returning its value)."""
        stop_event: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if not stop_event.processed:
                assert stop_event.callbacks is not None
                stop_event.callbacks.append(self._stop_on_event)
        else:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError(f"until={horizon} is in the past")
            sentinel = Event(self, name="run-until")
            sentinel._value = None
            self._schedule(sentinel, horizon - self._now, priority=LOW)
            sentinel.callbacks.append(self._stop_on_event)
            stop_event = sentinel

        try:
            while self._heap:
                self.step()
            # Calendar drained. Running past a time horizon is normal
            # (the workload simply ended early); draining while waiting
            # for a specific event is a deadlock in the model.
            if (isinstance(until, Event) and stop_event is not None
                    and not stop_event.triggered):
                raise RuntimeError(
                    "simulation ran out of events before the awaited "
                    f"event {until!r} triggered (deadlock?)")
        except StopSimulation:
            pass

        if isinstance(until, Event):
            return until.value if until.triggered else None
        return None

    @staticmethod
    def _stop_on_event(_event: Event) -> None:
        raise StopSimulation()
