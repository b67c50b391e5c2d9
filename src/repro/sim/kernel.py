"""Deterministic discrete-event simulation kernel.

The :class:`Simulator` owns a binary-heap event calendar keyed by
``(time, priority, sequence)``; equal-time events are processed in the
order they were scheduled, which makes every run bit-reproducible for a
given seed (see :mod:`repro.sim.rng`).

The kernel is deliberately small: time, a heap, and event processing.
Higher-level behaviour (processes, resources, queues) is layered on top.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, Generator, List, Optional, Tuple

from .events import AnyOf, Event, Timeout
from .process import Process

__all__ = ["Simulator", "StopSimulation", "UnsettledDebt"]


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Simulator.run`."""


class UnsettledDebt(RuntimeError):
    """An act other processes can observe ran while the running process
    still owed CPU time it had not settled (see :mod:`repro.cpu.core`)."""


#: Priority for ordinary events.
NORMAL = 1
#: Priority used by ``run(until=...)`` sentinels so that the stop event
#: is handled after same-time normal events.
LOW = 2


class Simulator:
    """A discrete-event simulator with simulated seconds as time unit."""

    def __init__(self) -> None:
        #: Current simulated time in seconds. A plain attribute that
        #: only the kernel writes (:meth:`step`, :meth:`advance_to`);
        #: every other layer reads it.
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._seq = count()
        #: Optional request-lifecycle tracer (a
        #: :class:`repro.obs.tracer.RequestTracer`). The kernel never
        #: touches it; it lives here so every layer holding a sim
        #: reference can reach the same tracer. None = tracing off.
        self.obs = None
        #: Per-world id streams for the layers above the kernel:
        #: simulated file descriptors (0-2 are "stdio") and QAT request
        #: ids. Two worlds built in one process number alike.
        self.fd_ids = count(3)
        self.request_ids = count(1)
        #: The process the kernel resumed last (the running one, while
        #: a process runs). Named by :meth:`unsettled`.
        self.active_process: Optional[Process] = None
        #: The core holding the running process's unsettled CPU debt
        #: (a :class:`repro.cpu.core.Core`), or None when it owes
        #: nothing. Set and cleared by the core; the kernel checks it
        #: when a process yields or returns, and has it ``forfeit()``
        #: the debt when a process dies by an exception.
        self.debtor = None
        #: True while :meth:`step` runs the only callback of the event
        #: it popped: what :meth:`advance_to` needs to skip a Timeout.
        self._alone = False

    # -- event factories ---------------------------------------------------

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        return Timeout(self, delay, value, name)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Spawn a new process running ``gen``."""
        return Process(self, gen, name=name)

    def any_of(self, events) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0,
                  priority: int = NORMAL) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        heappush(self._heap, (self.now + delay, priority,
                              next(self._seq), event))

    def call_at(self, when: float, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` at absolute simulated time ``when``."""
        if when < self.now:
            raise ValueError(f"call_at({when}) is in the past (now={self.now})")
        ev = self.timeout(when - self.now)
        ev.callbacks.append(lambda _e: fn())
        return ev

    def timeout_at(self, when: float) -> Event:
        """An event that fires at absolute time ``when``, bit for bit.

        ``timeout(when - now)`` lands exactly on ``when`` whenever
        ``when <= 2 * now`` (the subtraction is then exact), and that
        ordinary Timeout is returned; otherwise the event is pushed at
        ``when`` directly."""
        now = self.now
        delay = when - now
        if delay < 0:
            raise ValueError(f"timeout_at({when}) is in the past (now={now})")
        if now + delay == when:
            return Timeout(self, delay)
        ev = Event(self)
        ev._value = None
        heappush(self._heap, (when, NORMAL, next(self._seq), ev))
        return ev

    def advance_to(self, when: float) -> bool:
        """Move ``now`` to ``when`` in place of a Timeout the running
        process would push and wait on, when that Timeout is provably
        the next event processed: the kernel is running the only
        callback of the event it popped, and the calendar's head is
        strictly later than ``when`` (or the calendar is empty).
        Returns whether it moved; on False the caller schedules its
        Timeout as usual. Skipping the push, pop and resume moves no
        simulated time, event order or random draw."""
        if not self._alone:
            return False
        heap = self._heap
        if heap and heap[0][0] <= when:
            return False
        if when < self.now:
            raise ValueError(f"advance_to({when}) is in the past "
                             f"(now={self.now})")
        self.now = when
        return True

    def hold(self, delay: float) -> tuple:
        """Wait ``delay`` seconds: ``yield from sim.hold(delay)``. The
        wait is :meth:`advance_to` when that applies (an empty tuple,
        so nothing is yielded), else one Timeout. A process owing CPU
        time gets the Timeout, so the kernel's UnsettledDebt guard
        fails it on the yield."""
        if self.debtor is None and self.advance_to(self.now + delay):
            return ()
        return (Timeout(self, delay),)

    def unsettled(self, act: str) -> UnsettledDebt:
        """The error for ``act`` made while :attr:`debtor` is set."""
        proc = self.active_process
        name = proc.name if proc is not None else None
        return UnsettledDebt(
            f"{act} at t={self.now!r} in process {name!r} with CPU "
            f"debt unsettled on {self.debtor!r}")

    # -- execution -----------------------------------------------------------

    def step(self) -> None:
        """Process one event: run its callbacks, exactly once, unless it
        was cancelled. Raises IndexError when the calendar is empty."""
        when, _prio, _seq, event = heappop(self._heap)
        if event._cancelled:
            return
        self.now = when
        callbacks, event.callbacks = event.callbacks, None
        if len(callbacks) == 1:
            self._alone = True
            try:
                callbacks[0](event)
            finally:
                self._alone = False
        else:
            for cb in callbacks:
                cb(event)
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
            if horizon < self.now:
                raise ValueError(f"until={horizon} is in the past")
            sentinel = Event(self, name="run-until")
            sentinel._value = None
            self._schedule(sentinel, horizon - self.now, priority=LOW)
            sentinel.callbacks.append(self._stop_on_event)
            stop_event = sentinel

        # Every event goes through step(): the host benchmark counts its
        # calls as the number of processed events.
        heap, step = self._heap, self.step
        try:
            while heap:
                step()
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
