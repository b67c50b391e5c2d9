"""Shared resources for simulation processes.

:class:`Resource`
    A counted resource (e.g. QAT computation engines). Processes yield
    :meth:`Resource.request` to acquire a slot and call
    :meth:`Resource.release` when done. FIFO granting order.
    :meth:`Resource.try_acquire` takes a free slot with no event, for
    callers that would not have to wait.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Simulator

__all__ = ["Resource"]


class Resource:
    """A counted resource with FIFO request granting."""

    def __init__(self, sim: "Simulator", capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._req_name = f"{name}-req"
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def try_acquire(self) -> bool:
        """Take a slot now, without an event, if one is free and no live
        waiter is queued ahead; return whether a slot was taken."""
        waiters = self._waiters
        while waiters and waiters[0]._cancelled:
            waiters.popleft()
        if self._in_use < self.capacity and not waiters:
            self._in_use += 1
            return True
        return False

    def request(self) -> Event:
        """Return an event that fires when a slot is granted."""
        ev = Event(self.sim, self._req_name)
        if self.try_acquire():
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Release one previously granted slot."""
        if self._in_use <= 0:
            raise RuntimeError(f"release() on idle resource {self.name!r}")
        # Hand the slot directly to the next non-cancelled waiter.
        while self._waiters:
            nxt = self._waiters.popleft()
            if not nxt._cancelled:
                nxt.succeed()
                return
        self._in_use -= 1

