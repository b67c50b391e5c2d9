"""Shared resources and queues for simulation processes.

:class:`Resource`
    A counted resource (e.g. QAT computation engines). Processes yield
    :meth:`Resource.request` to acquire a slot and call
    :meth:`Resource.release` when done. FIFO granting order.
    :meth:`Resource.try_acquire` takes a free slot with no event, for
    callers that would not have to wait.

:class:`Store`
    An unbounded-or-bounded FIFO item queue (e.g. hardware rings,
    notification queues). ``put`` blocks when full, ``get`` blocks when
    empty.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Optional

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Simulator

__all__ = ["Resource", "Store"]


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


class Store:
    """FIFO item queue with optional capacity bound."""

    def __init__(self, sim: "Simulator", capacity: Optional[int] = None,
                 name: str = "") -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()  # (event, item) pairs

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when the store is full.

        This models hardware ring submission: the caller sees the
        failure immediately and must retry later.
        """
        if self.is_full:
            return False
        self._items.append(item)
        self._wake_getter()
        return True

    def put(self, item: Any) -> Event:
        """Blocking put; the returned event fires once the item is stored."""
        ev = Event(self.sim, name=f"{self.name}-put")
        if not self.is_full and not self._putters:
            self._items.append(item)
            ev.succeed()
            self._wake_getter()
        else:
            self._putters.append((ev, item))
        return ev

    def try_get(self) -> Any:
        """Non-blocking get; returns None when empty."""
        if not self._items:
            return None
        item = self._items.popleft()
        self._admit_putter()
        return item

    def get(self) -> Event:
        """Blocking get; the event's value is the retrieved item."""
        ev = Event(self.sim, name=f"{self.name}-get")
        if self._items and not self._getters:
            ev.succeed(self._items.popleft())
            self._admit_putter()
        else:
            self._getters.append(ev)
        return ev

    def drain(self) -> list:
        """Remove and return all currently queued items."""
        items = list(self._items)
        self._items.clear()
        while self._putters and not self.is_full:
            self._admit_putter()
        return items

    # -- internal ----------------------------------------------------------

    def _wake_getter(self) -> None:
        while self._getters and self._items:
            g = self._getters.popleft()
            if g.cancelled:
                continue
            g.succeed(self._items.popleft())
            self._admit_putter()

    def _admit_putter(self) -> None:
        while self._putters and not self.is_full:
            p, item = self._putters.popleft()
            if p.cancelled:
                continue
            self._items.append(item)
            p.succeed()
            break
