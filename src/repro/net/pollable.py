"""Pollable objects: the file-descriptor abstraction of the simulated
kernel. Sockets, listeners and notification FDs are pollable; the
epoll model watches them."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.events import Event
    from ..sim.kernel import Simulator

__all__ = ["Pollable", "wait_readable"]


class Pollable:
    """Base class for things an epoll can watch."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.fd = next(sim.fd_ids)
        self._readable = False
        # Insertion-ordered (dict-as-set) for deterministic wakeups.
        self._watchers: Dict[object, None] = {}  # Epolls / one-shot waiters

    @property
    def readable(self) -> bool:
        return self._readable

    def _mark_readable(self) -> None:
        # Watchers are notified even when already readable, in case a
        # waiter registered after the previous notification. A snapshot
        # lets one-shot waiters unregister themselves while notified.
        self._readable = True
        for watcher in list(self._watchers):
            watcher._notify(self)

    def _clear_readable(self) -> None:
        self._readable = False
        for watcher in self._watchers:
            watcher._cleared(self)


class _Waiter:
    """One-shot watcher: fires its event on the first notification and
    unregisters itself."""

    __slots__ = ("event",)

    def __init__(self, event: "Event") -> None:
        self.event = event

    def _notify(self, pollable: Pollable) -> None:
        pollable._watchers.pop(self, None)
        if not self.event.triggered:
            self.event.succeed()

    def _cleared(self, pollable: Pollable) -> None:
        pass


def wait_readable(sim, pollable: Pollable):
    """Return an event that fires when ``pollable`` becomes readable.

    A lightweight one-shot watcher for client processes (which do not
    model kernel/epoll costs — client machines are not the system
    under test).
    """
    event = sim.event()
    if pollable.readable:
        event.succeed()
        return event
    pollable._watchers[_Waiter(event)] = None
    return event
