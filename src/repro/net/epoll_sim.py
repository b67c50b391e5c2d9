"""Event-based I/O multiplexing (the epoll of the simulated kernel).

``Epoll.wait`` is the blocking point of the event loop (paper section
2.2). File descriptors live in the kernel, so registering interest and
waking up cross the user/kernel boundary — the cost the kernel-bypass
notification scheme avoids for async crypto events (section 3.4).
CPU costs are charged by the caller through the provided core.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Optional

from .pollable import Pollable

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.kernel import Simulator

__all__ = ["Epoll", "NotifyFd", "EPOLL_WAIT_BASE_COST", "EPOLL_CTL_COST",
           "EPOLL_PER_EVENT_COST", "NOTIFY_FD_WRITE_COST",
           "NOTIFY_FD_READ_COST"]

#: Kernel work inside one epoll_wait call (beyond the mode switch).
EPOLL_WAIT_BASE_COST = 1.0e-6
#: Kernel work per readiness event reported.
EPOLL_PER_EVENT_COST = 0.2e-6
#: epoll_ctl(ADD/DEL) syscall work.
EPOLL_CTL_COST = 0.9e-6
#: eventfd write / read syscall work (FD-based async notification).
NOTIFY_FD_WRITE_COST = 0.7e-6
NOTIFY_FD_READ_COST = 0.7e-6


class Epoll:
    """A simulated epoll instance."""

    def __init__(self, sim: "Simulator", name: str = "epoll") -> None:
        self.sim = sim
        self.name = name
        # Watched fd -> registration number. Readiness is reported in
        # registration order, never in object-hash order, or runs lose
        # determinism.
        self._watched: Dict[Pollable, int] = {}
        self._registrations = 0
        # The readable subset of _watched, kept by the readiness hooks
        # so a wait touches only ready fds.
        self._ready: Dict[Pollable, None] = {}
        self._waiter = None  # pending wait event, if a process is blocked
        self.wait_calls = 0

    # -- registration (epoll_ctl) ------------------------------------------

    def register(self, p: Pollable) -> None:
        if p not in self._watched:
            self._registrations += 1
            self._watched[p] = self._registrations
        p._watchers[self] = None
        if p.readable:
            self._ready[p] = None

    def unregister(self, p: Pollable) -> None:
        self._watched.pop(p, None)
        self._ready.pop(p, None)
        p._watchers.pop(self, None)

    def is_registered(self, p: Pollable) -> bool:
        return p in self._watched

    # -- waiting ------------------------------------------------------------

    def _ready_list(self) -> List[Pollable]:
        return sorted(self._ready, key=self._watched.__getitem__)

    def _notify(self, p: Pollable) -> None:
        self._ready[p] = None
        if self._waiter is not None and not self._waiter.triggered:
            self._waiter.succeed()
        self._waiter = None

    def _cleared(self, p: Pollable) -> None:
        self._ready.pop(p, None)

    def wait(self, core, owner: object = None,
             timeout: Optional[float] = None) -> Generator:
        """Block until at least one watched fd is ready or ``timeout``
        elapses. Charges the mode switch + kernel work to ``core`` and
        settles the caller's CPU debt before reading readiness; the
        per-event charge stays owed into the caller's dispatch.

        Use as ``ready = yield from epoll.wait(core, ...)``.
        """
        self.wait_calls += 1
        core.kernel_crossing(extra=EPOLL_WAIT_BASE_COST)
        yield from core.settle()
        ready = self._ready_list()
        if not ready:
            sim = self.sim
            if timeout is not None and sim.advance_to(sim.now + timeout):
                # The timer would be the next event: nothing can become
                # ready before it fires.
                self._waiter = None
                return ready
            waiter = sim.event(name=f"{self.name}-wait")
            self._waiter = waiter
            if timeout is not None:
                timer = sim.timeout(timeout)
                yield sim.any_of([waiter, timer])
                if not timer.processed and not timer.triggered:
                    timer.cancel()
                if self._waiter is waiter:
                    self._waiter = None
            else:
                yield waiter
            # Waking up is the return from the blocked syscall.
            ready = self._ready_list()
        if ready:
            core.consume(EPOLL_PER_EVENT_COST * len(ready), owner=owner)
        return ready


class NotifyFd(Pollable):
    """An eventfd-like notification descriptor.

    The FD-based async notification scheme allocates one of these per
    TLS connection (shared across its jobs — the optimization in paper
    section 4.4) and writes to it from the response callback.
    Both ends pay syscalls; that is exactly the overhead the
    kernel-bypass scheme removes.
    """

    def __init__(self, sim: "Simulator", label: str = "asyncfd") -> None:
        super().__init__(sim)
        self.label = label

    def write_event(self) -> None:
        """Signal one event (the caller charges NOTIFY_FD_WRITE_COST
        and settles it first)."""
        if self.sim.debtor is not None:
            raise self.sim.unsettled(f"write to {self.label}")
        self._mark_readable()

    def read_events(self) -> None:
        """Consume all pending events (caller charges read cost)."""
        self._clear_readable()
