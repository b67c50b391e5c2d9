"""Interrupt-driven response retrieval (the road not taken).

Section 3.3: "QAT responses can be retrieved through either interrupt
or polling. QTLS leverages userspace I/O ... where one userspace-based
polling operation has much less overhead than one kernel-based
interrupt. Therefore, QTLS selects polling."

This module implements the interrupt alternative so that choice can be
measured: each response batch raises a hardware interrupt, whose
service path (IRQ entry, kernel handler, wakeup) costs a full kernel
crossing plus handler work on the worker's core — far more than a
userspace ring poll.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...offload.engine import AsyncOffloadEngine

if TYPE_CHECKING:  # pragma: no cover
    from ...sim.kernel import Simulator

__all__ = ["InterruptRetriever", "IRQ_SERVICE_COST"]

#: Kernel work per interrupt beyond the mode switch: IRQ entry/exit,
#: the driver's top/bottom half, and the process wakeup.
IRQ_SERVICE_COST = 3.5e-6

#: The hardware coalesces interrupts that fire within this window
#: (typical NIC/accelerator moderation).
COALESCE_WINDOW = 2e-6


class InterruptRetriever:
    """Retrieves QAT responses via simulated hardware interrupts."""

    def __init__(self, sim: "Simulator", engine: AsyncOffloadEngine,
                 name: str = "irq", wake=None) -> None:
        self.sim = sim
        self.engine = engine
        # The service path runs on the worker's core: charges there
        # settle one by one, as for a co-pinned polling thread.
        engine.core.eager = True
        self.name = name
        self.wake = wake  # wakes the worker loop (see timer_thread)
        self.interrupts = 0
        self._pending = False
        self._armed = False

    def arm(self) -> None:
        """Hook the rings of every instance this engine submits to
        (dedicated instances — the static policy enforces this)."""
        if self._armed:
            raise RuntimeError("interrupt retriever already armed")
        self._armed = True
        for inst in self.engine.backend.instances:
            inst.set_response_callback(self._on_response)

    def disarm(self) -> None:
        """Unhook every ring callback (worker death/teardown): a fresh
        incarnation arms its own retriever, and interrupts already
        coalescing fizzle instead of dispatching into a dead engine."""
        if not self._armed:
            return
        self._armed = False
        for inst in self.engine.backend.instances:
            inst.set_response_callback(None)

    def _on_response(self, _ring) -> None:
        if self._pending:
            return  # coalesced into the already-scheduled interrupt
        self._pending = True
        self.sim.process(self._service(), name=f"{self.name}-svc")

    def _service(self):
        # Interrupt moderation delay, then the service path.
        yield self.sim.timeout(COALESCE_WINDOW)
        self._pending = False
        if not self._armed:
            return  # disarmed while the interrupt was coalescing
        self.interrupts += 1
        core = self.engine.core
        core.kernel_crossing(extra=IRQ_SERVICE_COST)
        # The handler drains the response rings and dispatches the
        # notifications (same downstream path as polling).
        jobs = yield from self.engine.poll_and_dispatch(owner=self)
        yield from core.settle()
        if jobs and self.wake is not None:
            self.wake()
