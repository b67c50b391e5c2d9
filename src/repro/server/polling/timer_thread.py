"""The timer-based polling thread (the QAT Engine default).

An independent thread per worker polls the assigned QAT instance at a
fixed interval. Pinned to the same core as its worker (as in the
paper's testbed), so every tick context-switches the worker out — the
overhead quantified in Figure 12, along with the interval dilemma:
10 us wastes cycles on ineffective polls, 1 ms adds latency and can
strangle throughput at low concurrency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...offload.engine import AsyncOffloadEngine
from ...sim.process import Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from ...sim.kernel import Simulator

__all__ = ["TimerPollingThread"]


class TimerPollingThread:
    """Polls the engine every ``interval`` seconds on the worker's core."""

    def __init__(self, sim: "Simulator", engine: AsyncOffloadEngine,
                 interval: float = 10e-6, name: str = "poller",
                 wake=None) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.engine = engine
        # Sharing the worker's core: charges there settle one by one so
        # the two threads interleave (and switch) per charge.
        engine.core.eager = True
        self.interval = interval
        self.name = name
        #: Called after dispatching responses: retrieval happens outside
        #: the worker's event loop, so a blocked worker must be woken to
        #: process queue-mode notifications.
        self.wake = wake
        self.polls = 0
        self.effective_polls = 0
        self._running = False
        #: Parked in the inter-tick timeout (vs mid-poll on the core).
        self._sleeping = False
        self._proc = None

    def start(self) -> None:
        if self._running:
            raise RuntimeError("polling thread already started")
        self._running = True
        self._proc = self.sim.process(self._run(), name=self.name)

    def stop(self) -> None:
        """Stop polling: flag the loop and, if the process is parked in
        the inter-tick sleep, interrupt it — so a killed/reloaded
        worker strands no stale tick scheduled against a dead engine.
        A thread caught *mid-poll* instead finishes charging the poll
        it already started (a real process dies mid-syscall, not
        mid-cycle-refund) and exits at the loop check."""
        self._running = False
        if (self._proc is not None and self._proc.is_alive
                and self._sleeping):
            self._proc.interrupt("polling thread stopped")
            self._proc = None

    def _run(self):
        try:
            while self._running:
                self._sleeping = True
                yield self.sim.timeout(self.interval)
                self._sleeping = False
                if not self._running:
                    return
                # Each tick schedules the thread onto the shared core:
                # the owner identity differing from the worker's
                # charges the context switch.
                self.polls += 1
                jobs = yield from self.engine.poll_and_dispatch(owner=self)
                yield from self.engine.core.settle()
                if jobs:
                    self.effective_polls += 1
                    if self.wake is not None:
                        self.wake()
        except Interrupt:
            return  # stop() cancelled the pending tick
