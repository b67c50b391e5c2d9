"""Per-stage counters for the worker event loop.

The loop itself is plain code in :class:`~repro.server.worker.Worker`
(``_next_timeout``, ``_dispatch``, the end-of-pass stages). This module
keeps what the stub_status page, the tracer timelines and the benchmark
read from it: an ordered table of per-stage ``wakes`` / ``events`` /
``busy`` counters, and the spin timeout.
"""

from __future__ import annotations

from typing import Dict, Iterable

__all__ = ["SPIN_TIMEOUT", "Stage", "StageCounters"]

#: epoll timeout while spinning with inflight requests (bounds the
#: sim-event rate of the keep-executing loop; 0 would also be correct).
SPIN_TIMEOUT = 2e-6


class Stage:
    """Counters for one stage of the worker loop."""

    __slots__ = ("wakes", "events", "busy")

    def __init__(self) -> None:
        #: Times this stage's deadline set the epoll timeout.
        self.wakes = 0
        #: Ready pollables dispatched to this stage.
        self.events = 0
        #: Cumulative sim time spent inside this stage's work.
        self.busy = 0.0


class StageCounters:
    """The worker's stages in loop order, each with its counters."""

    def __init__(self, names: Iterable[str]) -> None:
        self.stages: Dict[str, Stage] = {n: Stage() for n in names}

    def snapshot(self) -> dict:
        """``{name: {"wakes", "events", "busy"}}`` in loop order."""
        return {name: {"wakes": s.wakes, "events": s.events,
                       "busy": s.busy}
                for name, s in self.stages.items()}
