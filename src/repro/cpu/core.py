"""Simulated CPU cores.

A :class:`Core` is a serially-shared execution unit. Simulation
processes charge CPU time to a core with :meth:`Core.consume`; when two
processes share a core (e.g. an Nginx worker and its timer-based
polling thread, pinned together exactly as in the paper's testbed) they
serialize and pay a context-switch penalty on every ownership change —
the overhead the heuristic polling scheme eliminates (paper section 3.3).

Hyper-threading follows the paper's observation that CPS scales
linearly in HT cores: each logical core is modelled as an independent
unit whose ``speed`` already folds in the HT-sibling discount (see
:class:`CpuTopology`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List, Optional

from ..sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.kernel import Simulator

__all__ = ["Core", "CpuTopology", "CpuStats"]


class CpuStats:
    """Per-core accounting of where cycles went."""

    __slots__ = ("busy_time", "context_switches", "switch_time",
                 "kernel_crossings", "kernel_time")

    def __init__(self) -> None:
        self.busy_time = 0.0
        self.context_switches = 0
        self.switch_time = 0.0
        self.kernel_crossings = 0
        self.kernel_time = 0.0


class Core:
    """One logical CPU core with serial execution and switch costs."""

    def __init__(self, sim: "Simulator", core_id: int, speed: float = 1.0,
                 context_switch_cost: float = 2.0e-6,
                 kernel_switch_cost: float = 0.65e-6) -> None:
        if speed <= 0:
            raise ValueError("speed must be positive")
        self.sim = sim
        self.core_id = core_id
        self.speed = speed
        self.context_switch_cost = context_switch_cost
        self.kernel_switch_cost = kernel_switch_cost
        self.stats = CpuStats()
        self._lock = Resource(sim, capacity=1, name=f"core{core_id}")
        self._last_owner: Optional[object] = None

    def consume(self, cost: float, owner: object = None) -> Generator:
        """Charge ``cost`` seconds of nominal CPU work to this core.

        Use as ``yield from core.consume(...)`` inside a process. The
        actual duration is ``cost / speed`` plus a context-switch
        penalty when ``owner`` differs from the previous owner.

        A free core with nobody queued is taken without a grant event,
        and a zero-duration charge then does not yield at all; only a
        busy core parks the caller on a lock request.
        """
        if cost < 0:
            raise ValueError("negative CPU cost")
        lock = self._lock
        if not lock.try_acquire():
            req = lock.request()
            try:
                yield req
            except BaseException:
                # Interrupted (e.g. the worker process was killed) while
                # parked on — or just granted — the core lock. Hand the
                # slot back so sharers of this core don't wedge forever.
                if req.triggered:
                    lock.release()
                else:
                    req.cancel()
                raise
        try:
            duration = cost / self.speed
            if owner is not None and self._last_owner is not None \
                    and owner is not self._last_owner:
                duration += self.context_switch_cost
                self.stats.context_switches += 1
                self.stats.switch_time += self.context_switch_cost
            if owner is not None:
                self._last_owner = owner
            self.stats.busy_time += duration
            if duration > 0:
                yield self.sim.timeout(duration)
        finally:
            lock.release()

    def kernel_crossing(self, extra: float = 0.0) -> Generator:
        """Charge one user→kernel→user mode switch (plus ``extra`` work
        done while in the kernel). This is the cost the kernel-bypass
        notification scheme avoids (paper section 3.4)."""
        self.stats.kernel_crossings += 1
        self.stats.kernel_time += self.kernel_switch_cost + extra
        yield from self.consume(self.kernel_switch_cost + extra)


class CpuTopology:
    """A set of logical cores with the HT discount folded into speed.

    ``n_workers`` logical cores are created. Following the testbed
    layout ("two Nginx workers on two dedicated HT cores belonging to
    the same physical core"), logical cores are carved out of physical
    cores in sibling pairs; each sibling runs at ``ht_efficiency`` of a
    full core, which preserves the paper's linear-in-HT scaling while
    charging the HT discount.
    """

    def __init__(self, sim: "Simulator", n_cores: int,
                 ht_efficiency: float = 1.0,
                 context_switch_cost: float = 2.0e-6,
                 kernel_switch_cost: float = 0.65e-6) -> None:
        if n_cores < 1:
            raise ValueError("need at least one core")
        if not 0 < ht_efficiency <= 1.0:
            raise ValueError("ht_efficiency in (0, 1]")
        self.sim = sim
        self.ht_efficiency = ht_efficiency
        self.cores: List[Core] = [
            Core(sim, i, speed=ht_efficiency,
                 context_switch_cost=context_switch_cost,
                 kernel_switch_cost=kernel_switch_cost)
            for i in range(n_cores)
        ]

    def __len__(self) -> int:
        return len(self.cores)

    def __getitem__(self, i: int) -> Core:
        return self.cores[i]

    def total_busy_time(self) -> float:
        return sum(c.stats.busy_time for c in self.cores)
