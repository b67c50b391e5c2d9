"""Simulated CPU cores.

A :class:`Core` is a serially-shared execution unit. Simulation
processes charge CPU time to a core; when two processes share a core
(e.g. an Nginx worker and its timer-based polling thread, pinned
together exactly as in the paper's testbed) they serialize and pay a
context-switch penalty on every ownership change — the overhead the
heuristic polling scheme eliminates (paper section 3.3).

Charging is deferred. :meth:`Core.consume` schedules nothing: it adds
the charge to the running process's *debt*, and :meth:`Core.settle`
turns the whole debt into one Timeout at the sum of the charges (added
one by one, so the settled time equals charging them one after
another). A process settles before anything another process can see —
a socket send/recv/accept/close, ``epoll_wait``, a QAT submit, poll or
flush, a notification, a wait on an event — so a chain of back-to-back
charges costs the host one kernel event instead of one per charge.
Code inside a chain that needs the time reads :meth:`Core.clock`, the
time the chain settles at. At most one process owes CPU time at any
moment (the running one), and the kernel fails a process that yields
or returns owing it (:class:`~repro.sim.kernel.UnsettledDebt`).

Contention keeps the undeferred rules. An uncontended chain holds the
core lock from its first charge to its settle; a process whose chain
starts while another chain holds the core waits at its settle, FIFO,
and its switch costs are decided when the core is granted;
:meth:`Core.claim` waits for the core before the caller reads what
other processes on it change. A core with
a timer poller or
interrupt retriever pinned beside its worker is *eager*
(:attr:`Core.eager`): its settle grants the core and times one charge
at a time, exactly as undeferred charges did, so the co-pinned thread
interleaves with the worker at charge granularity (the Figure 12
context switches).

Hyper-threading follows the paper's observation that CPS scales
linearly in HT cores: each logical core is an independent unit, and
the per-op costs of :mod:`repro.core.costmodel` are already calibrated
per hyper-thread, so no further HT discount applies.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Generator, Iterable, List, Optional,
                    Tuple)

from ..sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.kernel import Simulator

__all__ = ["Core", "CpuTopology", "CpuStats", "CONTEXT_SWITCH_COST",
           "KERNEL_SWITCH_COST"]

#: One context switch between processes sharing a core.
CONTEXT_SWITCH_COST = 2.0e-6
#: One user->kernel->user mode switch.
KERNEL_SWITCH_COST = 0.65e-6


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

    def __init__(self, sim: "Simulator", core_id: int) -> None:
        self.sim = sim
        self.core_id = core_id
        self.stats = CpuStats()
        self._lock = Resource(sim, capacity=1, name=f"core{core_id}")
        self._last_owner: Optional[object] = None
        #: Settle charge by charge: set by a timer polling thread or an
        #: interrupt retriever pinned to this core beside its worker.
        self.eager = False
        #: Open chain holding the lock: the time it settles at.
        self._due: Optional[float] = None
        #: Open chain on an eager core, or one that found the core
        #: held: its ``(cost, owner)`` charges, granted and accounted
        #: at the settle.
        self._owed: Optional[List[Tuple[float, object]]] = None

    def __repr__(self) -> str:
        return f"<Core {self.core_id} owes {self.clock() - self.sim.now!r}s>"

    def _account(self, cost: float, owner: object) -> float:
        """One charge's duration, its context switch included, booked
        into :attr:`stats`. Called with the core granted."""
        duration = cost
        if owner is not None:
            last = self._last_owner
            if last is not None and owner is not last:
                duration += CONTEXT_SWITCH_COST
                self.stats.context_switches += 1
                self.stats.switch_time += CONTEXT_SWITCH_COST
            self._last_owner = owner
        self.stats.busy_time += duration
        return duration

    def consume(self, cost: float, owner: object = None) -> None:
        """Charge ``cost`` seconds of nominal CPU work to this core.

        A plain call: it schedules nothing and adds the charge to the
        running process's debt, which :meth:`settle` turns into time.
        The duration is ``cost`` plus a context-switch penalty
        when ``owner`` differs from the previous owner; ``owner=None``
        (kernel work) never switches. The debt belongs to the running
        process whatever ``owner`` says, and may sit on one core only.
        """
        if cost < 0:
            raise ValueError("negative CPU cost")
        due = self._due
        if due is None:
            owed = self._owed
            if owed is not None:
                owed.append((cost, owner))
                return
            sim = self.sim
            if sim.debtor is not None:
                raise sim.unsettled(f"a charge on core{self.core_id}")
            sim.debtor = self
            if self.eager or not self._lock.try_acquire():
                self._owed = [(cost, owner)]
                return
            due = sim.now
        self._due = due + self._account(cost, owner)

    def kernel_crossing(self, extra: float = 0.0) -> None:
        """Charge one user→kernel→user mode switch (plus ``extra`` work
        done while in the kernel). This is the cost the kernel-bypass
        notification scheme avoids (paper section 3.4)."""
        self.stats.kernel_crossings += 1
        self.stats.kernel_time += KERNEL_SWITCH_COST + extra
        self.consume(KERNEL_SWITCH_COST + extra)

    def clock(self) -> float:
        """The time the running process's debt on this core settles at
        (``now`` when it owes nothing): what a timestamp taken inside a
        chain reads. Exact unless the settle must wait for the core or,
        on an eager core, a charge pays a context switch."""
        due = self._due
        if due is not None:
            return due
        t = self.sim.now
        for cost, _owner in self._owed or ():
            t += cost
        return t

    def settle(self) -> Iterable:
        """Turn the running process's debt on this core into time:
        ``yield from core.settle()``. Owing nothing, it returns an empty
        tuple, so the common no-op builds no generator.

        An uncontended chain is one Timeout at the time it settles at;
        a chain that found the core held first waits for it, FIFO.
        An eager core grants and times each charge on its own. The core
        is released when the time has elapsed — or at once, when the
        process is interrupted meanwhile. An uncontended chain whose
        Timeout would be the next event processed moves ``now`` to its
        due time without one (:meth:`Simulator.advance_to`) and also
        returns an empty tuple."""
        due = self._due
        if due is not None:
            sim = self.sim
            if due <= sim.now or sim.advance_to(due):
                sim.debtor = None
                self._due = None
                self._lock.release()
                return ()
        elif self._owed is None:
            return ()
        return self._settle()

    def claim(self) -> Generator:
        """Settle, then wait until no other chain holds this core and
        open an empty chain that holds it: ``yield from core.claim()``
        before reading state that other processes on this core change,
        so it is read as the core's owner. On an eager core, whose
        charges take the core one by one, it only settles."""
        yield from self.settle()
        if self.eager:
            return
        if not self._lock.try_acquire():
            yield from self._wait_grant()
        self.sim.debtor = self
        self._due = self.sim.now

    def forfeit(self) -> None:
        """Drop the running process's debt on this core unpaid, and
        release the core if its chain holds it: the process died by an
        exception before it could settle."""
        self.sim.debtor = None
        if self._due is not None:
            self._lock.release()
        self._due = self._owed = None

    def _settle(self) -> Generator:
        due = self._due
        owed = self._owed
        sim = self.sim
        sim.debtor = None
        self._due = self._owed = None
        lock = self._lock
        if owed is not None:
            if self.eager:
                for cost, owner in owed:
                    if not lock.try_acquire():
                        yield from self._wait_grant()
                    try:
                        duration = self._account(cost, owner)
                        if duration > 0:
                            yield sim.timeout(duration)
                    finally:
                        lock.release()
                return
            if not lock.try_acquire():
                yield from self._wait_grant()
            due = sim.now
            for cost, owner in owed:
                due += self._account(cost, owner)
        try:
            if due > sim.now:
                yield sim.timeout_at(due)
        finally:
            lock.release()

    def _wait_grant(self) -> Generator:
        """Park on the core lock until granted."""
        lock = self._lock
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


class CpuTopology:
    """``n_cores`` logical cores, one per worker: the testbed's
    dedicated hyper-threads ("two Nginx workers on two dedicated HT
    cores belonging to the same physical core"). CPS scales linearly in
    them, as the paper observes."""

    def __init__(self, sim: "Simulator", n_cores: int) -> None:
        if n_cores < 1:
            raise ValueError("need at least one core")
        self.sim = sim
        self.cores: List[Core] = [Core(sim, i) for i in range(n_cores)]

    def __len__(self) -> int:
        return len(self.cores)

    def __getitem__(self, i: int) -> Core:
        return self.cores[i]

    def total_busy_time(self) -> float:
        return sum(c.stats.busy_time for c in self.cores)
