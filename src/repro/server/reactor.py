"""The worker reactor: pluggable event sources behind one loop.

The paper's worker (sections 2.2, 3.3–3.4) is a single event loop, but
eight PRs of growth wired each wake mechanism by hand: epoll pollables,
``_heuristic_check`` sprinkled at call sites, a failover sweep, a
watchdog sweep, the timer polling thread, the interrupt retriever, and
ad-hoc deadline merging in ``_loop_timeout``. This module folds them
all behind a uniform seam:

* :class:`EventSource` — one wake mechanism. A source may *dispatch*
  ready pollables (listener, notify FDs, connection sockets), report a
  *deadline* to the arbiter (pending async events, due retries, the
  spin timeout while requests are in flight), run an ordered
  *end-of-pass stage* (async-queue drain, retries, heuristic check,
  batch flush, admission drain, drain pass), or own a *background
  process* (timer polling thread, interrupt retriever, failover sweep,
  watchdog).
* :class:`Reactor` — the registry. Registration order is dispatch
  order, stage order and teardown order, so two identically-configured
  workers dispatch identically — the determinism invariant the fuzz
  corpus fingerprints pin down.

The arbiter (:meth:`Reactor.next_timeout`) computes the epoll timeout
as the minimum over every source's deadline, attributing the win to
the earliest-registered source that achieved it; the staged pipeline
(:meth:`Reactor.end_of_pass`) runs the stage sources in registration
order at the end of every loop pass. Both are pure refactors of the
historical hand-threaded logic: for any default configuration the
simulated event sequence is byte-for-byte identical (enforced by
``tools/check_reactor_equivalence.py`` against the checked-in corpus
fingerprints).

Teardown protocol: ``Worker.kill()``/``stop()`` call
:meth:`Reactor.shutdown`, which stops every source in registration
order — the retrieval source first (the timer thread interrupts its
sleeping process, the interrupt retriever unhooks its ring callbacks)
and the sweep sources last (their loops observe ``worker.running`` and
exit at the next tick; interrupting them would perturb the event heap
for no benefit). Sources stay registered after shutdown so their
stats remain readable by ``stub_status``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List, Optional, Tuple

from ..net.epoll_sim import NotifyFd

if TYPE_CHECKING:  # pragma: no cover
    from .worker import Worker

__all__ = ["EventSource", "Reactor", "SPIN_TIMEOUT",
           "ListenerSource", "NotifyFdSource", "ConnSource",
           "AsyncQueueSource", "RetrySource", "HeuristicSource",
           "TimerPollSource", "InterruptSource", "BatchFlushSource",
           "AdmissionSource", "DrainPassSource", "FailoverSource",
           "WatchdogSource"]

#: epoll timeout while spinning with inflight requests (bounds the
#: sim-event rate of the keep-executing loop; 0 would also be correct).
SPIN_TIMEOUT = 2e-6


class EventSource:
    """One wake mechanism plugged into a worker's :class:`Reactor`."""

    #: Stable identifier: stats keys, the stub_status ``reactor:`` line
    #: and the ``w<id>.reactor.<name>`` obs timelines.
    name = "source"
    #: Participates in the end-of-pass pipeline (:meth:`on_pass`).
    has_stage = False

    def __init__(self, worker: "Worker") -> None:
        self.worker = worker
        self.reactor: Optional["Reactor"] = None
        #: Times this source's deadline won the arbitration.
        self.wakes = 0
        #: Ready pollables dispatched through this source.
        self.events = 0
        #: Cumulative sim time spent inside this source's dispatch and
        #: end-of-pass work (the per-source dispatch latency).
        self.busy = 0.0

    # -- registration lifecycle -------------------------------------------

    def attach(self, reactor: "Reactor") -> None:
        self.reactor = reactor

    def start(self) -> None:
        """Spawn any background process (called in registration order
        by :meth:`Reactor.start`, after the worker's event loop)."""

    def stop(self) -> None:
        """Deregistration teardown (idempotent)."""

    # -- pollable dispatch ------------------------------------------------

    def matches(self, pollable) -> bool:
        """Does this source own the ready pollable?"""
        return False

    def on_event(self, pollable, owner) -> Generator:
        """Dispatch one ready pollable this source matched."""
        return None
        yield  # pragma: no cover

    # -- deadline arbitration --------------------------------------------

    def next_timeout(self, now: float) -> Optional[float]:
        """Relative deadline for the arbiter; None = unconstrained."""
        return None

    # -- end-of-pass stage ------------------------------------------------

    def on_pass(self, owner) -> Generator:
        """One end-of-pass pipeline stage (``has_stage`` sources only)."""
        return None
        yield  # pragma: no cover

    # -- reporting ---------------------------------------------------------

    def stats(self) -> dict:
        """Base counters plus source-specific extras."""
        return {"wakes": self.wakes, "events": self.events,
                "busy": self.busy}


class Reactor:
    """Ordered event-source registry driving one worker's loop."""

    def __init__(self, sim, worker: "Worker") -> None:
        self.sim = sim
        self.worker = worker
        self._sources: List[EventSource] = []
        self._stopped = False
        #: Name of the last arbitration winner (diagnostics).
        self.last_wake = ""

    @property
    def sources(self) -> Tuple[EventSource, ...]:
        return tuple(self._sources)

    def source(self, name: str) -> Optional[EventSource]:
        for s in self._sources:
            if s.name == name:
                return s
        return None

    # -- registration ------------------------------------------------------

    def register(self, source: EventSource) -> EventSource:
        """Append a source. Registration order *is* dispatch, deadline
        attribution, stage and teardown order."""
        source.attach(self)
        self._sources.append(source)
        return source

    def start(self) -> None:
        for s in self._sources:
            s.start()

    def shutdown(self) -> None:
        """Stop every source in registration order (idempotent). The
        sources stay listed so stats remain readable post-mortem."""
        if self._stopped:
            return
        self._stopped = True
        for s in self._sources:
            s.stop()

    # -- the deadline arbiter ----------------------------------------------

    def next_timeout(self, now: float) -> Optional[float]:
        """The epoll timeout: minimum over every source's deadline.
        None (block until an event arrives) when no source constrains
        the pass. The earliest-registered source achieving the minimum
        is credited with the wake."""
        timeout: Optional[float] = None
        winner: Optional[EventSource] = None
        for s in self._sources:
            t = s.next_timeout(now)
            if t is None:
                continue
            if timeout is None or t < timeout:
                timeout = t
                winner = s
        if winner is not None:
            winner.wakes += 1
            self.last_wake = winner.name
        return timeout

    # -- pollable dispatch -------------------------------------------------

    def dispatch(self, pollable, owner) -> Generator:
        """Route one ready pollable to the first source that matches
        it (registration order). Unmatched pollables are dropped — a
        stale socket event whose connection already closed."""
        for s in self._sources:
            if s.matches(pollable):
                t0 = self.sim.now
                yield from s.on_event(pollable, owner)
                s.busy += self.sim.now - t0
                s.events += 1
                return
        return None

    # -- the staged end-of-pass pipeline ------------------------------------

    def end_of_pass(self, owner) -> Generator:
        """Run every stage source in registration order."""
        for s in self._sources:
            if not s.has_stage:
                continue
            t0 = self.sim.now
            yield from s.on_pass(owner)
            s.busy += self.sim.now - t0
        return None

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-source stats, in registration order (dict order is
        insertion order)."""
        return {s.name: s.stats() for s in self._sources}


# -- pollable sources ---------------------------------------------------------

class ListenerSource(EventSource):
    """The listen socket: accepts until EAGAIN (unless draining)."""

    name = "listener"

    def matches(self, pollable) -> bool:
        return pollable is self.worker.listener

    def on_event(self, pollable, owner) -> Generator:
        if not self.worker.draining:
            yield from self.worker._accept_all()
        return None


class NotifyFdSource(EventSource):
    """Async-notification FDs (per-connection or the shared wake FD)."""

    name = "notify-fd"

    def matches(self, pollable) -> bool:
        return isinstance(pollable, NotifyFd)

    def on_event(self, pollable, owner) -> Generator:
        yield from self.worker._notify_fd_event(pollable)
        return None


class ConnSource(EventSource):
    """Established connection sockets (handshake / request / response)."""

    name = "socket"

    def matches(self, pollable) -> bool:
        return pollable in self.worker.conns

    def on_event(self, pollable, owner) -> Generator:
        yield from self.worker._socket_event(self.worker.conns[pollable])
        return None


# -- deadline + stage sources ---------------------------------------------------

class AsyncQueueSource(EventSource):
    """The kernel-bypass async event queue (paper section 3.4):
    pending entries force a zero timeout; the stage drains the queue."""

    name = "async-queue"
    has_stage = True

    def next_timeout(self, now: float) -> Optional[float]:
        return 0.0 if self.worker.async_queue else None

    def on_pass(self, owner) -> Generator:
        yield from self.worker._drain_async_queue()
        return None

    def stats(self) -> dict:
        d = super().stats()
        q = self.worker.async_queue
        d.update(enqueued=q.enqueued, processed=q.processed)
        return d


class RetrySource(EventSource):
    """Backed-off resubmissions: sleep only until the earliest retry
    is due; the stage re-runs due retries."""

    name = "retries"
    has_stage = True

    def next_timeout(self, now: float) -> Optional[float]:
        retries = self.worker.retries
        if not retries:
            return None
        due = min(c.retry_not_before for c, _ in retries)
        return max(0.0, due - now)

    def on_pass(self, owner) -> Generator:
        yield from self.worker._process_retries()
        return None


class HeuristicSource(EventSource):
    """The integrated heuristic polling scheme (sections 3.3/4.3) as a
    reactor source: keeps the loop executing (spin timeout) while
    requests are in flight or queued on admission, and runs the
    efficiency/timeliness check as its end-of-pass stage. The worker
    also invokes :meth:`check` after every handler dispatch — the
    paper's 'wherever a crypto operation may be involved'."""

    name = "heuristic"
    has_stage = True

    def __init__(self, worker: "Worker", poller) -> None:
        super().__init__(worker)
        self.poller = poller

    def next_timeout(self, now: float) -> Optional[float]:
        eng = self.worker.engine
        if eng.inflight.total > 0 or eng.admission_queued > 0:
            return SPIN_TIMEOUT
        return None

    def check(self, owner) -> Generator:
        t0 = self.worker.sim.now
        jobs = yield from self.poller.check(owner=owner)
        self.busy += self.worker.sim.now - t0
        return jobs

    def on_pass(self, owner) -> Generator:
        yield from self.check(owner)
        return None

    def stats(self) -> dict:
        d = super().stats()
        d.update(polls=self.poller.polls,
                 efficiency_polls=self.poller.efficiency_polls,
                 timeliness_polls=self.poller.timeliness_polls)
        return d


# -- background retrieval sources ------------------------------------------------

class TimerPollSource(EventSource):
    """The timer polling thread as a source: start/stop map onto the
    thread's own lifecycle (stop interrupts the sleeping process, so a
    killed worker strands no stale tick against a dead engine)."""

    name = "timer-poll"

    def __init__(self, worker: "Worker", thread) -> None:
        super().__init__(worker)
        self.thread = thread

    def start(self) -> None:
        self.thread.start()

    def stop(self) -> None:
        self.thread.stop()

    def stats(self) -> dict:
        d = super().stats()
        d.update(polls=self.thread.polls,
                 effective_polls=self.thread.effective_polls)
        return d


class InterruptSource(EventSource):
    """The interrupt retriever as a source. Arming happens at
    construction (the worker must never miss a completion between its
    own construction and ``start()``); stop unhooks the ring callbacks
    so coalescing interrupts fizzle instead of dispatching into a dead
    engine."""

    name = "interrupt"

    def __init__(self, worker: "Worker", retriever) -> None:
        super().__init__(worker)
        self.retriever = retriever

    def stop(self) -> None:
        self.retriever.disarm()

    def stats(self) -> dict:
        d = super().stats()
        d.update(interrupts=self.retriever.interrupts)
        return d


# -- engine end-of-pass sources ---------------------------------------------------

class BatchFlushSource(EventSource):
    """End-of-pass batch flush: ops the handlers coalesced this pass go
    out in one doorbell/RPC. Submissions never wait past the current
    loop pass, so batching adds no cross-pass latency. Registered only
    when submission batching is configured."""

    name = "batch-flush"
    has_stage = True

    def on_pass(self, owner) -> Generator:
        eng = self.worker.engine
        if eng.queued_batch_ops:
            yield from eng.flush_batch(owner=owner)
        return None


class AdmissionSource(EventSource):
    """End-of-pass admission drain: admit queued ops into the capacity
    completions freed this pass. Registered only when the engine has
    an admission cap."""

    name = "admission"
    has_stage = True

    def on_pass(self, owner) -> Generator:
        eng = self.worker.engine
        if eng.admission_queued:
            yield from eng.admit_queued(owner=owner)
        return None


class DrainPassSource(EventSource):
    """Graceful-drain stage: while draining, fail queued engine work
    over to software and poll eagerly so the last connections finish;
    exits the loop once the worker is fully drained."""

    name = "drain"
    has_stage = True

    def on_pass(self, owner) -> Generator:
        w = self.worker
        if not w.draining:
            return None
        yield from w._drain_pass()
        if w.drained:
            # Old generation finished its last connection: exit; the
            # supervisor retires the lease epoch.
            w.running = False
        return None


# -- background sweep sources -------------------------------------------------------

class FailoverSource(EventSource):
    """Section 4.3's failover timer: if no retrieval poll fired during
    the last interval but requests are in flight, poll once. Generic
    over the retrieval scheme — ``polls_fn`` reads whichever poll
    counter the worker's retrieval source maintains — and inert (the
    sweep skips) when the worker has no retrieval scheme at all, so a
    failover timer configured under any notify/poll mode is safe."""

    name = "failover"

    def __init__(self, worker: "Worker", interval: float,
                 polls_fn=None) -> None:
        super().__init__(worker)
        self.interval = interval
        self.polls_fn = polls_fn
        self.sweeps = 0
        self.rescue_polls = 0
        self._proc = None

    def start(self) -> None:
        self._proc = self.worker.sim.process(
            self._run(), name=f"w{self.worker.worker_id}-failover")

    # stop(): nothing to do — the sweep observes ``worker.running`` and
    # exits at its next tick (interrupting it would perturb the event
    # heap for no benefit; a dead worker's sweep is inert).

    def _run(self) -> Generator:
        w = self.worker
        last_polls = 0
        while w.running:
            yield w.sim.timeout(self.interval)
            self.sweeps += 1
            if self.polls_fn is None:
                continue  # no retrieval scheme to back up
            if (self.polls_fn() == last_polls
                    and (w.engine.inflight.total > 0
                         or w.engine.admission_queued > 0)):
                yield from w.engine.poll_and_dispatch(owner="failover")
                self.rescue_polls += 1
            last_polls = self.polls_fn()

    def stats(self) -> dict:
        d = super().stats()
        d.update(sweeps=self.sweeps, rescue_polls=self.rescue_polls)
        return d


class WatchdogSource(EventSource):
    """Graceful-degradation sweep: expire in-flight requests past their
    deadline (section 4.3's failover generalized to hardware faults)
    and rescue connections stuck in TLS-ASYNC — either the notification
    was lost (response ready, handler never ran) or the request itself
    vanished (e.g. wiped by an endpoint reset)."""

    name = "watchdog"

    def __init__(self, worker: "Worker", interval: float) -> None:
        super().__init__(worker)
        self.interval = interval
        self.sweeps = 0
        self._proc = None

    def start(self) -> None:
        self._proc = self.worker.sim.process(
            self._run(), name=f"w{self.worker.worker_id}-watchdog")

    # stop(): tick-exit, same rationale as FailoverSource.

    def _run(self) -> Generator:
        w = self.worker
        stuck_age = w.engine.request_deadline + 2 * self.interval
        while w.running:
            yield w.sim.timeout(self.interval)
            self.sweeps += 1
            delivered = yield from w.engine.check_timeouts(owner=w)
            rescued = 0
            for conn in list(w.conns.values()):
                if not conn.in_async or conn.async_since is None:
                    continue
                job = conn.ssl.job
                if job is None or w.sim.now - conn.async_since <= stuck_age:
                    continue
                if job.response_ready:
                    # Response delivered but the handler never ran:
                    # reschedule it directly.
                    conn.retry_not_before = 0.0
                    w.retries.append((conn, conn.async_token))
                    rescued += 1
                elif (job.state.name == "PAUSED"
                        and not w.engine.is_pending(job)):
                    ok = yield from w.engine.fail_over_job(job, owner=w)
                    if ok:
                        rescued += 1
            w.stub_status.watchdog_rescues += rescued
            w._sample_reactor()
            if (delivered or rescued) and w.wake_fd is not None:
                # Deliveries happened outside the loop; make sure a
                # blocked epoll_wait sees the queued notifications.
                w.wake_fd.write_event()

    def stats(self) -> dict:
        d = super().stats()
        d.update(sweeps=self.sweeps,
                 rescues=self.worker.stub_status.watchdog_rescues)
        return d
