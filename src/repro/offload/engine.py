"""Backend-agnostic asynchronous offload engine.

This is the framework half of QTLS (paper sections 3.2, 4.3) factored
away from the QAT device model: the engine owns the in-flight table,
per-request deadlines, bounded submit retries with exponential
backoff, per-lane circuit breakers, software failover and
stale-response filtering, and drives any accelerator that implements
:class:`~repro.offload.backend.OffloadBackend`.

Two execution modes:

- **straight (blocking)** — :meth:`AsyncOffloadEngine.execute_blocking`:
  submit, then hold the worker's core until the response arrives
  (busy-looping on completions). This is the QAT+S configuration and
  exhibits exactly the offload-I/O blocking the paper diagnoses
  (section 2.4).
- **async** — :meth:`AsyncOffloadEngine.submit_async` +
  :meth:`AsyncOffloadEngine.poll_and_dispatch`: submit, enter the
  paused job in the in-flight table and return immediately; a polling
  scheme later retrieves responses and the engine resumes the paused
  offload jobs through their wait-ctx callbacks / notification FDs.

Every async op takes one pipeline. ``submit_async`` submits it
directly or parks it (:meth:`~AsyncOffloadEngine._park`): in the
class-aware admission lanes when admission binds, else in the
coalescing queue when batching. Whichever way it then reaches the
backend — direct submit, batched flush or admission — ``_accept``
enters it into the in-flight table; a queued op that leaves its queue
any other way (expiry, drain, rescue, abort) goes through ``_unqueue``.
Both modes share one paid submit (``_pay_submit``), one lane walk
(``_open_lanes``), one timeout step (``_book_timeout``) and one
response step (``_book_response``).

An op whose offload gives up — submit retries spent, every breaker
open, deadline missed, corrupted response, or never left a queue —
completes on the CPU through :meth:`~AsyncOffloadEngine.execute_fallback`,
and each route names the span status its trace ends with (TIMEOUT or
FAILOVER).

Submission batching (``batch_size > 1``): instead of one
doorbell/RPC per op, ``submit_async`` parks ops in a coalescing queue
and flushes up to ``batch_size`` of them in a single
``submit_batch`` backend call, amortizing the per-submit cost
(``backend.submit_cpu_cost`` grows sub-linearly in the batch size).
Flush triggers, in order of precedence:

1. the queue reaches ``batch_size`` ops (inside ``submit_async``);
2. a polling operation finds the head of the queue due;
3. a dedicated flush timer fires :data:`BATCH_TIMEOUT` after the
   oldest queued op was enqueued — so latency-sensitive handshakes never
   stall behind an under-filled batch.

The flush path only ever *submits*; queued ops that can no longer
reach the backend (retry budget spent, deadline passed, every lane's
breaker open) are failed over to the software path by the timer and by
:meth:`check_timeouts` — never synchronously inside ``submit_async``,
where the caller has not yet armed the job's wait context.

Only the admission cap (``admission_limit``) makes the engine queue;
the arbitration policy just orders what is queued and what a batched
flush takes first. Without a cap, an unbatched ring-full submit
returns False so the SSL layer can pause the job in WANT_RETRY.

CPU charges are owed to the calling process (see
:mod:`repro.cpu.core`). The engine settles them before each act
another process can see — a backend submit or poll, a flush, a
notification-FD write, a kernel-bypass callback run outside the
event loop — and reads time as ``core.clock()``, the time the
caller's chain settles at. The calling process settles what is still
owed when it next waits.
"""

from __future__ import annotations

from collections import deque
from typing import (TYPE_CHECKING, Any, Deque, Dict, Generator, Iterable,
                    Iterator, List, Optional, Set, Tuple)

from ..core.costmodel import ASYNC_QUEUE_COST, CostModel
from ..cpu.core import Core
from ..crypto.ops import CryptoOpKind
from ..net.epoll_sim import NOTIFY_FD_WRITE_COST
from ..obs.span import SpanStatus
from ..tls.actions import CryptoCall
from .backend import OffloadBackend
from .health import CircuitBreaker, PendingOp
from .inflight import InflightCounters
from .scheduler import ClassScheduler

if TYPE_CHECKING:  # pragma: no cover
    from ..ssl.async_job import AsyncJob

__all__ = ["AsyncOffloadEngine", "ALGORITHM_GROUPS", "BUSY_POLL_SLICE",
           "BATCH_TIMEOUT", "backoff_jitter_fraction"]

_MASK64 = (1 << 64) - 1

#: Core time one spin of the straight (blocking) path's completion
#: busy-loop burns; also the base unit of the submit retry backoff.
BUSY_POLL_SLICE = 1.5e-6

#: Longest a coalescing-queue op waits for a fuller batch before the
#: flush timer submits it; queued-op expiry also leaves ops younger
#: than this alone.
BATCH_TIMEOUT = 50e-6


def backoff_jitter_fraction(seed: int, attempts: int) -> float:
    """Deterministic jitter in ``[0, 1)``: a splitmix64-style hash of
    ``(seed, attempts)``. Pure — no RNG state is consumed, so replays
    stay bit-for-bit while engines seeded differently desynchronize
    their retry instants."""
    x = (seed + attempts * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return (x >> 11) / float(1 << 53)

#: ``default_algorithm`` groups accepted by the ssl_engine framework
#: (appendix A.7): which op kinds each group enables for offload.
ALGORITHM_GROUPS = {
    "RSA": {CryptoOpKind.RSA_PRIV, CryptoOpKind.RSA_PUB},
    "EC": {CryptoOpKind.ECDSA_SIGN, CryptoOpKind.ECDSA_VERIFY,
           CryptoOpKind.ECDH_KEYGEN, CryptoOpKind.ECDH_COMPUTE},
    "DH": set(),
    "PKEY_CRYPTO": {CryptoOpKind.PRF},
    "CIPHER": {CryptoOpKind.RECORD_CIPHER},
}


class _QueuedOp:
    """One op parked inside the engine (coalescing queue or admission
    lanes), waiting to reach the backend."""

    __slots__ = ("call", "job", "enqueued_at", "deadline", "attempts",
                 "seq")

    def __init__(self, call: CryptoCall, job: AsyncJob, enqueued_at: float,
                 deadline: float) -> None:
        self.call = call
        self.job = job
        self.enqueued_at = enqueued_at
        self.deadline = deadline
        self.attempts = 0
        self.seq = -1  # global arrival order, stamped by the scheduler


class AsyncOffloadEngine:
    """Per-worker offload engine bound to one accelerator backend.

    The backend exposes one or more *lanes* (QAT crypto instances,
    remote connections); submission round-robins across lanes whose
    breakers admit traffic, polling drains all of them fairly.
    """

    supports_async = True

    def __init__(self, backend: OffloadBackend,
                 core: Core, cost_model: CostModel,
                 algorithms: Iterable[str] = ("RSA", "EC", "PKEY_CRYPTO",
                                              "CIPHER"),
                 request_deadline: float = 25e-3,
                 submit_max_retries: int = 32,
                 batch_size: int = 1,
                 admission_limit: Optional[int] = None,
                 sched_policy: str = "fifo",
                 sched_weights: Optional[Dict[str, int]] = None,
                 backoff_jitter_seed: int = 0) -> None:
        if request_deadline <= 0:
            raise ValueError("request deadline must be positive")
        if submit_max_retries < 1:
            raise ValueError("need at least one submit attempt")
        if batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if admission_limit is not None and admission_limit < 1:
            raise ValueError("admission limit must be >= 1")
        self.backend = backend
        self._rr = 0
        self.core = core
        #: The worker's event-loop process (set when it starts): the
        #: one reader of kernel-bypass notifications.
        self.loop = None
        self.cost_model = cost_model
        self.request_deadline = request_deadline
        self.submit_max_retries = submit_max_retries
        self.batch_size = batch_size
        #: Set per worker (from its RNG stream) so simultaneous
        #: ring-full rejections across workers retry at different
        #: instants.
        self.backoff_jitter_seed = backoff_jitter_seed
        self.breakers: List[CircuitBreaker] = [
            CircuitBreaker(self.core.clock)
            for _ in range(backend.lanes)
        ]
        #: In-flight table: every accepted async request and its
        #: deadline. The sole source of truth for response ownership —
        #: completions without an entry are stale (already timed out
        #: and failed over) and must be dropped, not delivered twice.
        self._pending: Dict[Any, PendingOp] = {}
        #: Coalescing queue (batched mode only): accepted by the
        #: engine, not yet submitted to the backend. Counted in
        #: ``inflight`` from enqueue so the heuristic poller sees them.
        self._batch: Deque[_QueuedOp] = deque()
        self._flushing = False
        #: The flush timer process (started by the first enqueue), and
        #: the event it parks on while the coalescing queue is empty.
        self._flush_timer = None
        self._flush_wake = None
        #: Admission control (``admission_limit`` set): ops accepted by
        #: the engine while ``inflight`` is at the cap, or bounced by a
        #: full ring under it. The only engine queueing. Queued on the
        #: class-aware scheduler's per-class lanes — overload degrades
        #: into bounded queueing instead of ring-full retry storms. NOT
        #: counted in ``inflight`` (they are not on the accelerator and
        #: must not block their own admission). With the default
        #: ``fifo`` policy the lanes drain in global arrival order.
        self.admission_limit = admission_limit
        self.scheduler = ClassScheduler(policy=sched_policy,
                                        weights=sched_weights)
        self.admission_admitted = 0
        self.admission_peak = 0
        #: Ops in flight or coalescing, per category: the one count the
        #: poller, stub_status and the admission cap read.
        self.inflight = InflightCounters()
        self._enabled_kinds: Set[CryptoOpKind] = set()
        for group in algorithms:
            try:
                self._enabled_kinds |= ALGORITHM_GROUPS[group]
            except KeyError:
                raise ValueError(f"unknown algorithm group {group!r}") \
                    from None
        self.ops_offloaded = 0
        self.ops_software = 0
        self.responses_dispatched = 0
        # Degradation counters.
        self.ops_fallback = 0
        self.op_timeouts = 0
        self.responses_stale = 0
        self.responses_corrupted = 0
        # Lifecycle counters (worker drain / crash teardown).
        self.ops_drained = 0
        self.ops_aborted = 0
        # Batching stats (stub_status): ops per backend submit call is
        # ``ops_offloaded / batches_submitted``.
        self.batches_submitted = 0
        #: Rejected submissions this engine attempted (ring full /
        #: window exhausted). Engine-local: with pooled backends the
        #: lanes are shared between workers, so summing lane counters
        #: would double-count other workers' rejections.
        self.submit_rejections = 0
        # Cycle accounting (CPU seconds) for the utilization analyses.
        self.software_crypto_time = 0.0
        self.blocking_wait_time = 0.0
        self.submit_time = 0.0
        self.poll_time = 0.0

    def offloads(self, call: CryptoCall) -> bool:
        return (call.op.qat_offloadable
                and call.op.kind in self._enabled_kinds)

    @property
    def open_breakers(self) -> int:
        return sum(1 for b in self.breakers if b.is_open)

    @property
    def batch_ops(self) -> int:
        """Ops the backend took across all submit calls: every one
        is an offloaded op."""
        return self.ops_offloaded

    @property
    def mean_batch_size(self) -> float:
        return (self.ops_offloaded / self.batches_submitted
                if self.batches_submitted else 0.0)

    # -- the shared offload steps ---------------------------------------------

    def _open_lanes(self) -> Iterator[int]:
        """Rotate over the leased lanes whose breaker admits traffic.
        ``allow()`` may claim a half-open probe, so it is asked only as
        the walk reaches a leased lane. The caller moves ``_rr`` on."""
        n = self.backend.lanes
        start = self._rr
        for i in range(n):
            lane = (start + i) % n
            if self.backend.admits(lane) and self.breakers[lane].allow():
                yield lane

    def _try_submit(self, call: CryptoCall) -> Optional[Tuple[Any, int]]:
        """Single-op submission: offer ``call`` to each open lane in
        turn until one takes it. Returns ``(token, lane)``, or None
        when every open lane's ring is full."""
        for lane in self._open_lanes():
            token = self.backend.submit_batch([call], lane)[0]
            if token is not None:
                self._rr = (lane + 1) % self.backend.lanes
                self.batches_submitted += 1
                return token, lane
            self.submit_rejections += 1
            # Ring-full is backpressure, not ill health: release the
            # half-open probe slot (if one was claimed) unconsumed.
            self.breakers[lane].cancel_probe()
        return None

    def _pay_submit(self, n_ops: int, owner: object) -> Generator:
        """The paid submit: charge the backend's CPU cost of one submit
        call carrying ``n_ops`` ops, book it as submit time, and settle
        before the call another process can see."""
        cost = self.backend.submit_cpu_cost(n_ops)
        self.core.consume(cost, owner=owner)
        self.submit_time += cost
        yield from self.core.settle()

    def _book_timeout(self, call: CryptoCall, lane: int) -> None:
        """An accepted op missed its deadline: retire it, count the
        timeout on the engine and its lane, fail the lane's breaker."""
        self.inflight.decrement(call.op.category)
        self.op_timeouts += 1
        self.backend.lane_stats(lane).op_timeouts += 1
        self.breakers[lane].record_failure()

    def _book_response(self, call: CryptoCall, lane: int,
                       resp: Any) -> bool:
        """An accepted op's response arrived: retire it and feed its
        lane's breaker: a failure (and ``responses_corrupted``) for a
        transport-corrupted response, else a success. Returns whether
        the response is usable."""
        self.inflight.decrement(call.op.category)
        if resp.transport_error:
            self.responses_corrupted += 1
            self.breakers[lane].record_failure()
            return False
        self.breakers[lane].record_success()
        return True

    def _any_lane_available(self) -> bool:
        """Non-mutating: could a submission be admitted right now (or
        as soon as ring space frees up)?"""
        return any(b.available() and self.backend.admits(i)
                   for i, b in enumerate(self.breakers))

    def submit_backoff(self, attempts: int) -> float:
        """Exponential backoff before retry number ``attempts + 1``,
        jittered into ``[base/2, base)`` by the engine's seed so workers
        that bounced off the same full ring in the same pass don't
        re-collide on every retry."""
        base = min(BUSY_POLL_SLICE * (2 ** max(attempts - 1, 0)),
                   128 * BUSY_POLL_SLICE)
        frac = backoff_jitter_fraction(self.backoff_jitter_seed, attempts)
        return base * (0.5 + 0.5 * frac)

    # -- software fallback ----------------------------------------------------

    def _execute_software(self, call: CryptoCall, owner: object) -> Any:
        cost = self.cost_model.software_cost(call.op)
        self.core.consume(cost, owner=owner)
        self.ops_software += 1
        self.software_crypto_time += cost
        return call.compute()

    def execute_fallback(self, call: CryptoCall, owner: object,
                         lane: int = -1) -> Any:
        """Software failover: complete ``call`` on the CPU because its
        offload gave up (submit retries spent, every breaker open,
        deadline missed, corrupted response, never left a queue).
        ``lane`` is the lane the op was accepted on, charged its
        fallback; -1 when it never reached one. The charge stays owed
        to the caller."""
        self.ops_fallback += 1
        if lane >= 0:
            self.backend.lane_stats(lane).fallback_ops += 1
        return self._execute_software(call, owner)

    # -- straight (blocking) offload -------------------------------------------

    def execute_blocking(self, call: CryptoCall, owner: object
                         ) -> Generator:
        """QAT+S: submit, then spin on the worker's core until the
        response lands. The core does no other work meanwhile — the
        blocking the paper's Figure 3 illustrates. Batching never
        applies here: there is exactly one op outstanding per worker.

        Submit retries are bounded (exponential backoff up to
        ``submit_max_retries``) and the response wait is bounded by
        ``request_deadline``; either bound exhausted degrades the op to
        the software path."""
        if not self.offloads(call):
            return self._execute_software(call, owner)
        core = self.core
        obs = core.sim.obs
        trace = (obs.begin(call.op, -1, -1, "blocking", core.clock())
                 if obs is not None else None)
        yield from self._pay_submit(1, owner)
        submitted = self._try_submit(call)
        attempts = 1
        while submitted is None:
            if (attempts >= self.submit_max_retries
                    or not self._any_lane_available()):
                if trace is not None:
                    obs.finish(trace, core.sim.now, SpanStatus.TIMEOUT)
                return self.execute_fallback(call, owner)
            delay = self.submit_backoff(attempts)
            core.consume(delay, owner=owner)
            self.blocking_wait_time += delay
            attempts += 1
            yield from core.settle()
            submitted = self._try_submit(call)
        token, lane = submitted
        if trace is not None:
            trace.accept(core.sim.now, self.backend.name, lane,
                         attempts=attempts - 1)
        self.inflight.increment(call.op.category)
        self.ops_offloaded += 1
        wait_started = core.sim.now
        deadline = wait_started + self.request_deadline
        resp = None
        while resp is None:
            yield from core.settle()
            completions = self.backend.poll_completions()
            core.consume(self.backend.poll_cpu_cost(len(completions)),
                         owner=owner)
            for candidate in completions:
                if candidate.token is token:
                    resp = candidate
                else:
                    # A late response to an op that already timed out.
                    self.responses_stale += 1
            if resp is not None:
                break
            if core.clock() >= deadline:
                self.blocking_wait_time += core.clock() - wait_started
                self._book_timeout(call, lane)
                if trace is not None:
                    obs.finish(trace, core.clock(), SpanStatus.TIMEOUT)
                return self.execute_fallback(call, owner, lane)
            core.consume(BUSY_POLL_SLICE, owner=owner)
        self.blocking_wait_time += core.clock() - wait_started
        usable = self._book_response(call, lane, resp)
        if trace is not None:
            trace.absorb_device_marks(resp.device_marks)
            trace.mark("delivered", core.clock())
        if not usable:
            if trace is not None:
                obs.finish(trace, core.clock(), SpanStatus.FAILOVER)
            return self.execute_fallback(call, owner, lane)
        if resp.error is not None:
            if trace is not None:
                obs.finish(trace, core.clock(), SpanStatus.ERROR)
            raise resp.error
        if trace is not None:
            obs.finish(trace, core.clock())
        return resp.result

    # -- asynchronous offload: one submit pipeline -----------------------------

    def submit_async(self, call: CryptoCall, job: AsyncJob, owner: object
                     ) -> Generator:
        """Submit without waiting; the response resumes ``job`` later.

        Unbatched (``batch_size == 1``): returns True on success, False
        when the request ring is full (the offload job must pause in
        retry state — section 3.2). Accepted requests enter the
        in-flight table with a deadline; failed submissions bump
        ``job.submit_attempts`` so the caller can bound its retry loop
        via :meth:`should_retry_submit`.

        Batched (``batch_size > 1``): the op is parked in the
        coalescing queue and always accepted (True); ring backpressure
        is handled inside the flush machinery, and ops that never
        reach the backend fail over to software from the flush timer.
        """
        if not self.offloads(call):
            raise ValueError(
                f"submit_async on non-offloadable op {call.op.kind}")
        limit = self.admission_limit
        if limit is not None and (self.scheduler.queued
                                  or self.inflight.total >= limit):
            # At the admission cap, or behind ops already queued there
            # (the arbitration policy stays authoritative over order):
            # bounded queueing. The lanes and the coalescing queue are
            # read by the flush timer and the sweeps: park once the
            # caller's core time has elapsed.
            yield from self.core.settle()
            return self._admission_enqueue(call, job)
        if self.batch_size > 1:
            yield from self.core.settle()
            yield from self._coalesce(self._park(call, job), owner)
            return True
        yield from self._pay_submit(1, owner)
        submitted = self._try_submit(call)
        if submitted is None:
            if limit is not None:
                # Ring backpressure under an admission cap: park the op
                # instead of bouncing the job into a WANT_RETRY storm.
                return self._admission_enqueue(call, job)
            job.submit_attempts += 1
            return False
        self._accept(*submitted, call, job, attempts=job.submit_attempts)
        job.submit_attempts = 0
        return True

    def _accept(self, token: Any, lane: int, call: CryptoCall,
                job: AsyncJob, attempts: int,
                deadline: Optional[float] = None,
                charge: bool = True) -> None:
        """The backend took the op: stamp the trace accept, enter it in
        the in-flight table and count it offloaded. The one accept step
        of every route (direct, batched flush, admission). A direct op's
        deadline runs from now; a queued op keeps its enqueue-time one.
        ``charge=False`` for coalescing-queue ops, which ``inflight``
        has counted since enqueue."""
        now = self.core.clock()
        if job.trace is not None:
            job.trace.accept(now, self.backend.name, lane, attempts=attempts)
        if deadline is None:
            deadline = now + self.request_deadline
        self._pending[token] = PendingOp(
            call=call, job=job, lane=lane, deadline=deadline)
        if charge:
            self.inflight.increment(call.op.category)
        self.ops_offloaded += 1

    def _park(self, call: CryptoCall, job: AsyncJob) -> _QueuedOp:
        """The queue entry for an op that waits inside the engine
        (coalescing queue or admission lanes). Pauses the job first: a
        poll interleaved with a later flush must already find it in a
        deliverable state (the SSL layer marks it paused again after
        ``submit_async`` returns — a no-op)."""
        now = self.core.clock()
        job.mark_paused(call)
        if job.trace is not None:
            job.trace.mark("enqueued", now)
        job.submit_attempts = 0
        return _QueuedOp(call, job, now, now + self.request_deadline)

    def _coalesce(self, q: _QueuedOp, owner: object) -> Generator:
        """Append ``q`` to the coalescing queue (counted in ``inflight``
        from here on), flush when full, and keep the flush timer
        armed."""
        self._batch.append(q)
        self.inflight.increment(q.call.op.category)
        if len(self._batch) >= self.batch_size:
            yield from self._flush_batch(owner)
        self._arm_flush_timer()

    def _flush_batch(self, owner: object) -> Generator:
        """Submit queued ops, one backend call per chunk of up to
        ``batch_size``. Submit-only: never delivers failures (callers
        may not have armed the jobs' wait contexts yet). Stops on
        backpressure; re-entrant calls (poll interleaved with a flush
        already consuming core time) are no-ops."""
        # The queue and the lanes' headroom are state other processes
        # on this core change: read them holding the core.
        yield from self.core.claim()
        if self._flushing:
            return
        self._flushing = True
        try:
            while self._batch:
                lane = next(self._open_lanes(), None)
                if lane is None:
                    return
                self._rr = (lane + 1) % self.backend.lanes
                # Flow-control the flush by the lane's advertised
                # headroom, per op category (QAT rings are per-
                # category): overshooting a near-full ring burns
                # submit CPU on ops that bounce and parks the whole
                # queue behind the retry backoff. Skipping an op whose
                # ring is full is safe — a job has at most one op in
                # flight, so cross-category reordering cannot reorder
                # any job's own ops.
                room: Dict[object, int] = {}
                take: List[_QueuedOp] = []
                for q in self.scheduler.flush_order(self._batch):
                    cat = q.call.op.category
                    if cat not in room:
                        room[cat] = self.backend.capacity_hint(lane, cat)
                    if room[cat] <= 0:
                        continue
                    room[cat] -= 1
                    take.append(q)
                    if len(take) == self.batch_size:
                        break
                if not take:
                    self.breakers[lane].cancel_probe()
                    return
                yield from self._pay_submit(len(take), owner)
                # Re-filter after the settle: check_timeouts may have
                # expired queued ops while we consumed core time.
                chunk = [q for q in take if q in self._batch]
                if not chunk:
                    self.breakers[lane].cancel_probe()
                    return
                tokens = self.backend.submit_batch(
                    [q.call for q in chunk], lane)
                accepted = 0
                for q, token in zip(chunk, tokens):
                    if token is None:
                        q.attempts += 1
                        self.submit_rejections += 1
                        continue
                    self._batch.remove(q)
                    self._accept(token, lane, q.call, q.job, q.attempts,
                                 q.deadline, charge=False)
                    accepted += 1
                if accepted:
                    self.batches_submitted += 1
                else:
                    self.breakers[lane].cancel_probe()
                if accepted < len(chunk):
                    return  # backpressure: retry the rest later
        finally:
            self._flushing = False

    def _arm_flush_timer(self) -> None:
        """Keep the flush timer running while ops are queued. One timer
        process per engine: the first enqueue starts it, and it parks
        on an event whenever the queue drains, which the next enqueue
        succeeds."""
        if not self._batch:
            return
        if self._flush_timer is None:
            self._flush_timer = self.core.sim.process(
                self._flush_timer_loop(), name="offload-batch-flush")
        elif self._flush_wake is not None:
            wake, self._flush_wake = self._flush_wake, None
            wake.succeed()

    def _flush_timer_loop(self) -> Generator:
        sim = self.core.sim
        while True:
            while self._batch:
                head = self._batch[0]
                due = min(head.enqueued_at + BATCH_TIMEOUT, head.deadline)
                if due > sim.now:
                    yield from sim.hold(due - sim.now)
                    continue
                yield from self._flush_batch(owner=self)
                yield from self._expire_queued(owner=self)
                yield from self.core.settle()
                if self._batch:
                    # The queue could not fully drain (ring pressure /
                    # open breakers). The poll path flushes into freed
                    # capacity as soon as completions drain, so the
                    # timer only needs a coarse safety-net cadence.
                    attempts = max(q.attempts for q in self._batch)
                    yield from sim.hold(max(
                        self.submit_backoff(max(attempts, 1)),
                        BATCH_TIMEOUT / 2))
            self._flush_wake = sim.event()
            yield self._flush_wake

    # -- queued ops -------------------------------------------------------------

    def _queued(self, batch: bool = True, admission: bool = True
                ) -> Iterator[_QueuedOp]:
        """Walk the queued ops: the coalescing queue, then the admission
        lanes in arrival order. Each queue is snapshotted when the walk
        reaches it, and an op that left its queue before its turn
        (flushed, admitted onward or expired while the caller yielded
        core time) is skipped."""
        if batch:
            for q in list(self._batch):
                if q in self._batch:
                    yield q
        if admission:
            for q in self.scheduler.items():
                if q in self.scheduler:
                    yield q

    def _unqueue(self, q: _QueuedOp) -> None:
        """Remove a queued op from whichever queue holds it. Only the
        coalescing queue is charged in ``inflight``, so only an op
        taken from there is uncharged."""
        try:
            self._batch.remove(q)
        except ValueError:
            self.scheduler.remove(q)
        else:
            self.inflight.decrement(q.call.op.category)

    @staticmethod
    def _paused(job: AsyncJob) -> bool:
        """Is ``job`` still waiting on its op, i.e. not rescued or
        aborted elsewhere?"""
        return job.state.name == "PAUSED"

    def _fail_queued(self, q: _QueuedOp, owner: object) -> Generator:
        """Take ``q`` out of its queue and fail it over to software (a
        TIMEOUT: it never reached the accelerator), resuming its job
        unless the job was rescued or aborted meanwhile. Returns the
        job resumed, or None."""
        self._unqueue(q)
        if not self._paused(q.job):
            return None
        yield from self._deliver_failure(q.job, q.call, -1, owner,
                                         SpanStatus.TIMEOUT)
        return q.job

    def _expire_queued(self, owner: object, admission: bool = False
                       ) -> Generator:
        """Fail over queued ops that can no longer reach the backend:
        deadline passed, no lane admitting traffic, or — coalescing
        queue only — retry budget spent. Walks the coalescing queue, or
        the admission lanes when ``admission`` (whose expiries also
        count on their lane and in the admission timeline). Ops younger
        than :data:`BATCH_TIMEOUT` are left alone — their submitter may
        still be arming the wait context, and a later round revisits
        them. Returns jobs resumed."""
        now = self.core.clock()
        jobs: List[object] = []
        no_lane = not self._any_lane_available()
        for q in self._queued(batch=not admission, admission=admission):
            if now - q.enqueued_at < BATCH_TIMEOUT:
                continue
            timed_out = now >= q.deadline
            exhausted = (not admission
                         and q.attempts >= self.submit_max_retries)
            if not (timed_out or exhausted or no_lane):
                continue
            if admission:
                self.scheduler.note_expired(q.call.op.category)
            if timed_out:
                self.op_timeouts += 1
            job = yield from self._fail_queued(q, owner)
            if job is not None:
                jobs.append(job)
        if admission and jobs:
            # Sample at the CURRENT time, not the entry snapshot: the
            # failover deliveries above yield core time, and another
            # engine sharing this core's timeline (a draining
            # generation next to its successor) may have sampled a
            # later instant during those yields.
            self._sample_admission(self.core.clock())
        return jobs

    # -- admission control ------------------------------------------------------

    @property
    def admission_queued(self) -> int:
        """Ops waiting in the admission lanes (not yet offloaded)."""
        return self.scheduler.queued

    def _admission_enqueue(self, call: CryptoCall, job: AsyncJob) -> bool:
        """Park the op on its class lane; always accepted (the job
        pauses exactly as if the op were in flight)."""
        q = self._park(call, job)
        self.scheduler.push(q, call.op.category)
        if self.scheduler.queued > self.admission_peak:
            self.admission_peak = self.scheduler.queued
        self._sample_admission(q.enqueued_at)
        return True

    def _note_admitted(self, q: _QueuedOp) -> None:
        """A queued op left the lanes for the accelerator path: feed
        the per-class queue-wait histogram."""
        self.admission_admitted += 1
        obs = self.core.sim.obs
        if obs is not None:
            obs.latency_sample(
                self.backend.name,
                f"sched-wait.{q.call.op.category.sched_class}",
                self.core.clock() - q.enqueued_at)

    def admit_queued(self, owner: object) -> Generator:
        """Admit queued ops into freed in-flight capacity, in the
        arbitration policy's order (global arrival order under the
        default ``fifo``), through the normal submit path (direct or
        coalescing). Stops on ring backpressure. Returns ops
        admitted."""
        admitted = 0
        # Only an admission cap queues ops, so ``limit`` is set when
        # anything is queued.
        s, limit = self.scheduler, self.admission_limit
        while s.queued and self.inflight.total < limit:
            q = s.pop()
            if not self._paused(q.job):
                # Rescued/aborted while queued; nothing to submit.
                continue
            if self.batch_size > 1:
                self._note_admitted(q)
                admitted += 1
                # The flush timer reads the coalescing queue: append
                # once the caller's core time has elapsed.
                yield from self.core.settle()
                yield from self._coalesce(q, owner)
                continue
            # Unbatched: the pop above already removed the op, so the
            # expiry paths cannot fail it over while we consume core
            # time to submit it.
            yield from self._pay_submit(1, owner)
            if not self._paused(q.job):
                continue
            submitted = self._try_submit(q.call)
            if submitted is None:
                q.attempts += 1
                s.push_front(q, q.call.op.category)
                break
            self._accept(*submitted, q.call, q.job, q.attempts, q.deadline)
            self._note_admitted(q)
            admitted += 1
        if admitted:
            self._sample_admission(self.core.clock())
        return admitted

    def _sample_admission(self, now: float) -> None:
        obs = self.core.sim.obs
        if obs is None:
            return
        obs.util_sample(f"w{self.core.core_id}.admission", now,
                        self.scheduler.queued,
                        capacity=self.admission_limit or 0)
        for lane in self.scheduler.lanes:
            obs.util_sample(f"w{self.core.core_id}.lane.{lane.name}",
                            now, lane.depth)

    @property
    def queued_batch_ops(self) -> int:
        """Ops sitting in the coalescing queue awaiting a flush."""
        return len(self._batch)

    def flush_batch(self, owner: object) -> Generator:
        """Flush the coalescing queue immediately, regardless of op
        age. The application calls this when it is about to stall —
        every active connection parked waiting on the accelerator —
        where holding ops back for a fuller batch would only idle the
        core (the timeliness constraint, section 3.3)."""
        if self._batch:
            yield from self._flush_batch(owner)

    def should_retry_submit(self, job: AsyncJob) -> bool:
        """After a False :meth:`submit_async`: keep retrying (pause in
        WANT_RETRY), or give up and degrade to software? Gives up once
        the retry budget is spent or no lane can admit traffic."""
        if job.submit_attempts >= self.submit_max_retries:
            return False
        return self._any_lane_available()

    def is_pending(self, job: AsyncJob) -> bool:
        """Is an accepted request for ``job`` still in flight (or
        parked in the coalescing or admission queue)?"""
        return (any(p.job is job for p in self._pending.values())
                or any(q.job is job for q in self._queued()))

    # -- worker lifecycle (drain / crash) -----------------------------------

    @property
    def idle(self) -> bool:
        """No accepted op anywhere in the engine — in flight, in the
        coalescing queue, or awaiting admission. The drained condition
        the lifecycle layer waits on."""
        return not (self._pending or self._batch or self.scheduler.queued)

    def drain_queued(self, owner: object) -> Generator:
        """Worker drain: fail every queued-but-unsubmitted op over to
        software *now*, regardless of age. A draining worker stops
        feeding the accelerator, so an op parked in the coalescing or
        admission queue has nobody left to flush it and would hang its
        connection past the drain deadline. In-flight ops are left to
        complete normally. Returns the jobs resumed."""
        jobs: List[object] = []
        had_admission = bool(self.scheduler.queued)
        for q in self._queued():
            self.ops_drained += 1
            job = yield from self._fail_queued(q, owner)
            if job is not None:
                jobs.append(job)
        if had_admission:
            self._sample_admission(self.core.clock())
        return jobs

    def abort_all(self) -> int:
        """Worker crash: empty every engine table *synchronously* (the
        worker process is dead, nothing can consume its core). Jobs are
        not resumed — their connections died with the worker — but each
        op's open trace is closed ABORTED so nothing leaks from the
        in-flight table. Late accelerator completions for the aborted
        ops are dropped as stale (engine) or tombstoned (pool epoch).
        Returns the number of ops aborted."""
        jobs: List[AsyncJob] = []
        for token in list(self._pending):
            p = self._pending.pop(token)
            self.inflight.decrement(p.call.op.category)
            jobs.append(p.job)
        for q in self._queued():
            self._unqueue(q)
            jobs.append(q.job)
        sim = self.core.sim
        for job in jobs:
            # Detach before closing: the SSL teardown path also aborts
            # the job's trace and must find nothing left to close.
            trace, job.trace = job.trace, None
            if trace is not None and sim.obs is not None:
                sim.obs.abort_open(trace, sim.now)
        self.ops_aborted += len(jobs)
        return len(jobs)

    def poll_and_dispatch(self, owner: object,
                          max_responses: Optional[int] = None
                          ) -> Generator:
        """One polling operation: retrieve completions, settle them
        against the in-flight table, fire each job's registered
        notification (async-queue callback or notification FD), then
        flush the coalescing queue if due — into the capacity the
        drain just freed.

        Stale responses (no table entry — the op already timed out and
        failed over) are dropped. Transport-corrupted responses degrade
        to the software path and still resume the job with a good
        result.

        Returns the list of jobs whose responses were delivered.
        """
        yield from self.core.settle()
        completions = self.backend.poll_completions(max_responses)
        poll_cost = self.backend.poll_cpu_cost(len(completions))
        self.poll_time += poll_cost
        self.core.consume(poll_cost, owner=owner)
        jobs: List[object] = []
        for resp in completions:
            pending = self._pending.pop(resp.token, None)
            if pending is None:
                self.responses_stale += 1
                continue
            usable = self._book_response(pending.call, pending.lane, resp)
            job = pending.job
            trace = job.trace
            if trace is not None and trace.closed:
                trace = None  # aborted at the TLS layer; don't restamp
            if trace is not None:
                trace.absorb_device_marks(resp.device_marks)
            if not usable:
                yield from self._deliver_failure(
                    job, pending.call, pending.lane, owner,
                    SpanStatus.FAILOVER)
            else:
                if trace is not None:
                    trace.mark("delivered", self.core.clock())
                    if resp.error is not None:
                        trace.status = SpanStatus.ERROR
                job.deliver(resp.result, resp.error)
                self.responses_dispatched += 1
                yield from self._notify_job(job, owner)
            jobs.append(job)
        # Flush due coalescing ops AFTER draining completions: the
        # drain just freed ring slots, so the flush lands in capacity
        # the backend actually has.
        if self._batch:
            head_age = self.core.clock() - self._batch[0].enqueued_at
            if (len(self._batch) >= self.batch_size
                    or head_age >= BATCH_TIMEOUT):
                yield from self._flush_batch(owner)
        # Admit queued ops into the in-flight capacity the drain freed.
        if self.scheduler.queued:
            yield from self.admit_queued(owner)
        return jobs

    def check_timeouts(self, owner: object) -> Generator:
        """Expire in-flight requests past their deadline: count the
        timeout against the owning lane's breaker and resume each
        affected job through the software fallback. Queued-but-never-
        submitted ops are expired next — the coalescing queue by the
        flush timer's rules, then the admission lanes. Returns the list
        of jobs resumed."""
        now = self.core.clock()
        expired = [token for token, p in self._pending.items()
                   if now >= p.deadline]
        jobs: List[object] = []
        for token in expired:
            # Re-check: while this generator yields core time, the
            # event loop can poll and settle entries from our snapshot.
            pending = self._pending.pop(token, None)
            if pending is None:
                continue
            self._book_timeout(pending.call, pending.lane)
            job = pending.job
            if not self._paused(job):
                # Job already rescued/aborted elsewhere; the late
                # response (if any) will be dropped as stale.
                continue
            yield from self._deliver_failure(job, pending.call, pending.lane,
                                             owner, SpanStatus.TIMEOUT)
            jobs.append(job)
        if self._batch:
            jobs.extend((yield from self._expire_queued(owner)))
        if self.scheduler.queued:
            jobs.extend((yield from self._expire_queued(owner,
                                                        admission=True)))
            if self.scheduler.queued:
                yield from self.admit_queued(owner)
        return jobs

    def fail_over_job(self, job: AsyncJob, owner: object) -> Generator:
        """Watchdog rescue for a paused job with *no* in-flight request
        (e.g. its ring entry was wiped by an endpoint reset before the
        engine ever saw a response): complete its pending call on the
        CPU and resume it."""
        call = job.pending_call
        if call is None or not self._paused(job):
            return False
        # Drop a queued entry for this job, if any, so a later flush
        # cannot submit (and then deliver) the same op twice.
        for q in self._queued():
            if q.job is job:
                self._unqueue(q)
        yield from self._deliver_failure(job, call, -1, owner,
                                         SpanStatus.TIMEOUT)
        return True

    # -- delivery helpers -------------------------------------------------------

    def _deliver_failure(self, job: AsyncJob, call: CryptoCall, lane: int,
                         owner: object, status: str) -> Generator:
        """Resume a paused job whose offload failed with the software
        failover's result; its trace closes as ``status`` (TIMEOUT:
        deadline missed, lost or never submitted; FAILOVER: corrupted
        response)."""
        trace = job.trace
        # A job aborted at the TLS layer (connection torn down while
        # its op was still in flight) closes its trace immediately;
        # this late retirement must not restamp it — a "delivered"
        # mark after ``finished`` breaks span well-formedness.
        if trace is not None and trace.closed:
            trace = None
        if trace is not None:
            # The SSL driver closes the trace when the job resumes.
            trace.status = status
        result = self.execute_fallback(call, owner, lane)
        job.deliver(result, None)
        if trace is not None and not trace.closed:
            trace.mark("delivered", self.core.clock())
        yield from self._notify_job(job, owner)

    def _notify_job(self, job: AsyncJob, owner: object) -> Generator:
        """The response callback (paper section 4.4): kernel-bypass
        callback wins if set; otherwise the FD-based path.

        The FD write always settles first. The kernel-bypass callback
        appends to the event loop's user-space queue, which only the
        loop reads: run by the loop itself (in-loop polling) it is
        nobody else's business, so only another process settles
        first."""
        core = self.core
        callback, arg = job.wait_ctx.get_callback()
        if callback is not None:
            core.consume(ASYNC_QUEUE_COST, owner=owner)
            if core.sim.active_process is not self.loop:
                yield from core.settle()
            callback(arg)
        elif job.wait_ctx.notify_fd is not None:
            self.core.kernel_crossing(extra=NOTIFY_FD_WRITE_COST)
            yield from self.core.settle()
            job.wait_ctx.notify_fd.write_event()
