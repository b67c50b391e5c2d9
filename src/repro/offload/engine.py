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
  :meth:`AsyncOffloadEngine.poll_and_dispatch`: submit with a
  registered response cookie and return immediately; a polling scheme
  later retrieves responses and the engine resumes the paused offload
  jobs through their wait-ctx callbacks / notification FDs.

Every async op takes one pipeline. ``submit_async`` submits it
directly or parks it (:meth:`~AsyncOffloadEngine._park`): in the
class-aware admission lanes when admission binds, else in the
coalescing queue when batching. Whichever way it then reaches the
backend — direct submit, batched flush or admission — ``_accept``
enters it into the in-flight table; a queued op that leaves its queue
any other way (expiry, drain, rescue, abort) goes through ``_unqueue``.

Submission batching (``batch_size > 1``): instead of one
doorbell/RPC per op, ``submit_async`` parks ops in a coalescing queue
and flushes up to ``batch_size`` of them in a single
``submit_batch`` backend call, amortizing the per-submit cost
(``backend.submit_cpu_cost`` grows sub-linearly in the batch size).
Flush triggers, in order of precedence:

1. the queue reaches ``batch_size`` ops (inside ``submit_async``);
2. a polling operation finds the head of the queue due;
3. a dedicated flush timer fires ``batch_timeout`` after the oldest
   queued op was enqueued — so latency-sensitive handshakes never
   stall behind an under-filled batch.

The flush path only ever *submits*; queued ops that can no longer
reach the backend (retry budget spent, deadline passed, every lane's
breaker open) are failed over to the software path by the timer and by
:meth:`check_timeouts` — never synchronously inside ``submit_async``,
where the caller has not yet armed the job's wait context.

With the default ``batch_size=1`` the engine behaves exactly like the
pre-batching QAT engine: one submit per op, False returned on
ring-full so the SSL layer can pause the job in WANT_RETRY.
"""

from __future__ import annotations

from collections import deque
from typing import (Any, Deque, Dict, Generator, Iterable, Iterator, List,
                    Optional, Set, Tuple)

from ..core.costmodel import CostModel
from ..cpu.core import Core
from ..crypto.ops import CryptoOpKind
from ..net.epoll_sim import NOTIFY_FD_WRITE_COST
from ..obs.span import SpanStatus
from ..tls.actions import CryptoCall
from .backend import OffloadBackend, OpSpec
from .errors import OffloadTimeout
from .health import CircuitBreaker, PendingOp
from .inflight import InflightCounters
from .scheduler import ClassScheduler

__all__ = ["AsyncOffloadEngine", "ALGORITHM_GROUPS",
           "backoff_jitter_fraction"]

_MASK64 = (1 << 64) - 1


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
    """One op parked in the coalescing queue, waiting for a flush."""

    __slots__ = ("call", "job", "enqueued_at", "deadline", "attempts",
                 "seq", "conn")

    def __init__(self, call: CryptoCall, job: Any, enqueued_at: float,
                 deadline: float) -> None:
        self.call = call
        self.job = job
        self.enqueued_at = enqueued_at
        self.deadline = deadline
        self.attempts = 0
        self.seq = -1  # global arrival order, stamped by the scheduler
        self.conn = getattr(job, "conn_id", None)


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
                 busy_poll_slice: float = 1.5e-6,
                 request_deadline: float = 25e-3,
                 submit_max_retries: int = 32,
                 breaker_failure_threshold: int = 5,
                 breaker_reset_timeout: float = 10e-3,
                 software_fallback: bool = True,
                 batch_size: int = 1,
                 batch_timeout: float = 50e-6,
                 admission_limit: Optional[int] = None,
                 sched_policy: str = "fifo",
                 sched_weights: Optional[Dict[str, int]] = None,
                 conn_budget: Optional[int] = None,
                 backoff_jitter_seed: Optional[int] = None) -> None:
        if request_deadline <= 0:
            raise ValueError("request deadline must be positive")
        if submit_max_retries < 1:
            raise ValueError("need at least one submit attempt")
        if batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if batch_timeout <= 0:
            raise ValueError("batch timeout must be positive")
        if admission_limit is not None and admission_limit < 1:
            raise ValueError("admission limit must be >= 1")
        self.backend = backend
        self._rr = 0
        self.core = core
        self.cost_model = cost_model
        self.busy_poll_slice = busy_poll_slice
        self.request_deadline = request_deadline
        self.submit_max_retries = submit_max_retries
        self.software_fallback = software_fallback
        self.batch_size = batch_size
        self.batch_timeout = batch_timeout
        #: None = no jitter (bit-for-bit the historical backoff). Set
        #: per worker (from its RNG stream) so simultaneous ring-full
        #: rejections across workers retry at different instants.
        self.backoff_jitter_seed = backoff_jitter_seed
        self.breakers: List[CircuitBreaker] = [
            CircuitBreaker(lambda: self.core.sim.now,
                           failure_threshold=breaker_failure_threshold,
                           reset_timeout=breaker_reset_timeout)
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
        self._flush_timer_active = False
        #: Admission control (``admission_limit`` set): ops accepted by
        #: the engine while ``inflight`` is at the cap. Queued on the
        #: class-aware scheduler's per-class lanes — overload degrades
        #: into bounded queueing instead of ring-full retry storms. NOT
        #: counted in ``inflight`` (they are not on the accelerator and
        #: must not block their own admission). With the default
        #: ``fifo`` policy the lanes drain in global arrival order —
        #: bit-for-bit the historical single FIFO.
        self.admission_limit = admission_limit
        self.sched_policy = sched_policy
        self.conn_budget = conn_budget
        self.scheduler = ClassScheduler(policy=sched_policy,
                                        weights=sched_weights,
                                        conn_budget=conn_budget)
        self.admission_enqueued = 0
        self.admission_admitted = 0
        self.admission_peak = 0
        self.inflight = InflightCounters()
        #: Lifetime accept/retire ledger (monotone; `inflight` is the
        #: running difference). Read by repro.testing invariants to
        #: prove exactly-once retirement; never consulted on hot paths.
        self.ledger_accepted = 0
        self.ledger_retired = 0
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
        # Batching stats (stub_status).
        self.batches_submitted = 0
        self.batch_ops = 0
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

    # -- engine command (paper section 4.3) ---------------------------------

    def get_num_requests_in_flight(self) -> int:
        """The new engine command exposing Rtotal to the application."""
        return self.inflight.total

    def offloads(self, call: CryptoCall) -> bool:
        return (call.op.qat_offloadable
                and call.op.kind in self._enabled_kinds)

    @property
    def open_breakers(self) -> int:
        return sum(1 for b in self.breakers if b.is_open)

    @property
    def submit_failures(self) -> int:
        """Rejected submissions this engine attempted."""
        return self.submit_rejections

    @property
    def mean_batch_size(self) -> float:
        return (self.batch_ops / self.batches_submitted
                if self.batches_submitted else 0.0)

    @property
    def queueing_enabled(self) -> bool:
        """Does the engine park ops in the admission lanes instead of
        bouncing them back to the caller (admission cap, non-default
        arbitration, or per-connection budgets)?"""
        return (self.admission_limit is not None
                or self.sched_policy != "fifo"
                or self.conn_budget is not None)

    @property
    def sched_active(self) -> bool:
        """Non-default scheduling: anything beyond the plain global
        FIFO (used to gate lane reporting so default configs stay
        bit-for-bit identical to the pre-scheduler engine)."""
        return self.sched_policy != "fifo" or self.conn_budget is not None

    # -- in-flight accounting (single source of truth) -----------------------

    def _op_accepted(self, call: CryptoCall, job: object = None) -> None:
        """An op entered the accelerator path (in flight or coalescing
        queue). The ONLY place the per-category Rasym/Rcipher/Rprf
        counters — and the per-connection budget — are charged; the
        poller, stub_status and the scheduler all read these counters
        rather than keeping shadow accounting."""
        self.inflight.increment(call.op.category)
        self.ledger_accepted += 1
        self.scheduler.conn_acquire(getattr(job, "conn_id", None))

    def _op_retired(self, call: CryptoCall, job: object = None) -> None:
        """The op left the accelerator path (delivered, expired,
        drained or aborted): uncharge the same counters."""
        self.inflight.decrement(call.op.category)
        self.ledger_retired += 1
        self.scheduler.conn_release(getattr(job, "conn_id", None))

    def _pick_lane(self) -> Optional[int]:
        """Rotate to the next lane the backend leases to this engine
        and whose breaker admits traffic."""
        n = self.backend.lanes
        for i in range(n):
            idx = (self._rr + i) % n
            if self.backend.admits(idx) and self.breakers[idx].allow():
                self._rr = (idx + 1) % n
                return idx
        return None

    def _try_submit(self, op, compute, cookie=None
                    ) -> Optional[Tuple[Any, int]]:
        """Single-op submission, round-robin across lanes; tries every
        leased lane whose breaker admits traffic before reporting
        ring-full. Returns ``(token, lane)`` or None."""
        n = self.backend.lanes
        for i in range(n):
            idx = (self._rr + i) % n
            if not self.backend.admits(idx):
                continue
            breaker = self.breakers[idx]
            if not breaker.allow():
                continue
            tokens = self.backend.submit_batch(
                [OpSpec(op, compute, cookie=cookie)], idx)
            if tokens[0] is not None:
                self._rr = (idx + 1) % n
                self.batches_submitted += 1
                self.batch_ops += 1
                return tokens[0], idx
            self.submit_rejections += 1
            # Ring-full is backpressure, not ill health: release the
            # half-open probe slot (if one was claimed) unconsumed.
            breaker.cancel_probe()
        return None

    def _any_lane_available(self) -> bool:
        """Non-mutating: could a submission be admitted right now (or
        as soon as ring space frees up)?"""
        return any(b.available() and self.backend.admits(i)
                   for i, b in enumerate(self.breakers))

    def submit_backoff(self, attempts: int) -> float:
        """Exponential backoff before retry number ``attempts + 1``,
        jittered into ``[base/2, base)`` when a jitter seed is set so
        workers that bounced off the same full ring in the same pass
        don't re-collide on every retry."""
        base = min(self.busy_poll_slice * (2 ** max(attempts - 1, 0)),
                   128 * self.busy_poll_slice)
        if self.backoff_jitter_seed is None:
            return base
        frac = backoff_jitter_fraction(self.backoff_jitter_seed, attempts)
        return base * (0.5 + 0.5 * frac)

    # -- software fallback ----------------------------------------------------

    def _execute_software(self, call: CryptoCall, owner: object
                          ) -> Generator:
        cost = self.cost_model.software_cost(call.op)
        yield from self.core.consume(cost, owner=owner)
        self.ops_software += 1
        self.software_crypto_time += cost
        return call.compute()

    def execute_fallback(self, call: CryptoCall, owner: object
                         ) -> Generator:
        """Complete ``call`` on the CPU because the accelerator path is
        degraded (exhausted submit retries / open breakers)."""
        self.ops_fallback += 1
        return (yield from self._execute_software(call, owner))

    def _offload_failed(self, call: CryptoCall, owner: object,
                        exc: BaseException,
                        lane: Optional[int] = None) -> Generator:
        """Offload attempt gave up: degrade to software, or raise the
        typed error when fallback is disabled."""
        if not self.software_fallback:
            raise exc
        self.ops_fallback += 1
        if lane is not None:
            self.backend.lane_stats(lane).fallback_ops += 1
        return (yield from self._execute_software(call, owner))

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
        the software path (or raises :class:`OffloadTimeout`)."""
        if not self.offloads(call):
            return (yield from self._execute_software(call, owner))
        sim = self.core.sim
        obs = getattr(sim, "obs", None)
        trace = (obs.begin(call.op, -1, -1, "blocking", sim.now)
                 if obs is not None and obs.enabled else None)
        submit_cost = self.backend.submit_cpu_cost(1)
        yield from self.core.consume(submit_cost, owner=owner)
        self.submit_time += submit_cost
        submitted = self._try_submit(call.op, call.compute)
        attempts = 1
        while submitted is None:
            if (attempts >= self.submit_max_retries
                    or not self._any_lane_available()):
                if trace is not None:
                    obs.finish(trace, sim.now, SpanStatus.TIMEOUT)
                return (yield from self._offload_failed(
                    call, owner,
                    OffloadTimeout(
                        f"submit of {call.op.kind.name} still rejected "
                        f"after {attempts} attempts")))
            delay = self.submit_backoff(attempts)
            yield from self.core.consume(delay, owner=owner)
            self.blocking_wait_time += delay
            attempts += 1
            submitted = self._try_submit(call.op, call.compute)
        token, lane = submitted
        if trace is not None:
            trace.accept(sim.now, self.backend.name, lane,
                         attempts=attempts - 1)
        self._op_accepted(call)
        self.ops_offloaded += 1
        wait_started = self.core.sim.now
        deadline = wait_started + self.request_deadline
        resp = None
        while resp is None:
            completions = self.backend.poll_completions()
            yield from self.core.consume(
                self.backend.poll_cpu_cost(len(completions)), owner=owner)
            for candidate in completions:
                if candidate.token is token:
                    resp = candidate
                else:
                    # A late response to an op that already timed out.
                    self.responses_stale += 1
            if resp is not None:
                break
            if self.core.sim.now >= deadline:
                self.blocking_wait_time += self.core.sim.now - wait_started
                self._op_retired(call)
                self.op_timeouts += 1
                self.backend.lane_stats(lane).op_timeouts += 1
                self.breakers[lane].record_failure()
                if trace is not None:
                    obs.finish(trace, sim.now, SpanStatus.TIMEOUT)
                return (yield from self._offload_failed(
                    call, owner,
                    OffloadTimeout(
                        f"{call.op.kind.name} response missed its "
                        f"{self.request_deadline * 1e3:.1f}ms deadline"),
                    lane=lane))
            yield from self.core.consume(self.busy_poll_slice, owner=owner)
        self.blocking_wait_time += self.core.sim.now - wait_started
        self._op_retired(call)
        if trace is not None:
            trace.absorb_device_marks(resp.device_marks)
            trace.mark("delivered", sim.now)
        if resp.transport_error:
            self.responses_corrupted += 1
            self.breakers[lane].record_failure()
            if trace is not None:
                obs.finish(trace, sim.now, SpanStatus.FAILOVER)
            return (yield from self._offload_failed(call, owner, resp.error,
                                                    lane=lane))
        self.breakers[lane].record_success()
        if resp.error is not None:
            if trace is not None:
                obs.finish(trace, sim.now, SpanStatus.ERROR)
            raise resp.error
        if trace is not None:
            obs.finish(trace, sim.now)
        return resp.result

    # -- asynchronous offload: one submit pipeline -----------------------------

    def _must_queue(self, job: object) -> bool:
        """Should this submission park in the admission lanes rather
        than go straight to the backend? True at the admission cap,
        behind already-queued ops (so the arbitration policy — global
        FIFO by default — stays authoritative over ordering), or when
        the connection is at its in-flight budget."""
        s = self.scheduler
        if not s.conn_allows(getattr(job, "conn_id", None)):
            return True
        if self.admission_limit is not None and (
                s.queued or self.inflight.total >= self.admission_limit):
            return True
        return self.sched_policy != "fifo" and bool(s.queued)

    def submit_async(self, call: CryptoCall, job: object, owner: object
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
        if self._must_queue(job):
            # At the concurrency cap, behind ops already queued (the
            # arbitration order is part of the contract), or the
            # connection is at its in-flight budget: bounded queueing.
            return self._admission_enqueue(call, job)
        if self.batch_size > 1:
            yield from self._coalesce(self._park(call, job), owner)
            return True
        submit_cost = self.backend.submit_cpu_cost(1)
        yield from self.core.consume(submit_cost, owner=owner)
        self.submit_time += submit_cost
        submitted = self._try_submit(call.op, call.compute, cookie=job)
        if submitted is None:
            if self.queueing_enabled:
                # Ring backpressure with queueing on: park the op
                # instead of bouncing the job into a WANT_RETRY storm.
                return self._admission_enqueue(call, job)
            job.submit_attempts = getattr(job, "submit_attempts", 0) + 1
            return False
        self._accept(*submitted, call, job,
                     attempts=getattr(job, "submit_attempts", 0))
        job.submit_attempts = 0
        return True

    def _accept(self, token: Any, lane: int, call: CryptoCall, job: object,
                attempts: int, deadline: Optional[float] = None,
                charge: bool = True) -> None:
        """The backend took the op: stamp the trace accept, enter it in
        the in-flight table and count it offloaded. The one accept step
        of every route (direct, batched flush, admission). A direct op's
        deadline runs from now; a queued op keeps its enqueue-time one.
        ``charge=False`` for coalescing-queue ops, which ``inflight``
        has counted since enqueue."""
        now = self.core.sim.now
        trace = getattr(job, "trace", None)
        if trace is not None:
            trace.accept(now, self.backend.name, lane, attempts=attempts)
        if deadline is None:
            deadline = now + self.request_deadline
        self._pending[token] = PendingOp(
            call=call, job=job, lane=lane, submitted_at=now,
            deadline=deadline)
        if charge:
            self._op_accepted(call, job)
        self.ops_offloaded += 1

    def _park(self, call: CryptoCall, job: object) -> _QueuedOp:
        """The queue entry for an op that waits inside the engine
        (coalescing queue or admission lanes). Pauses the job first: a
        poll interleaved with a later flush must already find it in a
        deliverable state (the SSL layer marks it paused again after
        ``submit_async`` returns — a no-op)."""
        now = self.core.sim.now
        mark_paused = getattr(job, "mark_paused", None)
        if mark_paused is not None:
            mark_paused(call)
        trace = getattr(job, "trace", None)
        if trace is not None:
            trace.mark("enqueued", now)
        job.submit_attempts = 0
        return _QueuedOp(call, job, now, now + self.request_deadline)

    def _coalesce(self, q: _QueuedOp, owner: object) -> Generator:
        """Append ``q`` to the coalescing queue (counted in ``inflight``
        from here on), flush when full, and keep the flush timer
        armed."""
        self._batch.append(q)
        self._op_accepted(q.call, q.job)
        if len(self._batch) >= self.batch_size:
            yield from self._flush_batch(owner)
        self._arm_flush_timer()

    def _flush_batch(self, owner: object) -> Generator:
        """Submit queued ops, one backend call per chunk of up to
        ``batch_size``. Submit-only: never delivers failures (callers
        may not have armed the jobs' wait contexts yet). Stops on
        backpressure; re-entrant calls (poll interleaved with a flush
        already consuming core time) are no-ops."""
        if self._flushing:
            return
        self._flushing = True
        try:
            while self._batch:
                lane = self._pick_lane()
                if lane is None:
                    return
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
                cost = self.backend.submit_cpu_cost(len(take))
                self.submit_time += cost
                yield from self.core.consume(cost, owner=owner)
                # Re-filter after the yield: check_timeouts may have
                # expired queued ops while we consumed core time.
                chunk = [q for q in take if q in self._batch]
                if not chunk:
                    self.breakers[lane].cancel_probe()
                    return
                specs = [OpSpec(q.call.op, q.call.compute, cookie=q.job)
                         for q in chunk]
                tokens = self.backend.submit_batch(specs, lane)
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
                    self.batch_ops += accepted
                else:
                    self.breakers[lane].cancel_probe()
                if accepted < len(chunk):
                    return  # backpressure: retry the rest later
        finally:
            self._flushing = False

    def _arm_flush_timer(self) -> None:
        """Ensure a flush timer process is running while ops are
        queued. One timer per engine; it exits when the queue drains
        and is re-armed on the next enqueue."""
        if self._flush_timer_active or not self._batch:
            return
        self._flush_timer_active = True
        self.core.sim.process(self._flush_timer_loop(),
                              name="offload-batch-flush")

    def _flush_timer_loop(self) -> Generator:
        sim = self.core.sim
        try:
            while self._batch:
                head = self._batch[0]
                due = min(head.enqueued_at + self.batch_timeout,
                          head.deadline)
                if due > sim.now:
                    yield sim.timeout(due - sim.now)
                    continue
                yield from self._flush_batch(owner=self)
                yield from self._expire_queued(owner=self)
                if self._batch:
                    # The queue could not fully drain (ring pressure /
                    # open breakers). The poll path flushes into freed
                    # capacity as soon as completions drain, so the
                    # timer only needs a coarse safety-net cadence.
                    attempts = max(q.attempts for q in self._batch)
                    yield sim.timeout(max(
                        self.submit_backoff(max(attempts, 1)),
                        self.batch_timeout / 2))
        finally:
            self._flush_timer_active = False

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
            self._op_retired(q.call, q.job)

    @staticmethod
    def _paused(job: object) -> bool:
        """Is ``job`` still waiting on its op, i.e. not rescued or
        aborted elsewhere? Jobs without a state machine always are."""
        state = getattr(job, "state", None)
        return state is None or state.name == "PAUSED"

    def _fail_queued(self, q: _QueuedOp, owner: object,
                     exc: BaseException) -> Generator:
        """Resume the job of an unqueued op through the failure path,
        unless it was rescued or aborted meanwhile. Returns the job
        resumed, or None."""
        if not self._paused(q.job):
            return None
        yield from self._deliver_failure(
            PendingOp(call=q.call, job=q.job, lane=-1,
                      submitted_at=q.enqueued_at, deadline=q.deadline),
            owner, exc)
        return q.job

    def _expire_queued(self, owner: object, admission: bool = False
                       ) -> Generator:
        """Fail over queued ops that can no longer reach the backend:
        deadline passed, no lane admitting traffic, or — coalescing
        queue only — retry budget spent. Walks the coalescing queue, or
        the admission lanes when ``admission`` (whose expiries also
        count on their lane and in the admission timeline). Ops younger
        than ``batch_timeout`` are left alone — their submitter may
        still be arming the wait context, and a later round revisits
        them. Returns jobs resumed."""
        now = self.core.sim.now
        jobs: List[object] = []
        no_lane = not self._any_lane_available()
        for q in self._queued(batch=not admission, admission=admission):
            if now - q.enqueued_at < self.batch_timeout:
                continue
            timed_out = now >= q.deadline
            exhausted = (not admission
                         and q.attempts >= self.submit_max_retries)
            if not (timed_out or exhausted or no_lane):
                continue
            self._unqueue(q)
            if admission:
                self.scheduler.note_expired(q.call.op.category)
                reason = (f"expired in the admission queue after "
                          f"{(now - q.enqueued_at) * 1e3:.1f}ms")
            else:
                reason = (f"never reached the accelerator after "
                          f"{q.attempts} submit attempts")
            if timed_out:
                self.op_timeouts += 1
            job = yield from self._fail_queued(
                q, owner, OffloadTimeout(f"{q.call.op.kind.name} {reason}"))
            if job is not None:
                jobs.append(job)
        if admission and jobs:
            # Sample at the CURRENT time, not the entry snapshot: the
            # failover deliveries above yield core time, and another
            # engine sharing this core's timeline (a draining
            # generation next to its successor) may have sampled a
            # later instant during those yields.
            self._sample_admission(self.core.sim.now)
        return jobs

    # -- admission control ------------------------------------------------------

    @property
    def admission_queued(self) -> int:
        """Ops waiting in the admission lanes (not yet offloaded)."""
        return self.scheduler.queued

    def _admission_capacity(self) -> bool:
        """Is there in-flight headroom to admit another queued op?"""
        return (self.admission_limit is None
                or self.inflight.total < self.admission_limit)

    def _admission_enqueue(self, call: CryptoCall, job: object) -> bool:
        """Park the op on its class lane; always accepted (the job
        pauses exactly as if the op were in flight)."""
        q = self._park(call, job)
        self.scheduler.push(q, call.op.category)
        self.admission_enqueued += 1
        if self.scheduler.queued > self.admission_peak:
            self.admission_peak = self.scheduler.queued
        self._sample_admission(q.enqueued_at)
        return True

    def _note_admitted(self, q: _QueuedOp) -> None:
        """A queued op left the lanes for the accelerator path: feed
        the per-class queue-wait histogram."""
        self.admission_admitted += 1
        obs = getattr(self.core.sim, "obs", None)
        if obs is not None and obs.enabled:
            obs.latency_sample(
                self.backend.name,
                f"sched-wait.{q.call.op.category.sched_class}",
                self.core.sim.now - q.enqueued_at)

    def admit_queued(self, owner: object) -> Generator:
        """Admit queued ops into freed in-flight capacity, in the
        arbitration policy's order (global arrival order under the
        default ``fifo``), through the normal submit path (direct or
        coalescing). Stops on ring backpressure. Returns ops
        admitted."""
        admitted = 0
        s = self.scheduler
        while s.queued and self._admission_capacity():
            q = s.pop()
            if q is None:
                break  # every queued op is budget-blocked
            if not self._paused(q.job):
                # Rescued/aborted while queued; nothing to submit.
                continue
            if self.batch_size > 1:
                self._note_admitted(q)
                admitted += 1
                yield from self._coalesce(q, owner)
                continue
            # Unbatched: the pop above already removed the op, so the
            # expiry paths cannot fail it over while we consume core
            # time to submit it.
            submit_cost = self.backend.submit_cpu_cost(1)
            yield from self.core.consume(submit_cost, owner=owner)
            self.submit_time += submit_cost
            if not self._paused(q.job):
                continue
            submitted = self._try_submit(q.call.op, q.call.compute,
                                         cookie=q.job)
            if submitted is None:
                q.attempts += 1
                s.push_front(q, q.call.op.category)
                break
            self._accept(*submitted, q.call, q.job, q.attempts, q.deadline)
            self._note_admitted(q)
            admitted += 1
        if admitted:
            self._sample_admission(self.core.sim.now)
        return admitted

    def _sample_admission(self, now: float) -> None:
        obs = getattr(self.core.sim, "obs", None)
        if obs is None or not obs.enabled:
            return
        obs.util_sample(f"w{self.core.core_id}.admission", now,
                        self.scheduler.queued,
                        capacity=self.admission_limit or 0)
        if self.sched_active:
            # Per-lane depth timelines only under non-default
            # scheduling, so default-config trace exports stay
            # byte-identical to the pre-scheduler engine.
            for lane in self.scheduler.lanes:
                obs.util_sample(
                    f"w{self.core.core_id}.lane.{lane.name}",
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
        return None

    def should_retry_submit(self, job: object) -> bool:
        """After a False :meth:`submit_async`: keep retrying (pause in
        WANT_RETRY), or give up and degrade to software? Gives up once
        the retry budget is spent or no lane can admit traffic."""
        if getattr(job, "submit_attempts", 0) >= self.submit_max_retries:
            return False
        return self._any_lane_available()

    def is_pending(self, job: object) -> bool:
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
            self._unqueue(q)
            self.ops_drained += 1
            job = yield from self._fail_queued(q, owner, OffloadTimeout(
                f"{q.call.op.kind.name} drained before reaching the "
                "accelerator (worker shutting down)"))
            if job is not None:
                jobs.append(job)
        if had_admission:
            self._sample_admission(self.core.sim.now)
        return jobs

    def abort_all(self) -> int:
        """Worker crash: empty every engine table *synchronously* (the
        worker process is dead, nothing can consume its core). Jobs are
        not resumed — their connections died with the worker — but each
        op's open trace is closed ABORTED so nothing leaks from the
        in-flight table. Late accelerator completions for the aborted
        ops are dropped as stale (engine) or tombstoned (pool epoch).
        Returns the number of ops aborted."""
        sim = self.core.sim
        obs = getattr(sim, "obs", None)
        aborted = 0
        for token in list(self._pending):
            p = self._pending.pop(token)
            self._op_retired(p.call, p.job)
            self._abort_trace(p.job, obs, sim.now)
            aborted += 1
        for q in self._queued():
            self._unqueue(q)
            self._abort_trace(q.job, obs, sim.now)
            aborted += 1
        self.ops_aborted += aborted
        return aborted

    @staticmethod
    def _abort_trace(job: object, obs: Any, now: float) -> None:
        trace = getattr(job, "trace", None)
        if trace is None:
            return
        # Detach before closing: the SSL teardown path also aborts the
        # job's trace and must find nothing left to close.
        job.trace = None
        if obs is not None and obs.enabled:
            obs.abort_open(trace, now)

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
        completions = self.backend.poll_completions(max_responses)
        poll_cost = self.backend.poll_cpu_cost(len(completions))
        self.poll_time += poll_cost
        yield from self.core.consume(poll_cost, owner=owner)
        jobs: List[object] = []
        for resp in completions:
            pending = self._pending.pop(resp.token, None)
            if pending is None:
                self.responses_stale += 1
                continue
            self._op_retired(pending.call, pending.job)
            job = pending.job
            trace = getattr(job, "trace", None)
            if trace is not None and trace.closed:
                trace = None  # aborted at the TLS layer; don't restamp
            if trace is not None:
                trace.absorb_device_marks(resp.device_marks)
            breaker = self.breakers[pending.lane]
            if resp.transport_error:
                self.responses_corrupted += 1
                breaker.record_failure()
                yield from self._deliver_failure(pending, owner, resp.error)
            else:
                breaker.record_success()
                if trace is not None:
                    trace.mark("delivered", self.core.sim.now)
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
            head_age = self.core.sim.now - self._batch[0].enqueued_at
            if (len(self._batch) >= self.batch_size
                    or head_age >= self.batch_timeout):
                yield from self._flush_batch(owner)
        # Admit queued ops into the in-flight capacity the drain freed.
        if self.scheduler.queued:
            yield from self.admit_queued(owner)
        return jobs

    def check_timeouts(self, owner: object) -> Generator:
        """Expire in-flight requests past their deadline: count the
        timeout against the owning lane's breaker and resume each
        affected job through the software fallback (or deliver an
        :class:`OffloadTimeout`). Queued-but-never-submitted ops are
        expired next — the coalescing queue by the flush timer's rules,
        then the admission lanes. Returns the list of jobs resumed."""
        now = self.core.sim.now
        expired = [token for token, p in self._pending.items()
                   if now >= p.deadline]
        jobs: List[object] = []
        for token in expired:
            # Re-check: while this generator yields core time, the
            # event loop can poll and settle entries from our snapshot.
            pending = self._pending.pop(token, None)
            if pending is None:
                continue
            self._op_retired(pending.call, pending.job)
            self.op_timeouts += 1
            self.backend.lane_stats(pending.lane).op_timeouts += 1
            self.breakers[pending.lane].record_failure()
            job = pending.job
            if not self._paused(job):
                # Job already rescued/aborted elsewhere; the late
                # response (if any) will be dropped as stale.
                continue
            exc = OffloadTimeout(
                f"{pending.call.op.kind.name} response missed its "
                f"{self.request_deadline * 1e3:.1f}ms deadline")
            yield from self._deliver_failure(pending, owner, exc)
            jobs.append(job)
        if self._batch:
            jobs.extend((yield from self._expire_queued(owner)))
        if self.scheduler.queued:
            jobs.extend((yield from self._expire_queued(owner,
                                                        admission=True)))
            if self.scheduler.queued:
                yield from self.admit_queued(owner)
        return jobs

    def fail_over_job(self, job: object, owner: object) -> Generator:
        """Watchdog rescue for a paused job with *no* in-flight request
        (e.g. its ring entry was wiped by an endpoint reset before the
        engine ever saw a response): complete its pending call on the
        CPU and resume it."""
        call = getattr(job, "pending_call", None)
        if call is None or getattr(job, "state", None) is None \
                or job.state.name != "PAUSED":
            return False
        # Drop a queued entry for this job, if any, so a later flush
        # cannot submit (and then deliver) the same op twice.
        for q in self._queued():
            if q.job is job:
                self._unqueue(q)
        pending = PendingOp(call=call, job=job, lane=-1,
                            submitted_at=self.core.sim.now,
                            deadline=self.core.sim.now)
        exc = OffloadTimeout(
            f"{call.op.kind.name} lost in flight (no pending entry)")
        yield from self._deliver_failure(pending, owner, exc)
        return True

    # -- delivery helpers -------------------------------------------------------

    def _deliver_failure(self, pending: PendingOp, owner: object,
                         exc: BaseException) -> Generator:
        """Resume a paused job whose offload failed: software-fallback
        result when enabled, the error itself otherwise."""
        job = pending.job
        trace = getattr(job, "trace", None)
        # A job aborted at the TLS layer (connection torn down while
        # its op was still in flight) closes its trace immediately;
        # this late retirement must not restamp it — a "delivered"
        # mark after ``finished`` breaks span well-formedness.
        if trace is not None and trace.closed:
            trace = None
        if trace is not None:
            # Timeouts (deadline missed, lost op, never-submitted) and
            # transport failovers are distinct terminal statuses; the
            # SSL driver closes the trace when the job resumes.
            trace.status = (SpanStatus.TIMEOUT
                            if isinstance(exc, OffloadTimeout)
                            else SpanStatus.FAILOVER)
        if self.software_fallback:
            self.ops_fallback += 1
            if pending.lane >= 0:
                self.backend.lane_stats(pending.lane).fallback_ops += 1
            result = yield from self._execute_software(pending.call, owner)
            job.deliver(result, None)
        else:
            job.deliver(None, exc)
        # Re-check: the software-fallback execution yields core time,
        # and a teardown interrupt in that window closes the trace.
        if trace is not None and not trace.closed:
            trace.mark("delivered", self.core.sim.now)
        yield from self._notify_job(job, owner)

    def _notify_job(self, job: object, owner: object) -> Generator:
        """The response callback (paper section 4.4): kernel-bypass
        callback wins if set; otherwise the FD-based path."""
        callback, arg = job.wait_ctx.get_callback()
        if callback is not None:
            yield from self.core.consume(
                self.cost_model.async_queue_cost, owner=owner)
            callback(arg)
        elif job.wait_ctx.notify_fd is not None:
            yield from self.core.kernel_crossing(
                extra=NOTIFY_FD_WRITE_COST)
            job.wait_ctx.notify_fd.write_event()
