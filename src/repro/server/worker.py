"""The event-driven worker process (the paper's modified Nginx worker).

One worker = one event loop on one dedicated core, one QAT instance
(when offloading), one stub_status, and — depending on configuration —
a timer-based polling thread or the integrated heuristic polling
scheme, with FD-based or kernel-bypass async event notification.

The four phases of the QTLS framework map onto this file as:

1. *pre-processing* — a handler drives the SSL layer until
   ``WANT_ASYNC``: the offload job pauses, the connection enters the
   TLS-ASYNC state and the loop moves on to other connections;
2. *QAT response retrieval* — :class:`HeuristicPoller` checks fire
   after every handler invocation (or the timer thread polls);
3. *async event notification* — the response callback appends the
   async handler to the worker's async queue, a plain deque
   (kernel-bypass), or writes the connection's notification FD (FD
   mode);
4. *post-processing* — the worker pops the queue at the end of the
   loop (or sees the FD readable in epoll) and reschedules the saved
   handler, which resumes the paused job.

The loop is plain code, one pass at a time: ``_next_timeout`` picks
the epoll timeout (0 while the async queue holds events, else the next
due retry or, under heuristic retrieval, the spin timeout while ops are
in flight); ``_dispatch`` routes each ready pollable (listen socket,
notification FD, connection socket) and the heuristic check follows
every handler; the end-of-pass stages then run in a fixed order —
async-queue drain, due retries, heuristic check, batch flush, admission
drain, drain pass. The timer polling thread, the interrupt retriever
and the failover and watchdog sweeps are started and stopped by
:meth:`Worker.start`, :meth:`Worker.stop` and :meth:`Worker.kill`.
Each stage's ``wakes``/``events``/``busy`` live in
:mod:`repro.server.reactor`'s counter table (``worker.reactor``).

CPU charges stay owed until the worker next does something another
process can see (:mod:`repro.cpu.core`): it settles before every
socket accept/recv/send/close; epoll and the offload engine settle
their own acts. Times taken inside a chain — stage ``busy``,
``async_since``, retry deadlines — read ``core.clock()``.
"""

from __future__ import annotations

from collections import deque
from typing import (TYPE_CHECKING, Deque, Dict, Generator, List, Optional,
                    Tuple)

from ..core.costmodel import (ACCEPT_COST, ASYNC_QUEUE_COST, CLOSE_COST,
                              EVENT_DISPATCH_COST, HTTP_REQUEST_COST,
                              NET_RX_FIXED, net_tx_cost)
from ..cpu.core import Core
from ..offload.engine import AsyncOffloadEngine
from ..net.epoll_sim import (EPOLL_CTL_COST, NOTIFY_FD_READ_COST, Epoll,
                             NotifyFd)
from ..net.network import Listener
from ..net.socket_sim import SimSocket
from ..sim.process import Interrupt
from ..ssl.connection import SslConnection
from ..ssl.status import SslStatus
from ..tls.actions import TlsAlert
from ..tls.record import TlsRecord
from .config import ServerConfig
from .connection import ConnState, ServerConnection
from .http import RESPONSE_HEADER_SIZE, parse_request
from .polling.heuristic import HeuristicPoller
from .polling.timer_thread import TimerPollingThread
from .reactor import SPIN_TIMEOUT, StageCounters
from .stub_status import StubStatus

if TYPE_CHECKING:  # pragma: no cover
    from .lifecycle import WorkerRecord

__all__ = ["Worker", "WorkerMetrics", "SPIN_TIMEOUT"]


class WorkerMetrics:
    """Counters the bench harness samples."""

    def __init__(self) -> None:
        self.handshakes_full = 0
        self.handshakes_resumed = 0
        self.requests_served = 0
        self.bytes_sent = 0
        self.connections_closed = 0
        self.alerts = 0

    def snapshot(self) -> dict:
        return dict(self.__dict__)


class Worker:
    """One Nginx-like worker process."""

    def __init__(self, sim, worker_id: int, core: Core, listener: Listener,
                 ssl_ctx_factory, config: ServerConfig,
                 generation: int = 0) -> None:
        self.sim = sim
        self.worker_id = worker_id
        self.core = core
        self.listener = listener
        self.config = config
        #: Config generation this worker was spawned under (bumped by
        #: each graceful reload; see repro.server.lifecycle).
        self.generation = generation
        self.ssl_ctx = ssl_ctx_factory(self)
        self.engine = self.ssl_ctx.engine

        self.epoll = Epoll(sim)
        self.epoll.register(listener)
        self.stub_status = StubStatus(self)
        #: The application-defined async queue (kernel-bypass
        #: notification, section 3.4): the response callback appends
        #: ``(conn, async_token)`` with no kernel involvement, and the
        #: loop drains it at the end of each pass.
        self.async_queue: Deque[Tuple[ServerConnection, int]] = deque()
        #: (conn, async_token) pairs: stale entries (token mismatch)
        #: are dropped instead of re-resuming an already-resumed conn.
        self.retries: Deque[Tuple[ServerConnection, int]] = deque()
        self.metrics = WorkerMetrics()

        self.conns: Dict[SimSocket, ServerConnection] = {}
        self.fd_conns: Dict[NotifyFd, ServerConnection] = {}
        self._conn_seq = 0
        self.running = True
        #: Graceful drain (reload): stopped accepting, serving only the
        #: connections already open; exits once they finish.
        self.draining = False
        #: The event-loop process, so the supervisor can watch for exit
        #: and interrupt it on a crash.
        self.proc = None
        #: This incarnation's supervision record (set by
        #: WorkerSupervisor.watch); the stub_status lifecycle line
        #: reads it.
        self.record: Optional["WorkerRecord"] = None

        # Response retrieval scheme (only meaningful with async offload).
        self.poller: Optional[HeuristicPoller] = None
        self.timer_thread: Optional[TimerPollingThread] = None
        self.interrupt_retriever = None
        #: Wakes the loop out of a blocked epoll_wait when responses
        #: are dispatched OUTSIDE the loop (timer thread / interrupts)
        #: while queue-mode notifications would otherwise sit unseen.
        self.wake_fd: Optional[NotifyFd] = None
        #: Submission batching active: flush the engine's coalescing
        #: queue at the end of every event-loop pass.
        self._batching = False
        #: Admission cap set: admit queued ops at the end of every
        #: event-loop pass (into capacity completions freed).
        self._admission_on = False
        eng_cfg = config.ssl_engine
        if config.async_offload and isinstance(self.engine, AsyncOffloadEngine):
            self._batching = self.engine.batch_size > 1
            self._admission_on = self.engine.admission_limit is not None
            out_of_loop = (eng_cfg.qat_notify_mode == "interrupt"
                           or eng_cfg.qat_poll_mode == "timer"
                           # The watchdog also dispatches outside the
                           # loop (fallback deliveries while epoll is
                           # blocked).
                           or eng_cfg.qat_watchdog_interval > 0)
            if out_of_loop and config.async_notify_mode == "queue":
                self.wake_fd = NotifyFd(sim, label=f"w{worker_id}-wake")
                self.epoll.register(self.wake_fd)
            wake = (self.wake_fd.write_event if self.wake_fd is not None
                    else None)
            if eng_cfg.qat_notify_mode == "interrupt":
                from .polling.interrupt_mode import InterruptRetriever
                self.interrupt_retriever = InterruptRetriever(
                    sim, self.engine, name=f"w{worker_id}-irq", wake=wake)
                self.interrupt_retriever.arm()
            elif eng_cfg.qat_poll_mode == "heuristic":
                self.poller = HeuristicPoller(
                    self.engine, self.stub_status,
                    asym_threshold=eng_cfg.qat_heuristic_poll_asym_threshold,
                    sym_threshold=eng_cfg.qat_heuristic_poll_sym_threshold)
            else:
                self.timer_thread = TimerPollingThread(
                    sim, self.engine,
                    interval=eng_cfg.qat_timer_poll_interval,
                    name=f"w{worker_id}-poller", wake=wake)

        # Background sweeps. The failover sweep backs up the in-loop
        # heuristic scheme only: timer and interrupt retrieval run out
        # of loop and cannot stall below a poll threshold.
        self._failover_interval = (
            eng_cfg.qat_failover_timer if self.poller is not None else 0.0)
        self._watchdog_interval = (
            eng_cfg.qat_watchdog_interval
            if (config.async_offload
                and isinstance(self.engine, AsyncOffloadEngine))
            else 0.0)

        # Per-stage counters, in loop order: pollable routing, the
        # end-of-pass stages (with the retrieval scheme in the
        # heuristic's slot), then the background sweeps.
        names = ["listener", "notify-fd", "socket", "async-queue",
                 "retries"]
        if self.interrupt_retriever is not None:
            names.append("interrupt")
        elif self.poller is not None:
            names.append("heuristic")
        elif self.timer_thread is not None:
            names.append("timer-poll")
        if self._batching:
            names.append("batch-flush")
        if self._admission_on:
            names.append("admission")
        names.append("drain")
        if self._failover_interval > 0:
            names.append("failover")
        if self._watchdog_interval > 0:
            names.append("watchdog")
        self.reactor = StageCounters(names)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Start the event loop, then the background work: the timer
        polling thread and the failover and watchdog sweeps."""
        self.proc = self.sim.process(
            self._event_loop(),
            name=f"worker-{self.worker_id}.g{self.generation}")
        if isinstance(self.engine, AsyncOffloadEngine):
            self.engine.loop = self.proc
        if self.timer_thread is not None:
            self.timer_thread.start()
        if self._failover_interval > 0:
            self.sim.process(self._failover_sweep(),
                             name=f"w{self.worker_id}-failover")
        if self._watchdog_interval > 0:
            self.sim.process(self._watchdog_sweep(),
                             name=f"w{self.worker_id}-watchdog")

    def stop(self) -> None:
        self.running = False
        self._stop_retrieval()
        self._sample_reactor()

    def _stop_retrieval(self) -> None:
        """Stop the out-of-loop retrieval (idempotent): the timer thread
        cancels its pending tick and the interrupt retriever unhooks its
        ring callbacks, so nothing dispatches into a dead engine. The
        sweeps are not interrupted: they observe ``running`` and exit
        at their next tick (interrupting them would perturb the event
        heap for no benefit)."""
        if self.timer_thread is not None:
            self.timer_thread.stop()
        if self.interrupt_retriever is not None:
            self.interrupt_retriever.disarm()

    def begin_drain(self) -> None:
        """nginx SIGHUP: hand the listen socket to the new generation
        and stop accepting. Connections already open keep being served
        until they finish (or the supervisor's drain deadline
        force-aborts them); the event loop exits on its own once
        :attr:`drained`."""
        if self.draining:
            return
        self.draining = True
        if self.epoll.is_registered(self.listener):
            self.epoll.unregister(self.listener)

    @property
    def drained(self) -> bool:
        """No connections left and nothing inside the offload engine."""
        if self.conns:
            return False
        if isinstance(self.engine, AsyncOffloadEngine):
            return self.engine.idle
        return True

    def kill(self) -> None:
        """Crash (or drain-deadline force-abort) teardown: the process
        dies mid-pass, its sockets close (clients see EOF) and every
        open offload op is aborted out of the engine tables.
        Synchronous — a dead process consumes no core time."""
        self.running = False
        self._stop_retrieval()
        if self.proc is not None and self.proc.is_alive:
            self.proc.interrupt("worker killed")
        for conn in list(self.conns.values()):
            was_idle = conn.stub_idle
            conn.stub_idle = False
            conn.state = ConnState.CLOSED
            conn.ssl.abort_job()
            if not conn.sock.closed:
                conn.sock.close()
            self.stub_status.on_close(was_idle=was_idle)
            self.metrics.connections_closed += 1
        self.conns.clear()
        self.fd_conns.clear()
        self.retries.clear()
        self.async_queue.clear()
        if isinstance(self.engine, AsyncOffloadEngine):
            self.engine.abort_all()
        # Detach the dead epoll from everything it watched, so sockets
        # and the (possibly reused) listener stop notifying it.
        for p in list(self.epoll._watched):
            self.epoll.unregister(p)
        self._sample_reactor()

    # -- the main event loop (paper section 2.2 / 3.4) -----------------------------

    def _event_loop(self) -> Generator:
        core = self.core
        try:
            while self.running:
                timeout = self._next_timeout()
                ready = yield from self.epoll.wait(core, owner=self,
                                                   timeout=timeout)
                for p in ready:
                    core.consume(EVENT_DISPATCH_COST, owner=self)
                    yield from self._dispatch(p)
                    yield from self._heuristic_check()
                # Post-processing phase: the end-of-pass stages, each
                # timed into its stage's ``busy`` (the heuristic check
                # times itself).
                stage = self.reactor.stages
                if self.async_queue:
                    t0 = core.clock()
                    yield from self._drain_async_queue()
                    stage["async-queue"].busy += core.clock() - t0
                if self.retries:
                    t0 = core.clock()
                    yield from self._process_retries()
                    stage["retries"].busy += core.clock() - t0
                yield from self._heuristic_check()
                eng = self.engine
                if self._batching and eng.queued_batch_ops:
                    # Ops the handlers coalesced this pass go out in one
                    # doorbell/RPC: batching adds no cross-pass latency.
                    t0 = core.clock()
                    yield from eng.flush_batch(owner=self)
                    stage["batch-flush"].busy += core.clock() - t0
                if self._admission_on and eng.admission_queued:
                    # Admit queued ops into the capacity completions
                    # freed this pass.
                    t0 = core.clock()
                    yield from eng.admit_queued(owner=self)
                    stage["admission"].busy += core.clock() - t0
                if self.draining:
                    t0 = core.clock()
                    yield from self._drain_pass()
                    stage["drain"].busy += core.clock() - t0
                    if self.drained:
                        # Old generation finished its last connection:
                        # exit; the supervisor retires the lease epoch.
                        self.running = False
            yield from core.settle()
        except Interrupt:
            # Killed by the supervision layer (crash injection or a
            # drain-deadline force-abort); Worker.kill() already tore
            # the tables down.
            return

    def _next_timeout(self) -> Optional[float]:
        """The epoll timeout, credited to the stage that set it: 0 while
        the async queue holds events, else the earliest of the next due
        retry and (under heuristic retrieval) the spin timeout while ops
        are in flight or admission-queued; a tie goes to the retry.
        None (block until an event arrives) when nothing constrains the
        pass."""
        if self.async_queue:
            self.reactor.stages["async-queue"].wakes += 1
            return 0.0
        timeout: Optional[float] = None
        winner = None
        if self.retries:
            due = min(c.retry_not_before for c, _ in self.retries)
            timeout = max(0.0, due - self.core.clock())
            winner = "retries"
        if self.poller is not None:
            eng = self.engine
            if ((eng.inflight.total > 0 or eng.admission_queued > 0)
                    and (timeout is None or SPIN_TIMEOUT < timeout)):
                timeout = SPIN_TIMEOUT
                winner = "heuristic"
        if winner is not None:
            self.reactor.stages[winner].wakes += 1
        return timeout

    def _dispatch(self, p) -> Generator:
        """Route one ready pollable: the listen socket accepts (unless
        draining), a notification FD resumes its connection, a
        connection socket runs its handler. Anything else is a stale
        socket event whose connection already closed: dropped."""
        t0 = self.core.clock()
        if p is self.listener:
            stage = self.reactor.stages["listener"]
            if not self.draining:
                yield from self._accept_all()
        elif isinstance(p, NotifyFd):
            stage = self.reactor.stages["notify-fd"]
            yield from self._notify_fd_event(p)
        elif p in self.conns:
            stage = self.reactor.stages["socket"]
            yield from self._socket_event(self.conns[p])
        else:
            return
        stage.busy += self.core.clock() - t0
        stage.events += 1

    def _drain_pass(self) -> Generator:
        """One end-of-pass drain step: ops still queued inside the
        engine (coalescing or admission queue) fail over to software so
        their connections can finish instead of hanging behind an
        accelerator path nobody will keep feeding. The failover
        deliveries notify the jobs' wait contexts, so the next pass
        resumes the connections through the normal async plumbing."""
        if (isinstance(self.engine, AsyncOffloadEngine)
                and (self.engine.queued_batch_ops
                     or self.engine.admission_queued)):
            yield from self.engine.drain_queued(owner=self)
        # The heuristic poller's thresholds are tuned for steady-state
        # throughput; a draining worker's in-flight population dribbles
        # below them and would sit waiting on deadline failovers.
        # Latency is all that matters now — poll every pass.
        if self.poller is not None and self.engine.inflight.total > 0:
            yield from self.engine.poll_and_dispatch(owner=self)
        return None

    def _heuristic_check(self) -> Generator:
        """The paper's per-handler heuristic hook: evaluated after
        every dispatched event, every async-queue resume and once at
        the end of every pass (a no-op under timer/interrupt
        retrieval). The only place the ``heuristic`` stage's busy time
        is counted."""
        if self.poller is not None:
            t0 = self.core.clock()
            yield from self.poller.check(owner=self)
            self.reactor.stages["heuristic"].busy += self.core.clock() - t0
        return None

    def _failover_sweep(self) -> Generator:
        """Section 4.3's failover timer (heuristic retrieval only): if
        no heuristic poll fired during the last interval but requests
        are in flight or admission-queued, poll once."""
        eng = self.engine
        last_polls = 0
        while self.running:
            yield self.sim.timeout(self._failover_interval)
            if (self.poller.polls == last_polls
                    and (eng.inflight.total > 0
                         or eng.admission_queued > 0)):
                yield from eng.poll_and_dispatch(owner="failover")
                yield from self.core.settle()
            last_polls = self.poller.polls

    def _watchdog_sweep(self) -> Generator:
        """Graceful-degradation sweep: expire in-flight requests past
        their deadline (section 4.3's failover generalized to hardware
        faults) and rescue connections stuck in TLS-ASYNC — either the
        notification was lost (response ready, handler never ran) or
        the request itself vanished (e.g. wiped by an endpoint
        reset)."""
        eng = self.engine
        interval = self._watchdog_interval
        stuck_age = eng.request_deadline + 2 * interval
        while self.running:
            yield self.sim.timeout(interval)
            delivered = yield from eng.check_timeouts(owner=self)
            # The scan below reads and requeues the loop's connections:
            # it runs once the expiries' core time has elapsed.
            yield from self.core.settle()
            rescued = 0
            for conn in list(self.conns.values()):
                if not conn.in_async or conn.async_since is None:
                    continue
                job = conn.ssl.job
                if (job is None
                        or self.core.clock() - conn.async_since <= stuck_age):
                    continue
                if job.response_ready:
                    # Response delivered but the handler never ran:
                    # reschedule it directly.
                    conn.retry_not_before = 0.0
                    self.retries.append((conn, conn.async_token))
                    rescued += 1
                elif (job.state.name == "PAUSED"
                        and not eng.is_pending(job)):
                    ok = yield from eng.fail_over_job(job, owner=self)
                    if ok:
                        rescued += 1
            yield from self.core.settle()
            self.stub_status.watchdog_rescues += rescued
            self._sample_reactor()
            if (delivered or rescued) and self.wake_fd is not None:
                # Deliveries happened outside the loop; make sure a
                # blocked epoll_wait sees the queued notifications.
                self.wake_fd.write_event()

    def _sample_reactor(self) -> None:
        """Per-stage wake/busy timelines, sampled at watchdog ticks and
        shutdown so trace size stays bounded by that cadence. Reading
        the stub_status page never samples."""
        obs = self.sim.obs
        if obs is None:
            return
        for name, s in self.reactor.snapshot().items():
            prefix = f"w{self.worker_id}.reactor.{name}"
            obs.util_sample(f"{prefix}.wakes", self.sim.now,
                            s["wakes"] + s["events"])
            obs.util_sample(f"{prefix}.busy", self.sim.now, s["busy"])

    # -- accept path -----------------------------------------------------------------

    def _accept_all(self) -> Generator:
        core = self.core
        while True:
            yield from core.settle()
            sock = self.listener.accept()
            if sock is None:
                return
            core.consume(ACCEPT_COST, owner=self)
            self._conn_seq += 1
            ssl = SslConnection(self.ssl_ctx, self._conn_seq)
            conn = ServerConnection(self._conn_seq, sock, ssl)
            # The socket is this process's from accept() on, and
            # counted as open from then on: a kill() must find it to
            # close it, and closes it on the books too.
            self.conns[sock] = conn
            self.stub_status.on_accept()
            core.kernel_crossing(extra=EPOLL_CTL_COST)
            self.epoll.register(sock)

    # -- socket events ------------------------------------------------------------------

    def _socket_event(self, conn: ServerConnection) -> Generator:
        eof = False
        while True:
            yield from self.core.settle()
            msg = conn.sock.recv()
            if msg is None:
                break
            self.core.consume(NET_RX_FIXED, owner=self)
            if isinstance(msg, bytes) and msg == b"":
                eof = True
                break
            if isinstance(msg, TlsRecord):
                conn.pending_records.append(msg)
            else:
                conn.ssl.feed_message(msg)
        if eof:
            conn.eof_pending = True
        if conn.in_async:
            # Event disorder guard (section 4.2): clear and save the
            # read event; restore it when the async event is processed.
            conn.saved_read_pending = True
            return
        # Process any messages that arrived ahead of the FIN (e.g. the
        # client's final Finished flight + immediate close) before
        # honoring the EOF.
        yield from self._run_state_handler(conn)
        if conn.eof_pending and not conn.in_async \
                and conn.state is not ConnState.CLOSED:
            yield from self._teardown(conn)

    def _run_state_handler(self, conn: ServerConnection) -> Generator:
        if conn.state is ConnState.CLOSED:
            return
        if conn.state is ConnState.HANDSHAKE:
            yield from self._handshake_handler(conn)
        else:
            yield from self._io_handler(conn)

    # -- async plumbing -------------------------------------------------------------------

    def _setup_async(self, conn: ServerConnection, handler) -> None:
        """Enter TLS-ASYNC and arm the notification channel."""
        core = self.core
        conn.enter_async(handler)
        conn.async_since = core.clock()
        job = conn.ssl.job
        if self.config.async_notify_mode == "queue":
            # SSL_set_async_callback: the response callback will insert
            # the async handler at the tail of the async queue.
            job.wait_ctx.set_callback(self.async_queue.append,
                                      (conn, conn.async_token))
        else:
            if conn.notify_fd is not None and not self.config.share_notify_fd:
                # Per-job FDs (the unoptimized variant): retire the
                # previous job's descriptor.
                self.epoll.unregister(conn.notify_fd)
                self.fd_conns.pop(conn.notify_fd, None)
                core.kernel_crossing(extra=EPOLL_CTL_COST)
                conn.notify_fd = None
            if conn.notify_fd is None:
                conn.notify_fd = NotifyFd(self.sim,
                                          label=f"c{conn.conn_id}-async")
                self.fd_conns[conn.notify_fd] = conn
                core.kernel_crossing(extra=EPOLL_CTL_COST)
                self.epoll.register(conn.notify_fd)
            job.wait_ctx.set_fd(conn.notify_fd)

    def _notify_fd_event(self, fd: NotifyFd) -> Generator:
        conn = self.fd_conns.get(fd)
        self.core.kernel_crossing(extra=NOTIFY_FD_READ_COST)
        fd.read_events()
        if conn is not None:
            yield from self._resume_async(conn)
        # The worker wake fd carries no connection: the loop proceeds
        # to drain the async queue.

    def _drain_async_queue(self) -> Generator:
        while self.async_queue:
            conn, token = self.async_queue.popleft()
            self.core.consume(ASYNC_QUEUE_COST, owner=self)
            if token != conn.async_token:
                continue  # already resumed through another channel
            yield from self._resume_async(conn)
            yield from self._heuristic_check()

    def _process_retries(self) -> Generator:
        now = self.core.clock()
        for _ in range(len(self.retries)):
            conn, token = self.retries.popleft()
            if (conn.state is ConnState.CLOSED or not conn.in_async
                    or token != conn.async_token):
                continue
            if conn.retry_not_before > now:
                self.retries.append((conn, token))  # backoff not elapsed
                continue
            yield from self._resume_async(conn)

    def _resume_async(self, conn: ServerConnection) -> Generator:
        """Post-processing: reschedule the saved handler."""
        if conn.state is ConnState.CLOSED or not conn.in_async:
            return  # connection died while the request was in flight
        handler = conn.leave_async()
        yield from handler(conn)
        if (conn.state is not ConnState.CLOSED and conn.saved_read_pending
                and not conn.in_async):
            conn.saved_read_pending = False
            yield from self._run_state_handler(conn)
        if (conn.eof_pending and not conn.in_async
                and conn.state is not ConnState.CLOSED):
            yield from self._teardown(conn)

    def _handle_status(self, conn: ServerConnection, status: SslStatus,
                       handler) -> bool:
        """Common WANT_ASYNC / WANT_RETRY handling; True if paused."""
        if status is SslStatus.WANT_ASYNC:
            self._setup_async(conn, handler)
            return True
        if status is SslStatus.WANT_RETRY:
            self._setup_async(conn, handler)
            job = conn.ssl.job
            if job is not None and isinstance(self.engine, AsyncOffloadEngine):
                # Back off exponentially under ring-full storms instead
                # of spinning the loop at timeout 0.
                conn.retry_not_before = (
                    self.core.clock()
                    + self.engine.submit_backoff(job.submit_attempts))
            self.retries.append((conn, conn.async_token))
            return True
        return False

    # -- handshake handler -----------------------------------------------------------------

    def _handshake_handler(self, conn: ServerConnection) -> Generator:
        try:
            status = yield from conn.ssl.do_handshake(self)
        except TlsAlert as alert:
            self.metrics.alerts += 1
            conn.ssl.invalidate_session()
            yield from self._flush_outbox(conn)
            yield from self._send_alert(conn, alert)
            yield from self._teardown(conn)
            return
        yield from self._flush_outbox(conn)
        paused = self._handle_status(conn, status, self._handshake_handler)
        if paused or status is SslStatus.WANT_READ:
            return
        # OK: established.
        if conn.ssl.handshake_result.resumed:
            self.metrics.handshakes_resumed += 1
        else:
            self.metrics.handshakes_full += 1
        self._mark_idle(conn)
        if conn.pending_records:
            yield from self._io_handler(conn)

    # -- request/response handler ------------------------------------------------------------

    def _io_handler(self, conn: ServerConnection) -> Generator:
        try:
            yield from self._io_loop(conn)
        except TlsAlert as alert:
            self.metrics.alerts += 1
            conn.ssl.invalidate_session()
            yield from self._send_alert(conn, alert)
            yield from self._teardown(conn)

    def _io_loop(self, conn: ServerConnection) -> Generator:
        while conn.state is not ConnState.CLOSED:
            job = conn.ssl.job
            if job is not None and job.kind == "write":
                status, records = yield from conn.ssl.write(None, self)
                if self._handle_status(conn, status, self._io_handler):
                    return
                yield from self._send_records(conn, records)
                continue
            if job is not None and job.kind == "read":
                status, payload = yield from conn.ssl.read_record(None, self)
            elif conn.pending_records:
                self._mark_active(conn)
                record = conn.pending_records.popleft()
                status, payload = yield from conn.ssl.read_record(
                    record, self)
            else:
                self._mark_idle(conn)
                return
            if self._handle_status(conn, status, self._io_handler):
                return
            # A full request payload decrypted.
            self.core.consume(HTTP_REQUEST_COST, owner=self)
            try:
                request = parse_request(payload)
            except ValueError:
                self.metrics.alerts += 1
                yield from self._teardown(conn)
                return
            status, records = yield from conn.ssl.write(
                RESPONSE_HEADER_SIZE + request.size, self)
            if self._handle_status(conn, status, self._io_handler):
                return
            yield from self._send_records(conn, records)

    def _send_records(self, conn: ServerConnection,
                      records: List[TlsRecord]) -> Generator:
        for rec in records:
            wire = rec.wire_size()
            self.core.consume(net_tx_cost(wire), owner=self)
            yield from self.core.settle()
            conn.sock.send(rec, nbytes=wire)
            self.metrics.bytes_sent += wire
        self.metrics.requests_served += 1

    # -- outbox / teardown ----------------------------------------------------------------------

    def _send_alert(self, conn: ServerConnection, alert: TlsAlert
                    ) -> Generator:
        """Fatal alerts go on the wire before closure (RFC 5246 7.2)."""
        from ..tls.messages import Alert
        if conn.sock.closed:
            return
        msg = Alert(description=alert.description.split(":")[0])
        self.core.consume(net_tx_cost(msg.wire_size()), owner=self)
        yield from self.core.settle()
        conn.sock.send(msg, nbytes=msg.wire_size())

    def _flush_outbox(self, conn: ServerConnection) -> Generator:
        for sm in conn.ssl.outbox:
            wire = sm.message.wire_size()
            self.core.consume(net_tx_cost(wire), owner=self)
            yield from self.core.settle()
            if not conn.sock.closed:
                conn.sock.send(sm.message, nbytes=wire)
        conn.ssl.outbox.clear()
        return None

    def _mark_idle(self, conn: ServerConnection) -> None:
        if conn.state is not ConnState.IDLE:
            conn.state = ConnState.IDLE
            conn.stub_idle = True
            self.stub_status.on_idle()

    def _mark_active(self, conn: ServerConnection) -> None:
        if conn.state is ConnState.IDLE:
            conn.stub_idle = False
            self.stub_status.on_active()
            conn.state = ConnState.READING

    def _teardown(self, conn: ServerConnection) -> Generator:
        if conn.state is ConnState.CLOSED:
            return
        conn.state = ConnState.CLOSED
        conn.ssl.abort_job()
        self.core.consume(CLOSE_COST, owner=self)
        yield from self.core.settle()
        self.epoll.unregister(conn.sock)
        if conn.notify_fd is not None:
            self.epoll.unregister(conn.notify_fd)
            self.fd_conns.pop(conn.notify_fd, None)
        self.conns.pop(conn.sock, None)
        conn.sock.close()
        # Read the idle flag only now: the settle above is a yield
        # point, and a kill() interrupt must still see the flag set so
        # it can balance the stub_status books itself.
        was_idle = conn.stub_idle
        conn.stub_idle = False
        self.stub_status.on_close(was_idle=was_idle)
        self.metrics.connections_closed += 1
