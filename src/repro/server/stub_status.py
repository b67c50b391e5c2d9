"""The stub_status module (paper section 4.3).

Nginx's stub_status counts alive and idle connections; QTLS extends it
to TLS-enabled connections and computes the number of *active* TLS
connections as ``TCactive = TCalive - TCidle``. An idle connection is
one waiting for a request from the end client (including keepalive);
active ones are handshaking, reading a request or writing a response.
"""

from __future__ import annotations

__all__ = ["StubStatus"]


class StubStatus:
    """Per-worker connection accounting."""

    def __init__(self) -> None:
        self.tls_alive = 0
        self.tls_idle = 0
        self.total_accepted = 0
        self.total_closed = 0
        # Degradation section (robustness layer): refreshed by the
        # worker from the engine/driver counters, plus the watchdog's
        # own rescue count.
        self.fallback_ops = 0
        self.op_timeouts = 0
        self.open_breakers = 0
        self.submit_failures = 0
        self.watchdog_rescues = 0
        # Offload-backend section: which backend serves this worker
        # and its submission-batching stats.
        self.backend = ""
        self.batches_submitted = 0
        self.batch_ops = 0
        # Instance-pool / admission-control section: refreshed by the
        # worker from the pool and engine counters. ``pool_policy``
        # empty = section hidden (no pool and no admission control).
        self.pool_policy = ""
        self.pool_leases = 0
        self.pool_migrations = 0
        self.admission_limit = 0
        self.admission_queued = 0
        self.admission_peak = 0
        self.admission_admitted = 0
        self._pool_section = False
        # Class-aware scheduler section: arbitration policy plus
        # per-lane depth/served/starved counters. Shown for every async
        # offload engine.
        self.sched_policy = ""
        self.sched_lanes: dict = {}
        self._sched_section = False
        # Lifecycle section (supervision layer): this worker's state
        # machine position, config generation, lease epoch and how many
        # times its slot has been respawned. Empty state = hidden.
        self.lifecycle_state = ""
        self.lifecycle_generation = 0
        self.lifecycle_epoch = 0
        self.lifecycle_respawns = 0
        # Request-tracing section: lifecycle counters published by the
        # worker from the simulation's RequestTracer (all zero when
        # tracing is off).
        self.trace_ops = 0
        self.trace_open = 0
        self.trace_spans = 0
        self.trace_sampled_out = 0
        self.tracing = False
        # Reactor section: per-event-source wake/dispatch stats
        # published by the worker from its reactor registry. Render
        # only — deliberately NOT part of :meth:`counters`, so replay
        # fingerprints stay stable across loop refactors.
        self.reactor_sources: dict = {}

    # -- lifecycle hooks -------------------------------------------------

    def on_accept(self) -> None:
        self.tls_alive += 1
        self.total_accepted += 1

    def on_close(self, was_idle: bool) -> None:
        self.tls_alive -= 1
        if was_idle:
            self.tls_idle -= 1
        self.total_closed += 1
        self._check()

    def on_idle(self) -> None:
        """Connection started waiting for a client request."""
        self.tls_idle += 1
        self._check()

    def on_active(self) -> None:
        """Idle connection received a request (or resumed activity)."""
        self.tls_idle -= 1
        self._check()

    # -- the quantity the heuristic needs ------------------------------------

    @property
    def tls_active(self) -> int:
        """TCactive = TCalive - TCidle."""
        return self.tls_alive - self.tls_idle

    def _check(self) -> None:
        if self.tls_idle < 0 or self.tls_idle > self.tls_alive:
            raise RuntimeError(
                f"stub_status inconsistent: alive={self.tls_alive} "
                f"idle={self.tls_idle}")

    # -- degradation reporting ------------------------------------------------

    def update_degradation(self, *, fallback_ops: int, op_timeouts: int,
                           open_breakers: int, submit_failures: int,
                           backend: str = "", batches_submitted: int = 0,
                           batch_ops: int = 0) -> None:
        """Refresh the offload-health counters (worker watchdog)."""
        self.fallback_ops = fallback_ops
        self.op_timeouts = op_timeouts
        self.open_breakers = open_breakers
        self.submit_failures = submit_failures
        if backend:
            self.backend = backend
        self.batches_submitted = batches_submitted
        self.batch_ops = batch_ops

    @property
    def mean_batch_size(self) -> float:
        return (self.batch_ops / self.batches_submitted
                if self.batches_submitted else 0.0)

    def update_pool(self, *, policy: str, leases: int, migrations: int,
                    admission_limit: int, admission_queued: int,
                    admission_peak: int, admission_admitted: int) -> None:
        """Refresh the instance-pool / admission-control counters."""
        self._pool_section = True
        self.pool_policy = policy
        self.pool_leases = leases
        self.pool_migrations = migrations
        self.admission_limit = admission_limit
        self.admission_queued = admission_queued
        self.admission_peak = admission_peak
        self.admission_admitted = admission_admitted

    def update_scheduler(self, *, policy: str, lanes: dict) -> None:
        """Refresh the class-aware scheduler counters (the worker
        publishes the engine scheduler's snapshot)."""
        self._sched_section = True
        self.sched_policy = policy
        self.sched_lanes = lanes

    def update_lifecycle(self, *, state: str, generation: int,
                         epoch: int, respawns: int) -> None:
        """Refresh the supervision-layer section (the master publishes
        this on every state transition)."""
        self.lifecycle_state = state
        self.lifecycle_generation = generation
        self.lifecycle_epoch = epoch
        self.lifecycle_respawns = respawns

    def update_reactor(self, *, sources: dict) -> None:
        """Refresh the per-source reactor stats (worker watchdog /
        consistent-snapshot reads). ``sources`` maps source name to its
        :meth:`~repro.server.reactor.EventSource.stats` dict, in
        registration order."""
        self.reactor_sources = sources

    def update_trace(self, *, trace_ops: int, trace_open: int,
                     trace_spans: int, trace_sampled_out: int) -> None:
        """Refresh the request-tracing counters (worker watchdog /
        shutdown)."""
        self.tracing = True
        self.trace_ops = trace_ops
        self.trace_open = trace_open
        self.trace_spans = trace_spans
        self.trace_sampled_out = trace_sampled_out

    @property
    def degraded(self) -> bool:
        """Is the offload path currently (or was it ever) impaired?"""
        return (self.fallback_ops > 0 or self.op_timeouts > 0
                or self.open_breakers > 0 or self.watchdog_rescues > 0)

    def counters(self) -> dict:
        """Machine-readable counter snapshot (the render() numbers,
        minus formatting). Read through
        :meth:`~repro.server.worker.Worker.status_snapshot` for a view
        consistent with the engine/driver ledgers."""
        return {
            "tls_alive": self.tls_alive, "tls_idle": self.tls_idle,
            "tls_active": self.tls_active,
            "accepted": self.total_accepted, "closed": self.total_closed,
            "backend": self.backend,
            "batches_submitted": self.batches_submitted,
            "batch_ops": self.batch_ops,
            "fallback_ops": self.fallback_ops,
            "op_timeouts": self.op_timeouts,
            "open_breakers": self.open_breakers,
            "submit_failures": self.submit_failures,
            "watchdog_rescues": self.watchdog_rescues,
            "admission_queued": self.admission_queued,
            "admission_peak": self.admission_peak,
            "admission_admitted": self.admission_admitted,
        }

    def render(self) -> str:
        """The stub_status page text (Nginx style, plus the QTLS
        TLS-connection and offload-degradation extensions)."""
        return (
            f"Active connections: {self.tls_active}\n"
            f"TLS alive: {self.tls_alive} idle: {self.tls_idle} "
            f"active: {self.tls_active}\n"
            f"accepted: {self.total_accepted} closed: {self.total_closed}\n"
            f"offload backend: {self.backend or 'none'} "
            f"batches {self.batches_submitted} "
            f"mean_batch {self.mean_batch_size:.2f}\n"
            f"offload degradation: fallback_ops {self.fallback_ops} "
            f"op_timeouts {self.op_timeouts} "
            f"open_breakers {self.open_breakers} "
            f"submit_failures {self.submit_failures} "
            f"watchdog_rescues {self.watchdog_rescues}\n"
            + (f"instance pool: policy {self.pool_policy or 'none'} "
               f"leases {self.pool_leases} "
               f"migrations {self.pool_migrations} "
               f"admission limit {self.admission_limit} "
               f"queued {self.admission_queued} "
               f"peak {self.admission_peak} "
               f"admitted {self.admission_admitted}\n"
               if self._pool_section else "")
            + (f"offload sched: policy {self.sched_policy} "
               + " ".join(
                   f"{name}[depth {info['depth']} served {info['served']} "
                   f"starved {info['starved']} expired {info['expired']}]"
                   for name, info in self.sched_lanes.items())
               + "\n"
               if self._sched_section else "")
            + (f"lifecycle: state {self.lifecycle_state} "
               f"generation {self.lifecycle_generation} "
               f"epoch {self.lifecycle_epoch} "
               f"respawns {self.lifecycle_respawns}\n"
               if self.lifecycle_state else "")
            + (f"trace: ops {self.trace_ops} open {self.trace_open} "
               f"spans {self.trace_spans} "
               f"sampled_out {self.trace_sampled_out}\n"
               if self.tracing else "")
            + ("reactor: "
               + " ".join(
                   f"{name}[wakes {s['wakes']} events {s['events']} "
                   f"busy {s['busy'] * 1e6:.1f}us]"
                   for name, s in self.reactor_sources.items())
               + "\n"
               if self.reactor_sources else "")
        )
