"""The stub_status module (paper section 4.3).

Nginx's stub_status counts alive and idle connections; QTLS extends it
to TLS-enabled connections and computes the number of *active* TLS
connections as ``TCactive = TCalive - TCidle``. An idle connection is
one waiting for a request from the end client (including keepalive);
active ones are handshaking, reading a request or writing a response.

The page owns only the connection accounting and the watchdog's rescue
count. Every other value it shows — offload backend, degradation,
instance pool, scheduler, lifecycle, tracing and loop-stage stats — is
read from the object that owns it when :meth:`StubStatus.counters` or
:meth:`StubStatus.render` is called, so a read is never stale and never
writes anything.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..offload.engine import AsyncOffloadEngine

if TYPE_CHECKING:  # pragma: no cover
    from .worker import Worker

__all__ = ["StubStatus"]


class StubStatus:
    """Per-worker connection accounting plus a live view of the
    worker's offload, supervision, tracing and event-loop state."""

    def __init__(self, worker: Optional["Worker"] = None) -> None:
        #: The worker whose layers the page reads (None: a bare
        #: connection counter, as in unit tests).
        self.worker = worker
        self.tls_alive = 0
        self.tls_idle = 0
        self.total_accepted = 0
        self.total_closed = 0
        #: Stuck connections the worker's watchdog sweep rescued.
        self.watchdog_rescues = 0

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

    # -- live reads ------------------------------------------------------------

    def _engine(self) -> Optional[AsyncOffloadEngine]:
        """The worker's async offload engine, if it has one (the
        offload sections are hidden / zero otherwise)."""
        eng = getattr(self.worker, "engine", None)
        return eng if isinstance(eng, AsyncOffloadEngine) else None

    @property
    def mean_batch_size(self) -> float:
        eng = self._engine()
        return eng.mean_batch_size if eng is not None else 0.0

    @property
    def degraded(self) -> bool:
        """Is the offload path currently (or was it ever) impaired?"""
        c = self.counters()
        return (c["fallback_ops"] > 0 or c["op_timeouts"] > 0
                or c["open_breakers"] > 0 or self.watchdog_rescues > 0)

    def counters(self) -> dict:
        """Machine-readable counter snapshot (the render() numbers,
        minus formatting), read live from the engine ledgers."""
        eng = self._engine()
        on = eng is not None
        return {
            "tls_alive": self.tls_alive, "tls_idle": self.tls_idle,
            "tls_active": self.tls_active,
            "accepted": self.total_accepted, "closed": self.total_closed,
            "backend": eng.backend.name if on else "",
            "batches_submitted": eng.batches_submitted if on else 0,
            "batch_ops": eng.ops_offloaded if on else 0,
            "fallback_ops": eng.ops_fallback if on else 0,
            "op_timeouts": eng.op_timeouts if on else 0,
            "open_breakers": eng.open_breakers if on else 0,
            "submit_failures": eng.submit_rejections if on else 0,
            "watchdog_rescues": self.watchdog_rescues,
            "admission_queued": eng.admission_queued if on else 0,
            "admission_peak": eng.admission_peak if on else 0,
            "admission_admitted": eng.admission_admitted if on else 0,
        }

    def render(self) -> str:
        """The stub_status page text (Nginx style, plus the QTLS
        TLS-connection and offload-degradation extensions)."""
        c = self.counters()
        eng = self._engine()
        w = self.worker
        lines = [
            f"Active connections: {self.tls_active}",
            f"TLS alive: {self.tls_alive} idle: {self.tls_idle} "
            f"active: {self.tls_active}",
            f"accepted: {self.total_accepted} closed: {self.total_closed}",
            f"offload backend: {c['backend'] or 'none'} "
            f"batches {c['batches_submitted']} "
            f"mean_batch {self.mean_batch_size:.2f}",
            f"offload degradation: fallback_ops {c['fallback_ops']} "
            f"op_timeouts {c['op_timeouts']} "
            f"open_breakers {c['open_breakers']} "
            f"submit_failures {c['submit_failures']} "
            f"watchdog_rescues {self.watchdog_rescues}",
        ]
        if eng is not None:
            pool = getattr(eng.backend, "pool", None)
            if pool is not None:
                policy, leases, migrations = (
                    pool.policy.name,
                    len(pool.leases[eng.backend.worker_id]),
                    pool.migrations)
            else:
                policy, leases, migrations = "none", 0, 0
            if pool is not None or eng.admission_limit is not None:
                lines.append(
                    f"instance pool: policy {policy} leases {leases} "
                    f"migrations {migrations} "
                    f"admission limit {eng.admission_limit or 0} "
                    f"queued {c['admission_queued']} "
                    f"peak {c['admission_peak']} "
                    f"admitted {c['admission_admitted']}")
            sched = eng.scheduler.snapshot()
            lines.append(
                f"offload sched: policy {sched['policy']} " + " ".join(
                    f"{name}[depth {info['depth']} served {info['served']} "
                    f"starved {info['starved']} expired {info['expired']}]"
                    for name, info in sched["lanes"].items()))
        record = getattr(w, "record", None)
        if record is not None:
            lines.append(f"lifecycle: state {record.state.value} "
                         f"generation {record.generation} "
                         f"epoch {record.epoch} "
                         f"respawns {record.respawns}")
        obs = getattr(getattr(w, "sim", None), "obs", None)
        if eng is not None and obs is not None:
            t = obs.snapshot_counts()
            lines.append(f"trace: ops {t['trace_ops']} "
                         f"open {t['trace_open']} "
                         f"spans {t['trace_spans']}")
        # Render only — deliberately NOT part of counters(), so replay
        # fingerprints stay stable across loop refactors.
        stages = w.reactor.snapshot() if w is not None else {}
        if stages:
            lines.append("reactor: " + " ".join(
                f"{name}[wakes {s['wakes']} events {s['events']} "
                f"busy {s['busy'] * 1e6:.1f}us]"
                for name, s in stages.items()))
        return "\n".join(lines) + "\n"
