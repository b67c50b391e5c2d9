"""Per-op trace context, propagated along the offload critical path.

An :class:`OpTrace` is created by the SSL driver when it decides to
offload a crypto op (``ssl/async_job`` submission) and rides along with
the offload job through the engine, the backend and the device model;
each layer records the checkpoint timestamps it owns (see
:mod:`repro.obs.span` for the stage map). The context itself is
passive: plain attribute writes, no simulation events, no CPU cost —
which is what keeps tracing side-effect-free on the simulation.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .span import Span, SpanStatus, derive_spans

__all__ = ["OpTrace"]


class OpTrace:
    """The lifecycle record of one offloaded crypto op."""

    __slots__ = ("trace_id", "op", "category", "conn_id", "worker_id",
                 "kind", "backend", "lane", "created", "finished",
                 "status", "marks", "attempts")

    def __init__(self, trace_id: int, op: str, category: str,
                 conn_id: int, worker_id: int, kind: str,
                 created: float) -> None:
        self.trace_id = trace_id
        self.op = op                  # op kind label, e.g. "rsa_priv"
        self.category = category      # asym / cipher / prf
        self.conn_id = conn_id        # -1 for jobless (blocking) ops
        self.worker_id = worker_id    # -1 when the owner is not a worker
        self.kind = kind              # handshake / read / write / blocking
        self.backend = ""             # set on backend acceptance
        self.lane = -1
        self.created = created
        self.finished: Optional[float] = None
        self.status = SpanStatus.OPEN
        #: Checkpoint timestamps (simulated seconds), keys from
        #: :data:`repro.obs.span.MARK_ORDER`.
        self.marks: Dict[str, float] = {}
        #: Submit attempts the op needed before acceptance (ring-full
        #: retries surface here).
        self.attempts = 0

    # -- recording ---------------------------------------------------------

    def mark(self, name: str, when: float) -> None:
        """Record a checkpoint (first write wins: a retried mark keeps
        its original timestamp so stage intervals stay monotone)."""
        if name not in self.marks:
            self.marks[name] = when

    def accept(self, when: float, backend: str, lane: int,
               attempts: int = 0) -> None:
        """The backend admitted the op (ring write / RPC credit)."""
        self.mark("accepted", when)
        self.backend = backend
        self.lane = lane
        self.attempts = attempts

    def absorb_device_marks(self, device_marks: Optional[Dict[str, float]]
                            ) -> None:
        """Copy the device model's checkpoint stamps (ring dequeue,
        engine service, response landing, poll retrieval) off a
        completion."""
        if not device_marks:
            return
        for name, when in device_marks.items():
            if when is not None:
                self.mark(name, when)

    # -- closing -----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self.finished is not None

    def close(self, when: float, status: Optional[str] = None) -> None:
        """Terminate the trace. Idempotent via :attr:`closed` (the
        tracer checks before double-closing)."""
        self.finished = when
        if status is not None:
            self.status = status
        elif self.status == SpanStatus.OPEN:
            self.status = SpanStatus.OK

    # -- derived views --------------------------------------------------------

    @property
    def duration(self) -> Optional[float]:
        return None if self.finished is None else self.finished - self.created

    def spans(self) -> List[Span]:
        """The span tree (root first); only valid once closed."""
        if self.finished is None:
            raise RuntimeError(f"trace #{self.trace_id} is still open")
        return derive_spans(self.op, self.created, self.finished, self.marks)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<OpTrace #{self.trace_id} {self.op} conn={self.conn_id} "
                f"{self.status}>")
