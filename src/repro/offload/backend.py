"""The offload-backend seam: what an accelerator must provide.

QTLS's contribution is the asynchronous offload *framework* around the
accelerator, not the ASIC itself (paper section 3). This module pins
down the seam between the backend-agnostic engine
(:class:`~repro.offload.engine.AsyncOffloadEngine`) and a concrete
accelerator:

- :class:`~repro.tls.actions.CryptoCall` — one crypto op handed to
  the backend for submission, as the engine received it;
- :class:`Completion` — one finished op retrieved from the remote
  backend. The QAT backend hands back its
  :class:`~repro.qat.request.QatRequest` objects instead: each request
  is its own completion and reads the same attribute names;
- :class:`LaneStats` — per-lane degradation/throughput counters the
  engine charges and stub_status reports;
- :class:`OffloadBackend` — the protocol itself: batched non-blocking
  submission, non-blocking completion retrieval, CPU-cost accounting
  for both (charged by the *caller*, since they run on the worker's
  core), and capacity introspection.

Backends are passive from the engine's point of view: ``submit_batch``
and ``poll_completions`` never block and never consume simulated CPU
themselves. A backend models its device/service latency with sim
events internally and surfaces finished work through
``poll_completions`` only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..tls.actions import CryptoCall

__all__ = ["Completion", "LaneStats", "OffloadBackend"]


@dataclass
class Completion:
    """One finished op retrieved from the backend.

    ``token`` is the opaque per-request identity returned by
    ``submit_batch`` — the engine keys its in-flight table on it.
    ``transport_error`` marks failures of the offload *path* (corrupted
    response, device fault): the engine degrades those to the software
    crypto path. A plain ``error`` is a crypto-level failure and is
    delivered to the job as-is.
    """

    token: Any
    result: Any = None
    error: Optional[BaseException] = None
    transport_error: bool = False
    #: Device-side checkpoint timestamps for request-lifecycle tracing
    #: (mark name -> simulated time; see :mod:`repro.obs.span`). None
    #: when the backend does not record them.
    device_marks: Optional[Dict[str, float]] = None


@dataclass
class LaneStats:
    """Per-lane counters shared between backend and engine."""

    submitted: int = 0
    submit_failures: int = 0
    op_timeouts: int = 0
    fallback_ops: int = 0


class OffloadBackend:
    """Abstract accelerator backend.

    A backend exposes one or more *lanes*: independently failable
    submission channels (QAT crypto instances, remote connections).
    The engine owns one circuit breaker per lane and picks the lane
    for every batch; the backend owns everything below that line.
    """

    #: Short identifier reported through stub_status.
    name = "abstract"

    @property
    def lanes(self) -> int:
        """Number of independent submission lanes."""
        raise NotImplementedError

    def admits(self, lane: int) -> bool:
        """May the caller submit to ``lane`` right now? Backends whose
        lanes are leased from a shared pool return False for lanes
        outside the current lease set; fixed-ownership backends admit
        every lane (the default)."""
        return True

    def submit_batch(self, calls: List[CryptoCall], lane: int
                     ) -> List[Any]:
        """Submit ``calls`` to ``lane`` in one doorbell/RPC.

        Returns one entry per call, in order: an opaque token for each
        accepted op, or None where admission failed (ring full /
        window exhausted). Admission is per-op — a full ring may
        accept a prefix of the batch.
        """
        raise NotImplementedError

    def poll_completions(self, max_responses: Optional[int] = None
                         ) -> List[Any]:
        """Retrieve up to ``max_responses`` finished ops (non-blocking,
        all lanes, starvation-free across lanes)."""
        raise NotImplementedError

    def submit_cpu_cost(self, n_ops: int) -> float:
        """CPU seconds the caller must charge for submitting a batch of
        ``n_ops`` ops in one call."""
        raise NotImplementedError

    def poll_cpu_cost(self, n_responses: int) -> float:
        """CPU seconds the caller must charge for a poll that returned
        ``n_responses`` completions."""
        raise NotImplementedError

    def capacity_hint(self, lane: int, category: Any) -> int:
        """Approximate number of further ops of ``category`` (an
        :class:`~repro.crypto.ops.OpCategory`) submission channel
        ``lane`` could admit right now, counted on the queue that class
        of op would land on (QAT rings are per-category). Advisory —
        the engine uses it to flow-control batch flushes so it doesn't
        burn submit CPU on ops that will bounce."""
        raise NotImplementedError

    def lane_stats(self, lane: int) -> Any:
        """Mutable per-lane stats object (``LaneStats``-shaped: at
        least ``submitted``, ``submit_failures``, ``op_timeouts`` and
        ``fallback_ops`` attributes the engine may increment)."""
        raise NotImplementedError
