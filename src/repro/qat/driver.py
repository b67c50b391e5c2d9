"""Userspace QAT driver facade.

QTLS uses userspace I/O for crypto offloading: one userspace polling
operation is far cheaper than a kernel interrupt (paper section 3.3),
so the driver exposes a non-blocking submit and an explicit poll. CPU
costs of these calls are charged by the *caller* (the engine layer /
polling schemes) because they run on the worker's core.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ..crypto.ops import CryptoOp
from .instance import CryptoInstance
from .request import QatRequest, QatResponse

__all__ = ["QatUserspaceDriver", "SUBMIT_CPU_COST",
           "SUBMIT_COALESCED_CPU_COST", "POLL_CPU_COST",
           "POLL_PER_RESPONSE_CPU_COST"]

#: CPU cost of writing one request descriptor onto a ring.
SUBMIT_CPU_COST = 1.2e-6
#: CPU cost of each *additional* descriptor coalesced into the same
#: ring write: the doorbell/MMIO part of SUBMIT_CPU_COST is paid once
#: per batch, only the descriptor copy repeats.
SUBMIT_COALESCED_CPU_COST = 0.35e-6
#: CPU cost of one polling operation (checking the response rings).
POLL_CPU_COST = 0.6e-6
#: Additional CPU cost per retrieved response (descriptor handling).
POLL_PER_RESPONSE_CPU_COST = 0.4e-6


class QatUserspaceDriver:
    """Thin non-blocking facade over a crypto instance's rings."""

    def __init__(self, instance: CryptoInstance) -> None:
        self.instance = instance
        instance.driver = self
        self.submitted = 0
        self.submit_failures = 0
        self.polls = 0
        # Degradation counters, charged by the engine layer: requests
        # whose response missed its deadline, and ops completed through
        # the software fallback after failing on this instance.
        self.op_timeouts = 0
        self.fallback_ops = 0

    def try_submit(self, op: CryptoOp, compute: Callable[[], Any],
                   cookie: Any = None) -> Optional[QatRequest]:
        """Submit a request; returns the accepted request (truthy) or
        None when the ring is full — the caller pauses the offload job
        and retries (paper section 3.2). Returning the request lets the
        engine track per-request identity and deadlines."""
        request = QatRequest(op=op, compute=compute, cookie=cookie)
        if self.instance.try_submit(request):
            self.submitted += 1
            return request
        self.submit_failures += 1
        return None

    def poll(self, max_responses: Optional[int] = None) -> List[QatResponse]:
        """Retrieve available responses (non-blocking)."""
        self.polls += 1
        responses = self.instance.poll(max_responses)
        return responses

    def submit_cpu_cost(self, n_requests: int) -> float:
        """CPU time the caller must charge for submitting
        ``n_requests`` descriptors in one coalesced ring write."""
        if n_requests < 1:
            return 0.0
        return (SUBMIT_CPU_COST
                + SUBMIT_COALESCED_CPU_COST * (n_requests - 1))

    def poll_cpu_cost(self, n_responses: int) -> float:
        """CPU time the caller must charge for a poll that returned
        ``n_responses`` responses."""
        return POLL_CPU_COST + POLL_PER_RESPONSE_CPU_COST * n_responses

    @property
    def in_flight(self) -> int:
        return self.instance.in_flight
