"""QAT crypto instances.

A crypto instance groups several ring pairs (one per crypto type) and
is the logical unit assigned to a process/thread (paper section 2.3).

QTLS uses userspace I/O for crypto offloading: one userspace polling
operation is far cheaper than a kernel interrupt (paper section 3.3),
so an instance offers a non-blocking submit and an explicit poll. The
CPU costs of these calls are charged by the *caller* (the engine layer
/ polling schemes) because they run on the worker's core.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from ..crypto.ops import CryptoOp, OpCategory
from .request import QatRequest, QatResponse
from .rings import RingPair

if TYPE_CHECKING:  # pragma: no cover
    from .endpoint import QatEndpoint

__all__ = ["CryptoInstance", "SUBMIT_CPU_COST", "SUBMIT_COALESCED_CPU_COST",
           "POLL_CPU_COST", "POLL_PER_RESPONSE_CPU_COST",
           "submit_cpu_cost", "poll_cpu_cost"]

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


def submit_cpu_cost(n_requests: int) -> float:
    """CPU time the caller must charge for submitting ``n_requests``
    descriptors in one coalesced ring write."""
    if n_requests < 1:
        return 0.0
    return SUBMIT_CPU_COST + SUBMIT_COALESCED_CPU_COST * (n_requests - 1)


def poll_cpu_cost(n_responses: int) -> float:
    """CPU time the caller must charge for a poll that returned
    ``n_responses`` responses."""
    return POLL_CPU_COST + POLL_PER_RESPONSE_CPU_COST * n_responses


class CryptoInstance:
    """A logical QAT unit: one ring pair per op category."""

    def __init__(self, endpoint: "QatEndpoint", instance_id: int,
                 rings: Dict[str, RingPair]) -> None:
        self.endpoint = endpoint
        self.instance_id = instance_id
        self.rings = rings
        # Lane counters: accepted and refused submissions, plus the
        # degradation the engine layer charges — requests whose
        # response missed its deadline, and ops completed through the
        # software fallback after failing on this instance.
        self.submitted = 0
        self.submit_failures = 0
        self.op_timeouts = 0
        self.fallback_ops = 0

    def _ring_for(self, category: OpCategory) -> RingPair:
        return self.rings[category.value]

    # -- software-facing API ---------------------------------------------

    def try_submit(self, op: CryptoOp, compute: Callable[[], Any]
                   ) -> Optional[QatRequest]:
        """Non-blocking submission: returns the accepted request, or
        None when the target ring is full (or an injected outage /
        ring-full storm refuses the write) — the caller pauses the
        offload job and retries (paper section 3.2). Returning the
        request lets the engine track per-request identity and
        deadlines."""
        plan = self.endpoint.fault_plan
        rejected = plan is not None and plan.submit_rejected(
            self.endpoint.endpoint_id, self.endpoint.sim.now)
        request = QatRequest(op=op, compute=compute)
        if rejected or not self._ring_for(op.category).try_submit(request):
            self.submit_failures += 1
            return None
        self._sample_inflight()
        self.endpoint.notify_submission()
        self.submitted += 1
        return request

    def poll(self, max_responses: Optional[int] = None) -> List[QatResponse]:
        """Retrieve available responses across this instance's rings."""
        out: List[QatResponse] = []
        for ring in self.rings.values():
            budget = None if max_responses is None \
                else max_responses - len(out)
            if budget == 0:
                break
            out.extend(ring.poll_responses(budget))
        if out:
            self._sample_inflight()
        return out

    def _sample_inflight(self) -> None:
        """Report ring occupancy to the request tracer, if any."""
        sim = self.endpoint.sim
        obs = sim.obs
        if obs is not None:
            obs.util_sample(
                f"ep{self.endpoint.endpoint_id}.i{self.instance_id}"
                ".inflight",
                sim.now, self.in_flight,
                capacity=sum(r.capacity for r in self.rings.values()))

    def reset(self) -> int:
        """Wipe this instance's rings (device recovery); returns the
        number of queued/landed entries dropped."""
        return sum(ring.reset() for ring in self.rings.values())

    def set_response_callback(self, callback) -> None:
        """Arm hardware interrupts: ``callback(ring)`` fires whenever a
        response lands on any of this instance's rings."""
        for ring in self.rings.values():
            ring.response_callback = callback

    # -- introspection ---------------------------------------------------

    @property
    def in_flight(self) -> int:
        return sum(r.in_flight for r in self.rings.values())

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<CryptoInstance ep{self.endpoint.endpoint_id}"
                f"/i{self.instance_id}>")
