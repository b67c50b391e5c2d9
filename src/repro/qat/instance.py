"""QAT crypto instances.

A crypto instance groups several ring pairs (one per crypto type) and
is the logical unit assigned to a process/thread (paper section 2.3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..crypto.ops import OpCategory
from .request import QatRequest, QatResponse
from .rings import RingPair

if TYPE_CHECKING:  # pragma: no cover
    from .endpoint import QatEndpoint

__all__ = ["CryptoInstance"]


class CryptoInstance:
    """A logical QAT unit: one ring pair per op category."""

    def __init__(self, endpoint: "QatEndpoint", instance_id: int,
                 rings: Dict[str, RingPair]) -> None:
        self.endpoint = endpoint
        self.instance_id = instance_id
        self.rings = rings
        #: The userspace driver bound to this instance (set by the
        #: driver; lets the device aggregate driver-level counters).
        self.driver: Optional[object] = None

    def _ring_for(self, category: OpCategory) -> RingPair:
        return self.rings[category.value]

    # -- driver-facing API ---------------------------------------------------

    def try_submit(self, request: QatRequest) -> bool:
        """Non-blocking submission; False when the target ring is full
        (or an injected outage / ring-full storm refuses the write)."""
        plan = self.endpoint.fault_plan
        if plan is not None and plan.submit_rejected(
                self.endpoint.endpoint_id, self.endpoint.sim.now):
            return False
        ring = self._ring_for(request.op.category)
        if not ring.try_submit(request):
            return False
        self._sample_inflight()
        self.endpoint.notify_submission()
        return True

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
        obs = getattr(sim, "obs", None)
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
