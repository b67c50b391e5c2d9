"""QAT adapter for the offload-backend seam.

Wraps the existing :mod:`repro.qat` userspace drivers — one lane per
crypto instance — behind :class:`~repro.offload.backend.OffloadBackend`.
All ring/instance manipulation lives here; the engine above never
touches the device model directly.

Batched submission maps to coalesced ring writes: descriptors for one
batch are written back-to-back and the doorbell/MMIO cost is paid once
(``QatUserspaceDriver.submit_cpu_cost``). Polling drains instances
round-robin from a rotating start index, so a busy instance 0 cannot
monopolize a bounded ``max_responses`` budget and starve the others.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from ..qat.driver import QatUserspaceDriver
from ..qat.faults import QatHardwareError
from ..qat.request import QatResponse
from .backend import Completion, OffloadBackend, OpSpec

__all__ = ["QatBackend", "completion_from_response"]


def completion_from_response(resp: QatResponse) -> Completion:
    """Wrap a driver-level :class:`~repro.qat.request.QatResponse` in
    the backend-seam :class:`Completion` (shared by :class:`QatBackend`
    and :class:`~repro.offload.pool.PooledQatBackend`)."""
    return Completion(
        token=resp.request, op=resp.request.op,
        result=resp.result, error=resp.error,
        transport_error=isinstance(resp.error, QatHardwareError),
        device_marks={
            "dequeued": resp.request.dequeued_at,
            "serviced": resp.request.serviced_at,
            "landed": resp.completed_at,
        })


class QatBackend(OffloadBackend):
    """One lane per QAT crypto instance (userspace driver)."""

    name = "qat"

    def __init__(self, drivers: Sequence[QatUserspaceDriver]) -> None:
        self.drivers: List[QatUserspaceDriver] = list(drivers)
        if not self.drivers:
            raise ValueError("need at least one driver")
        self._poll_rr = 0

    @property
    def lanes(self) -> int:
        return len(self.drivers)

    def submit_batch(self, specs: List[OpSpec], lane: int) -> List[Any]:
        drv = self.drivers[lane]
        return [drv.try_submit(spec.op, spec.compute, cookie=spec.cookie)
                for spec in specs]

    def poll_completions(self, max_responses: Optional[int] = None
                         ) -> List[Completion]:
        out: List[Completion] = []
        n = len(self.drivers)
        start = self._poll_rr
        self._poll_rr = (self._poll_rr + 1) % n
        for i in range(n):
            budget = (None if max_responses is None
                      else max_responses - len(out))
            if budget == 0:
                break
            drv = self.drivers[(start + i) % n]
            for resp in drv.poll(budget):
                out.append(completion_from_response(resp))
        return out

    def submit_cpu_cost(self, n_ops: int) -> float:
        return self.drivers[0].submit_cpu_cost(n_ops)

    def poll_cpu_cost(self, n_responses: int) -> float:
        return self.drivers[0].poll_cpu_cost(n_responses)

    def capacity_hint(self, lane: Optional[int] = None,
                      category: Optional[Any] = None) -> int:
        drivers = (self.drivers if lane is None else [self.drivers[lane]])
        return sum(max(0, ring.capacity - ring.in_flight)
                   for drv in drivers
                   for key, ring in drv.instance.rings.items()
                   if category is None or key == category.value)

    def lane_stats(self, lane: int) -> QatUserspaceDriver:
        # The driver already carries the per-lane counters the engine
        # charges (submit_failures, op_timeouts, fallback_ops).
        return self.drivers[lane]
