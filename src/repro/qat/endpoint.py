"""A QAT endpoint: parallel computation engines + instance rings.

The endpoint's hardware scheduler load-balances requests from all
assigned instances' rings across all available computation engines
(paper Figure 2). Concurrent requests from a *single* instance run in
parallel as long as engines are free — the parallelism QTLS unlocks
(paper section 2.3 "Parallelism").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..sim.resources import Resource
from .firmware import FirmwareCounters
from .instance import CryptoInstance
from .request import QatRequest
from .rings import DEFAULT_RING_CAPACITY, RingPair
from .service_times import (PCIE_LATENCY, qat_pipeline_latency,
                            qat_service_time)

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.kernel import Simulator

__all__ = ["QatEndpoint"]


class QatEndpoint:
    """One QAT silicon endpoint with ``n_engines`` computation engines."""

    def __init__(self, sim: "Simulator", endpoint_id: int,
                 n_engines: int = 10,
                 ring_capacity: int = DEFAULT_RING_CAPACITY,
                 pcie_latency: float = PCIE_LATENCY) -> None:
        if n_engines < 1:
            raise ValueError("need at least one engine")
        self.sim = sim
        self.endpoint_id = endpoint_id
        self.n_engines = n_engines
        self.ring_capacity = ring_capacity
        self.pcie_latency = pcie_latency
        self.engines = Resource(sim, n_engines, name=f"qat{endpoint_id}-eng")
        self.instances: List[CryptoInstance] = []
        self.fw_counters = FirmwareCounters()
        #: Every instance's rings in creation order: the arbiter's
        #: round-robin order.
        self._rings: List[RingPair] = []
        self._rr_cursor = 0  # round-robin over instance rings
        #: Requests queued on any ring, kept by the rings.
        self.queued_requests = 0
        #: Installed by :meth:`QatDevice.install_fault_plan`.
        self.fault_plan = None
        self.responses_lost = 0

    # -- provisioning ---------------------------------------------------

    def create_instance(self) -> CryptoInstance:
        """Allocate a crypto instance (a logical unit assignable to one
        process/thread — paper section 2.3)."""
        inst_id = len(self.instances)
        rings = {
            cat: RingPair(self, f"ep{self.endpoint_id}-i{inst_id}-{cat}",
                          self.ring_capacity)
            for cat in ("asym", "cipher", "prf")
        }
        inst = CryptoInstance(self, inst_id, rings)
        self.instances.append(inst)
        self._rings.extend(rings.values())
        return inst

    # -- submission path ----------------------------------------------------

    def notify_submission(self) -> None:
        """Called by an instance after a successful ring write; starts
        the hardware pull if engines are idle."""
        self._dispatch()

    def _dispatch(self) -> None:
        """Hand pending ring entries to free engines (round-robin over
        rings for fairness, like the hardware load balancer)."""
        while self.engines.available > 0:
            req_ring = self._next_nonempty_ring()
            if req_ring is None:
                return
            request = req_ring.take_request()
            assert request is not None
            request.dequeued_at = self.sim.now
            granted = self.engines.try_acquire()
            assert granted  # capacity was checked above
            self._sample_engines()
            self._start_engine(request, req_ring)

    def _sample_engines(self) -> None:
        """Report engine occupancy to the request tracer, if any."""
        obs = self.sim.obs
        if obs is not None:
            obs.util_sample(f"qat{self.endpoint_id}.engines", self.sim.now,
                            self.engines.in_use, capacity=self.n_engines)

    def _next_nonempty_ring(self) -> Optional[RingPair]:
        if not self.queued_requests:
            return None
        rings = self._rings
        n = len(rings)
        for i in range(n):
            ring = rings[(self._rr_cursor + i) % n]
            if ring.pending_requests:
                self._rr_cursor = (self._rr_cursor + i + 1) % n
                return ring
        return None

    def _start_engine(self, request: QatRequest, ring: RingPair) -> None:
        """An engine takes ``request``: inbound DMA + calculation keep
        it occupied until :meth:`_engine_done`."""
        service = qat_service_time(request.op)
        plan = self.fault_plan
        if plan is not None:
            service *= plan.latency_multiplier(self.endpoint_id,
                                               request.op, self.sim.now)
        done = self.sim.timeout(self.pcie_latency + service)
        done.callbacks.append(
            lambda _ev: self._engine_done(request, ring, plan))

    def _engine_done(self, request: QatRequest, ring: RingPair,
                     plan) -> None:
        """Service ends: compute the result, free the engine, and send
        the response down the pipeline (firmware + outbound DMA), which
        holds no engine capacity."""
        request.serviced_at = self.sim.now
        try:
            request.result = request.compute()
        except Exception as exc:  # functional failure -> errored response
            request.error = exc
        if plan is not None:
            hw_error = plan.corrupt(self.endpoint_id, request.op,
                                    self.sim.now)
            if hw_error is not None:
                request.result = None
                request.error = hw_error
        self.fw_counters.record(request.op, ok=request.error is None)
        self.engines.release()
        self._sample_engines()
        self._dispatch()  # pull more work if rings are backed up
        landed = self.sim.timeout(self.pcie_latency
                                  + qat_pipeline_latency(request.op))
        landed.callbacks.append(
            lambda _ev: self._land(request, ring, plan))

    def _land(self, request: QatRequest, ring: RingPair, plan) -> None:
        """The response reaches its ring, unless the fault plan loses it."""
        if plan is not None and plan.response_lost(
                self.endpoint_id, request.op, self.sim.now):
            self.responses_lost += 1
            ring.drop_response(request)
            return
        ring.land_response(request)

    def reset(self) -> int:
        """Device-level recovery: wipe every instance's rings. Ops that
        were queued (or landed but unretrieved) are silently dropped —
        their owners must recover through deadline/failover paths."""
        dropped = sum(inst.reset() for inst in self.instances)
        if self.fault_plan is not None:
            self.fault_plan.on_reset(self.endpoint_id, dropped,
                                     self.sim.now)
        return dropped

    # -- introspection ---------------------------------------------------

    @property
    def busy_engines(self) -> int:
        return self.engines.in_use
