"""QAT cards (PCIe devices) composed of endpoints.

The paper's testbed uses one Intel DH8970 card containing three
independent QAT endpoints; instances handed to workers are distributed
evenly across the endpoints (paper section 5.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from .endpoint import QatEndpoint
from .instance import CryptoInstance
from .rings import DEFAULT_RING_CAPACITY

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.kernel import Simulator

__all__ = ["QatDevice", "dh8970"]


class QatDevice:
    """A QAT accelerator card with one or more endpoints."""

    def __init__(self, sim: "Simulator", n_endpoints: int = 3,
                 engines_per_endpoint: int = 10,
                 ring_capacity: int = DEFAULT_RING_CAPACITY,
                 name: str = "qat0") -> None:
        if n_endpoints < 1:
            raise ValueError("need at least one endpoint")
        self.sim = sim
        self.name = name
        self.endpoints: List[QatEndpoint] = [
            QatEndpoint(sim, i, n_engines=engines_per_endpoint,
                        ring_capacity=ring_capacity)
            for i in range(n_endpoints)
        ]
        self._alloc_cursor = 0
        self.fault_plan = None

    def allocate_instances(self, count: int) -> List[CryptoInstance]:
        """Allocate ``count`` instances spread evenly over endpoints
        (round-robin), one per worker as in the paper's setup."""
        out = []
        for _ in range(count):
            ep = self.endpoints[self._alloc_cursor % len(self.endpoints)]
            self._alloc_cursor += 1
            out.append(ep.create_instance())
        return out

    def install_fault_plan(self, plan) -> None:
        """Attach a :class:`~repro.qat.faults.FaultPlan` to every
        endpoint and schedule its endpoint resets."""
        self.fault_plan = plan
        for ep in self.endpoints:
            ep.fault_plan = plan
        for endpoint_id, when in plan.resets:
            ep = self.endpoints[endpoint_id]
            self.sim.call_at(when, ep.reset)

    def fw_counter_totals(self) -> dict:
        """Aggregate firmware counters across endpoints (the artifact
        appendix's ``cat /sys/kernel/debug/qat*/fw_counters`` check),
        plus the instances' lane counters and any fault-plan injection
        totals."""
        total: dict = {}
        for ep in self.endpoints:
            for key, val in ep.fw_counters.snapshot().items():
                total[key] = total.get(key, 0) + val
        total["responses_lost"] = sum(ep.responses_lost
                                      for ep in self.endpoints)
        # Lane counters keep their historical ``driver.*`` keys.
        for key in ("submitted", "submit_failures", "op_timeouts",
                    "fallback_ops"):
            total[f"driver.{key}"] = sum(getattr(inst, key)
                                         for ep in self.endpoints
                                         for inst in ep.instances)
        if self.fault_plan is not None:
            for key, val in self.fault_plan.counters().items():
                total[f"faults.{key}"] = val
        return total


def dh8970(sim: "Simulator") -> QatDevice:
    """The paper's accelerator: an Intel DH8970 PCIe card with three
    independent endpoints (calibration: ~100K RSA-2048 ops/s)."""
    return QatDevice(sim, n_endpoints=3, engines_per_endpoint=10,
                     name="dh8970")
