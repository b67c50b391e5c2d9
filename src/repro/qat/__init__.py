"""Simulated Intel QuickAssist accelerator.

Endpoints with parallel computation engines, hardware ring pairs,
crypto instances (the userspace submit/poll surface) and firmware
counters — the substrate QTLS offloads to (paper section 2.3).
"""

from .device import QatDevice, dh8970
from .endpoint import QatEndpoint
from .faults import FaultPlan, OutageWindow, QatHardwareError
from .firmware import FirmwareCounters
from .instance import (POLL_CPU_COST, POLL_PER_RESPONSE_CPU_COST,
                       SUBMIT_CPU_COST, CryptoInstance)
from .request import QatRequest
from .rings import DEFAULT_RING_CAPACITY, RingPair
from .service_times import (PCIE_LATENCY, qat_pipeline_latency,
                            qat_service_time)

__all__ = [
    "QatDevice", "dh8970", "QatEndpoint", "CryptoInstance", "RingPair",
    "QatRequest", "FirmwareCounters",
    "FaultPlan", "OutageWindow", "QatHardwareError",
    "qat_service_time", "qat_pipeline_latency", "PCIE_LATENCY",
    "DEFAULT_RING_CAPACITY",
    "SUBMIT_CPU_COST", "POLL_CPU_COST", "POLL_PER_RESPONSE_CPU_COST",
]
