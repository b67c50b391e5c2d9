"""Pluggable offload backends behind a backend-agnostic async engine.

The QTLS framework (deadlines, breakers, batching, failover, polling)
lives in :class:`~repro.offload.engine.AsyncOffloadEngine`; concrete
accelerators implement :class:`~repro.offload.backend.OffloadBackend`
(:class:`~repro.offload.software.SoftwareEngine` is the CPU-only
baseline):

- :class:`~repro.offload.pool.PooledQatBackend` — one worker's view of
  a shared :class:`~repro.offload.pool.InstancePool` of on-board QAT
  instances (``repro.qat`` device model), one lane per crypto
  instance; the pool's :class:`~repro.offload.pool.AllocationPolicy`
  (static / shared / dynamic) decides which worker may submit to which
  instance;
- :class:`~repro.offload.remote.RemoteAcceleratorBackend` — a
  network-attached crypto service reached over ``repro.net`` links.
"""

from .backend import Completion, LaneStats, OffloadBackend
from .engine import ALGORITHM_GROUPS, AsyncOffloadEngine
from .health import CircuitBreaker, PendingOp
from .inflight import InflightCounters
from .pool import (ARBITRATION_CPU_COST, POLICIES, AllocationPolicy,
                   DynamicPolicy, InstancePool, PooledQatBackend,
                   SharedPolicy, StaticPolicy, make_policy)
from .remote import RemoteAcceleratorBackend, RemoteCryptoService
from .scheduler import (DEFAULT_WEIGHTS, SCHED_POLICIES, ClassScheduler,
                        SchedLane)
from .software import SoftwareEngine

__all__ = [
    "Completion", "LaneStats", "OffloadBackend",
    "PendingOp", "CircuitBreaker", "InflightCounters",
    "AsyncOffloadEngine", "ALGORITHM_GROUPS", "SoftwareEngine",
    "ClassScheduler", "SchedLane", "SCHED_POLICIES", "DEFAULT_WEIGHTS",
    "RemoteAcceleratorBackend", "RemoteCryptoService",
    "InstancePool", "PooledQatBackend", "AllocationPolicy",
    "StaticPolicy", "SharedPolicy", "DynamicPolicy", "POLICIES",
    "make_policy", "ARBITRATION_CPU_COST",
]
