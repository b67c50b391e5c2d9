"""Pluggable offload backends behind a backend-agnostic async engine.

The QTLS framework (deadlines, breakers, batching, failover, polling)
lives in :class:`~repro.offload.engine.AsyncOffloadEngine`; concrete
accelerators implement :class:`~repro.offload.backend.OffloadBackend`
(:class:`~repro.offload.software.SoftwareEngine` is the CPU-only
baseline):

- :class:`~repro.offload.qat_backend.QatBackend` — the on-board QAT
  card (``repro.qat`` device model), one lane per crypto instance;
- :class:`~repro.offload.remote.RemoteAcceleratorBackend` — a
  network-attached crypto service reached over ``repro.net`` links;
- :class:`~repro.offload.pool.PooledQatBackend` — one worker's view of
  a shared :class:`~repro.offload.pool.InstancePool`, whose
  :class:`~repro.offload.pool.AllocationPolicy` (static / shared /
  dynamic) decides which worker may submit to which instance.

Attribute access is lazy (PEP 562) so low-level device modules can
import :mod:`repro.offload.errors` without dragging in the engine
stack (and its transitive deps) during their own import.
"""

from __future__ import annotations

from .errors import RingFull, SubmitError

__all__ = [
    "SubmitError", "RingFull",
    "OpSpec", "Completion", "LaneStats", "OffloadBackend",
    "PendingOp", "CircuitBreaker", "InflightCounters",
    "AsyncOffloadEngine", "ALGORITHM_GROUPS", "SoftwareEngine",
    "ClassScheduler", "SchedLane", "SCHED_POLICIES", "DEFAULT_WEIGHTS",
    "QatBackend", "RemoteAcceleratorBackend", "RemoteCryptoService",
    "InstancePool", "PooledQatBackend", "AllocationPolicy",
    "StaticPolicy", "SharedPolicy", "DynamicPolicy", "POLICIES",
    "make_policy", "ARBITRATION_CPU_COST",
]

_LAZY = {
    "OpSpec": "backend",
    "Completion": "backend",
    "LaneStats": "backend",
    "OffloadBackend": "backend",
    "PendingOp": "health",
    "CircuitBreaker": "health",
    "InflightCounters": "inflight",
    "AsyncOffloadEngine": "engine",
    "ALGORITHM_GROUPS": "engine",
    "SoftwareEngine": "software",
    "ClassScheduler": "scheduler",
    "SchedLane": "scheduler",
    "SCHED_POLICIES": "scheduler",
    "DEFAULT_WEIGHTS": "scheduler",
    "QatBackend": "qat_backend",
    "RemoteAcceleratorBackend": "remote",
    "RemoteCryptoService": "remote",
    "InstancePool": "pool",
    "PooledQatBackend": "pool",
    "AllocationPolicy": "pool",
    "StaticPolicy": "pool",
    "SharedPolicy": "pool",
    "DynamicPolicy": "pool",
    "POLICIES": "pool",
    "make_policy": "pool",
    "ARBITRATION_CPU_COST": "pool",
}


def __getattr__(name: str):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module
    module = import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
