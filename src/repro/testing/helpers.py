"""Shared environment builders for the test suite.

Several test modules had re-implemented the same QAT environment
builder; the canonical versions live here so every test — and any
ad-hoc script — assembles identical worlds.

Everything here is deterministic: environments are seeded through
:class:`~repro.sim.rng.RngRegistry` and runs replay bit-for-bit.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional

from ..core.costmodel import CostModel
from ..cpu.core import Core
from ..crypto.ops import CryptoOp, CryptoOpKind
from ..offload.engine import AsyncOffloadEngine
from ..offload.pool import InstancePool, StaticPolicy
from ..obs import RequestTracer
from ..qat.device import QatDevice
from ..qat.faults import FaultPlan
from ..qat.instance import CryptoInstance
from ..qat.rings import DEFAULT_RING_CAPACITY
from ..sim.kernel import Simulator
from ..sim.rng import RngRegistry
from ..ssl.async_job import FiberAsyncJob
from ..tls.actions import CryptoCall

__all__ = ["rsa_call", "make_job", "make_qat_env", "QatEnv"]


def rsa_call(result: Any = "sig", rsa_bits: int = 2048) -> CryptoCall:
    """A canonical offloadable op: an RSA private-key operation whose
    deferred computation returns ``result``."""
    return CryptoCall(CryptoOp(CryptoOpKind.RSA_PRIV, rsa_bits=rsa_bits),
                      compute=lambda: result)


def make_job(kind: str = "handshake",
             paused_on: Optional[CryptoCall] = None) -> FiberAsyncJob:
    """A fiber offload job with an empty body — enough for engine-layer
    tests that drive submission/delivery directly. Pass ``paused_on``
    to start it paused on that call (the usual pre-submission state)."""
    job = FiberAsyncJob(lambda: iter(()), kind=kind)
    if paused_on is not None:
        job.mark_paused(paused_on)
    return job


class QatEnv(NamedTuple):
    """One assembled QAT world (see :func:`make_qat_env`)."""

    sim: Simulator
    core: Core
    engine: AsyncOffloadEngine
    device: QatDevice
    instances: List[CryptoInstance]
    tracer: Optional[RequestTracer]


def make_qat_env(n_instances: int = 1,
                 ring_capacity: int = DEFAULT_RING_CAPACITY,
                 plan_kw: Optional[Dict] = None, seed: int = 7,
                 trace: bool = False,
                 **engine_kw) -> QatEnv:
    """Simulator + core + QAT device + engine, in one call.

    The engine is wired as the server wires every QAT engine: through
    a one-worker :class:`~repro.offload.pool.InstancePool` under the
    static policy, so the worker leases all ``n_instances`` instances.

    ``plan_kw`` installs a seeded :class:`~repro.qat.faults.FaultPlan`
    (kwargs form); ``trace`` attaches a
    :class:`~repro.obs.tracer.RequestTracer` as ``sim.obs``; engine
    kwargs (``batch_size``, ``request_deadline``, ...) pass through to
    :class:`~repro.offload.engine.AsyncOffloadEngine`.
    """
    sim = Simulator()
    tracer = None
    if trace:
        tracer = RequestTracer()
        sim.obs = tracer
    core = Core(sim, 0)
    dev = QatDevice(sim, n_endpoints=max(1, n_instances),
                    ring_capacity=ring_capacity)
    if plan_kw is not None:
        dev.install_fault_plan(
            FaultPlan(RngRegistry(seed).stream("faults"), **plan_kw))
    instances = dev.allocate_instances(n_instances)
    backend = InstancePool(sim, instances, 1, StaticPolicy()).register(0)
    eng = AsyncOffloadEngine(backend, core, CostModel(), **engine_kw)
    return QatEnv(sim, core, eng, dev, instances, tracer)
