"""Unit tests for the interrupt-driven retrieval path (section 3.3's
road-not-taken) and the ring response-callback hook behind it."""

import pytest

from repro.core.costmodel import CostModel
from repro.cpu import Core
from repro.crypto.ops import CryptoOp, CryptoOpKind
from repro.offload.engine import AsyncOffloadEngine
from repro.offload.pool import InstancePool, StaticPolicy
from repro.qat import QatDevice
from repro.server.polling.interrupt_mode import InterruptRetriever
from repro.sim import Simulator
from repro.ssl.async_job import FiberAsyncJob
from repro.tls.actions import CryptoCall


def make_env():
    sim = Simulator()
    core = Core(sim, 0)
    dev = QatDevice(sim, n_endpoints=1)
    backend = InstancePool(sim, dev.allocate_instances(1), 1,
                           StaticPolicy()).register(0)
    eng = AsyncOffloadEngine(backend, core, CostModel())
    return sim, core, eng


def submit_one(sim, eng, result="r"):
    job = FiberAsyncJob(lambda: iter(()), kind="h")
    job.mark_paused(None)

    def proc(sim):
        ok = yield from eng.submit_async(
            CryptoCall(CryptoOp(CryptoOpKind.RSA_PRIV, rsa_bits=2048),
                       compute=lambda: result), job, "w")
        assert ok

    sim.process(proc(sim))
    return job


def test_ring_response_callback_fires():
    sim, core, eng = make_env()
    hits = []
    eng.backend.instances[0].set_response_callback(
        lambda ring: hits.append(ring))
    submit_one(sim, eng)
    sim.run()
    assert len(hits) == 1
    assert len(hits[0].poll_responses()) == 1


def test_interrupt_delivers_response_without_polling():
    sim, core, eng = make_env()
    irq = InterruptRetriever(sim, eng)
    irq.arm()
    job = submit_one(sim, eng)
    sim.run()
    assert irq.interrupts == 1
    assert job.response_ready
    assert job.take_resume() == ("r", None)
    assert eng.inflight.total == 0


def test_interrupts_coalesce():
    sim, core, eng = make_env()
    irq = InterruptRetriever(sim, eng)
    irq.arm()
    jobs = [submit_one(sim, eng, result=i) for i in range(6)]
    sim.run()
    # Six responses landed within the moderation window of one or two
    # interrupts, not six.
    assert irq.interrupts < 6
    assert all(j.response_ready for j in jobs)


def test_interrupt_charges_kernel_work():
    sim, core, eng = make_env()
    irq = InterruptRetriever(sim, eng)
    irq.arm()
    submit_one(sim, eng)
    sim.run()
    assert core.stats.kernel_crossings >= 1
    assert core.stats.kernel_time > 0


def test_wake_callback_invoked():
    sim, core, eng = make_env()
    woken = []
    irq = InterruptRetriever(sim, eng, wake=lambda: woken.append(sim.now))
    irq.arm()
    submit_one(sim, eng)
    sim.run()
    assert len(woken) == 1


def test_double_arm_rejected():
    sim, core, eng = make_env()
    irq = InterruptRetriever(sim, eng)
    irq.arm()
    with pytest.raises(RuntimeError):
        irq.arm()
