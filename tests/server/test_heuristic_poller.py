"""Heuristic poller: threshold adaptation and the interplay with
submission batching (the timeliness branch flushes the coalescing
queue before polling, so a stalled worker never waits on its own
unsent submissions)."""

from repro.core.costmodel import CostModel
from repro.cpu import Core
from repro.crypto.ops import CryptoOp, CryptoOpKind, OpCategory
from repro.offload.engine import AsyncOffloadEngine
from repro.offload.pool import InstancePool, StaticPolicy
from repro.qat import QatDevice
from repro.server import StubStatus
from repro.server.polling.heuristic import HeuristicPoller
from repro.sim import Simulator
from repro.ssl.async_job import FiberAsyncJob
from repro.tls.actions import CryptoCall


def make_engine(sim, **kw):
    dev = QatDevice(sim, n_endpoints=1)
    backend = InstancePool(sim, dev.allocate_instances(1), 1,
                           StaticPolicy()).register(0)
    return AsyncOffloadEngine(backend, Core(sim, 0), CostModel(), **kw)


def submit_n(sim, engine, n, kind=CryptoOpKind.RSA_PRIV):
    jobs = []

    def proc(sim):
        for _ in range(n):
            job = FiberAsyncJob(lambda: iter(()), kind="h")
            job.mark_paused(None)
            jobs.append(job)
            call = CryptoCall(CryptoOp(kind, rsa_bits=2048, nbytes=48),
                              compute=lambda: "r")
            ok = yield from engine.submit_async(call, job, "w")
            yield from engine.core.settle()
            assert ok

    p = sim.process(proc(sim))
    sim.run(until=p)
    return jobs


def test_asym_presence_raises_the_threshold():
    """24 symmetric ops meet the sym threshold, but one asymmetric op
    in flight switches the bar to 48 — Rtotal=25 no longer polls."""
    sim = Simulator()
    engine = make_engine(sim)
    stub = StubStatus()
    for _ in range(60):
        stub.on_accept()
    poller = HeuristicPoller(engine, stub, asym_threshold=48,
                             sym_threshold=24)
    submit_n(sim, engine, 24, kind=CryptoOpKind.PRF)
    assert poller.should_poll()
    submit_n(sim, engine, 1, kind=CryptoOpKind.RSA_PRIV)
    assert engine.inflight.total == 25
    assert not poller.should_poll()


def test_efficiency_poll_classified():
    sim = Simulator()
    engine = make_engine(sim)
    stub = StubStatus()
    for _ in range(60):
        stub.on_accept()
    poller = HeuristicPoller(engine, stub, sym_threshold=4)
    submit_n(sim, engine, 4, kind=CryptoOpKind.PRF)

    def proc(sim):
        yield sim.timeout(2e-3)
        jobs = yield from poller.check("w")
        yield from poller.engine.core.settle()
        return jobs

    p = sim.process(proc(sim))
    sim.run(until=p)
    assert len(p.value) == 4
    assert poller.efficiency_polls == 1
    assert poller.timeliness_polls == 0
    assert poller.polls == 1


def test_timeliness_branch_flushes_queued_batch():
    """With batching on, a stall-imminent poll first pushes the
    coalescing queue to the device; otherwise the worker would spin
    waiting for responses to ops it never submitted."""
    sim = Simulator()
    engine = make_engine(sim, batch_size=8)
    stub = StubStatus()
    stub.on_accept()
    stub.on_accept()
    poller = HeuristicPoller(engine, stub)
    submit_n(sim, engine, 2)
    # Both ops coalesced, none on the ring yet — but the in-flight
    # accounting sees them, so the timeliness constraint fires.
    assert engine.backend.instances[0].submitted == 0
    assert engine.queued_batch_ops == 2
    assert poller.should_poll()

    def proc(sim):
        yield from poller.check("w")  # flushes, then polls (empty)
        yield from poller.engine.core.settle()
        assert engine.backend.instances[0].submitted == 2
        assert engine.queued_batch_ops == 0
        yield sim.timeout(2e-3)  # responses land
        jobs = yield from poller.check("w")
        yield from poller.engine.core.settle()
        return jobs

    p = sim.process(proc(sim))
    sim.run(until=p)
    assert poller.timeliness_polls == 2
    assert len(p.value) == 2
    assert engine.inflight.total == 0


def test_batching_keeps_inflight_accounting_for_heuristic():
    """Queued-but-unflushed ops count toward Rtotal: the heuristic
    must see them or the timeliness constraint can deadlock."""
    sim = Simulator()
    engine = make_engine(sim, batch_size=4)
    submit_n(sim, engine, 2)
    assert engine.inflight.total == 2
    assert engine.inflight.asym == 2
    assert engine.inflight._counts[OpCategory.ASYM] == 2


def test_admission_limit_caps_both_thresholds():
    """With admission control on, Rtotal can never exceed the limit —
    a limit below the efficiency threshold (and below TCactive) must
    still poll once the in-flight population saturates the cap, or the
    worker deadlocks with hundreds of connections queued."""
    sim = Simulator()
    engine = make_engine(sim, admission_limit=4)
    stub = StubStatus()
    for _ in range(300):
        stub.on_accept()
    poller = HeuristicPoller(engine, stub, asym_threshold=48,
                             sym_threshold=24)
    submit_n(sim, engine, 3, kind=CryptoOpKind.RSA_PRIV)
    assert not poller.should_poll()  # below the cap: thresholds as-is
    submit_n(sim, engine, 8, kind=CryptoOpKind.RSA_PRIV)
    assert engine.inflight.total == 4
    assert engine.admission_queued == 7
    assert poller.should_poll()
