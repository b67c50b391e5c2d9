"""Unit tests for stub_status, heuristic poller, timer thread, queue."""

import pytest

from repro.core.costmodel import CostModel
from repro.cpu import Core
from repro.crypto.ops import CryptoOp, CryptoOpKind
from repro.offload.engine import AsyncOffloadEngine
from repro.offload.pool import InstancePool, StaticPolicy
from repro.qat import QatDevice
from repro.server import StubStatus
from repro.server.polling.heuristic import HeuristicPoller
from repro.server.polling.timer_thread import TimerPollingThread
from repro.sim import Simulator
from repro.ssl.async_job import FiberAsyncJob
from repro.tls.actions import CryptoCall


# -- stub_status -------------------------------------------------------------

def test_stub_status_lifecycle():
    s = StubStatus()
    s.on_accept()
    s.on_accept()
    assert s.tls_alive == 2 and s.tls_active == 2
    s.on_idle()
    assert s.tls_active == 1
    s.on_active()
    assert s.tls_active == 2
    s.on_idle()
    s.on_close(was_idle=True)
    assert s.tls_alive == 1 and s.tls_idle == 0
    s.on_close(was_idle=False)
    assert s.tls_alive == 0


def test_stub_status_detects_inconsistency():
    s = StubStatus()
    with pytest.raises(RuntimeError):
        s.on_idle()  # idle > alive


# -- heuristic poller ----------------------------------------------------------------

def make_engine(sim):
    dev = QatDevice(sim, n_endpoints=1)
    backend = InstancePool(sim, dev.allocate_instances(1), 1,
                           StaticPolicy()).register(0)
    return AsyncOffloadEngine(backend, Core(sim, 0), CostModel())


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


def test_heuristic_no_poll_when_idle():
    sim = Simulator()
    engine = make_engine(sim)
    stub = StubStatus()
    poller = HeuristicPoller(engine, stub)
    assert not poller.should_poll()


def test_heuristic_efficiency_threshold_asym():
    sim = Simulator()
    engine = make_engine(sim)
    stub = StubStatus()
    for _ in range(60):
        stub.on_accept()  # plenty of active connections
    poller = HeuristicPoller(engine, stub, asym_threshold=48)
    submit_n(sim, engine, 47)
    assert not poller.should_poll()
    submit_n(sim, engine, 1)
    assert poller.should_poll()


def test_heuristic_sym_threshold_lower():
    sim = Simulator()
    engine = make_engine(sim)
    stub = StubStatus()
    for _ in range(60):
        stub.on_accept()
    poller = HeuristicPoller(engine, stub, asym_threshold=48,
                             sym_threshold=24)
    submit_n(sim, engine, 24, kind=CryptoOpKind.PRF)
    assert poller.should_poll()  # 24 >= sym threshold (no asym inflight)


def test_heuristic_timeliness_constraint():
    """Rtotal == TCactive => poll immediately (all active connections
    are waiting on the accelerator)."""
    sim = Simulator()
    engine = make_engine(sim)
    stub = StubStatus()
    stub.on_accept()
    stub.on_accept()
    poller = HeuristicPoller(engine, stub)
    submit_n(sim, engine, 1)
    assert not poller.should_poll()  # 1 < 2 active
    submit_n(sim, engine, 1)
    assert poller.should_poll()      # 2 == 2


def test_heuristic_check_polls_and_classifies():
    sim = Simulator()
    engine = make_engine(sim)
    stub = StubStatus()
    stub.on_accept()
    poller = HeuristicPoller(engine, stub)
    submit_n(sim, engine, 1)

    def proc(sim):
        yield sim.timeout(2e-3)  # let the response land
        jobs = yield from poller.check("w")
        yield from poller.engine.core.settle()
        return jobs

    p = sim.process(proc(sim))
    sim.run(until=p)
    assert len(p.value) == 1
    assert poller.timeliness_polls == 1
    assert poller.polls == 1


def test_heuristic_threshold_validation():
    sim = Simulator()
    engine = make_engine(sim)
    with pytest.raises(ValueError):
        HeuristicPoller(engine, StubStatus(), asym_threshold=0)


# -- timer polling thread ----------------------------------------------------------

def test_timer_thread_polls_on_interval():
    sim = Simulator()
    engine = make_engine(sim)
    thread = TimerPollingThread(sim, engine, interval=10e-6)
    thread.start()
    jobs = submit_n(sim, engine, 1)
    sim.run(until=3e-3)
    thread.stop()
    assert thread.polls > 100  # ~10us cadence over 3ms
    assert thread.effective_polls >= 1
    assert jobs[0].response_ready


def test_timer_thread_context_switches_charged():
    """The polling thread shares the worker's core: its activity must
    produce context switches (the Figure 12 overhead)."""
    sim = Simulator()
    core = Core(sim, 0)
    dev = QatDevice(sim, n_endpoints=1)
    backend = InstancePool(sim, dev.allocate_instances(1), 1,
                           StaticPolicy()).register(0)
    engine = AsyncOffloadEngine(backend, core, CostModel())
    thread = TimerPollingThread(sim, engine, interval=10e-6)
    thread.start()

    def worker_proc(sim):
        for _ in range(50):
            core.consume(20e-6, owner="worker")
            yield from core.settle()

    sim.process(worker_proc(sim))
    sim.run(until=1.5e-3)
    thread.stop()
    assert core.stats.context_switches > 20


def test_timer_thread_validation():
    sim = Simulator()
    engine = make_engine(sim)
    with pytest.raises(ValueError):
        TimerPollingThread(sim, engine, interval=0)
    t = TimerPollingThread(sim, engine)
    t.start()
    with pytest.raises(RuntimeError):
        t.start()


# -- live stub_status reads ---------------------------------------------------

def test_live_counters_match_engine_mid_pass():
    """Regression: a raw ``stub_status.counters()`` read must agree
    with the engine ledgers at *every* instant, including mid-pass
    samples taken between watchdog ticks while ops are in flight."""
    from repro.bench.runner import Testbed

    bed = Testbed("QTLS", workers=2, suites=("TLS-RSA",), seed=11,
                  qat_watchdog_interval=1e-3)
    bed.add_s_time_fleet(n_clients=30, stagger=1e-3)

    samples = []
    mismatches = []

    def engine_view(eng):
        return {"batches_submitted": eng.batches_submitted,
                "batch_ops": eng.ops_offloaded,
                "fallback_ops": eng.ops_fallback,
                "op_timeouts": eng.op_timeouts,
                "open_breakers": eng.open_breakers,
                "submit_failures": eng.submit_rejections,
                "admission_queued": eng.admission_queued,
                "admission_peak": eng.admission_peak,
                "admission_admitted": eng.admission_admitted}

    def sample():
        samples.append(bed.sim.now)
        for worker in (list(bed.server.workers)
                       + list(bed.server.retired_workers)):
            truth = engine_view(worker.engine)
            raw = worker.stub_status.counters()
            if {k: raw[k] for k in truth} != truth:
                mismatches.append((bed.sim.now, worker.worker_id))
            if raw["tls_alive"] != raw["accepted"] - raw["closed"] \
                    or not 0 <= raw["tls_idle"] <= raw["tls_alive"]:
                mismatches.append((bed.sim.now, worker.worker_id,
                                   "connections"))

    # Offset from the 1 ms watchdog grid so samples land mid-pass.
    for i in range(40):
        bed.sim.call_at(2e-3 + i * 1.3e-3, sample)
    bed.sim.run(until=0.06)

    assert len(samples) == 40
    assert mismatches == []
    # The samples saw real offload traffic, not an idle engine.
    assert all(w.engine.batches_submitted > 0 for w in bed.server.workers)
