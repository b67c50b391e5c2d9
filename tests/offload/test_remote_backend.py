"""Remote-accelerator backend tests: the same asynchronous engine
drives a network-attached crypto service over repro.net links."""

from repro.core.costmodel import CostModel
from repro.cpu import Core
from repro.crypto.ops import CryptoOp, CryptoOpKind, OpCategory
from repro.net.link import Link
from repro.offload.engine import AsyncOffloadEngine
from repro.offload.remote import (REMOTE_WINDOW, RemoteAcceleratorBackend,
                                  RemoteCryptoService)
from repro.sim import Simulator
from repro.ssl.async_job import FiberAsyncJob
from repro.tls.actions import CryptoCall


def rsa_call(result="sig"):
    return CryptoCall(CryptoOp(CryptoOpKind.RSA_PRIV, rsa_bits=2048),
                      compute=lambda: result)


def _job():
    return FiberAsyncJob(lambda: iter(()), kind="handshake")


def make_env():
    sim = Simulator()
    core = Core(sim, 0)
    service = RemoteCryptoService(sim)
    backend = RemoteAcceleratorBackend(
        sim, service,
        tx_link=Link(sim, latency=20e-6, bandwidth_bps=25e9),
        rx_link=Link(sim, latency=20e-6, bandwidth_bps=25e9))
    eng = AsyncOffloadEngine(backend, core, CostModel())
    return sim, core, backend, eng


def test_remote_roundtrip_through_engine():
    sim, core, backend, eng = make_env()
    job = _job()
    got = {}

    def proc(sim):
        job.mark_paused(rsa_call("remote-sig"))
        ok = yield from eng.submit_async(rsa_call("remote-sig"), job,
                                         owner="w")
        yield from eng.core.settle()
        assert ok
        while True:
            jobs = yield from eng.poll_and_dispatch(owner="w")
            yield from eng.core.settle()
            if jobs:
                got["jobs"] = jobs
                return
            yield sim.timeout(10e-6)

    sim.process(proc(sim))
    sim.run()
    assert got["jobs"] == [job]
    assert job.take_resume() == ("remote-sig", None)
    assert eng.ops_offloaded == 1
    assert eng.inflight.total == 0
    # The round trip paid the link latency both ways plus service time.
    assert sim.now > 2 * 20e-6


def test_window_exhaustion_rejects_like_a_full_ring():
    sim, core, backend, eng = make_env()
    calls = [rsa_call(f"r{i}") for i in range(REMOTE_WINDOW + 1)]
    tokens = backend.submit_batch(calls, lane=0)
    assert None not in tokens[:-1] and tokens[-1] is None
    assert backend.stats.submit_failures == 1
    assert backend.capacity_hint(lane=0, category=OpCategory.ASYM) == 0

    # Driven through the engine, a rejected submit also shows up in the
    # engine-local counter (per-worker: pooled lanes are shared, so the
    # engine no longer sums lane counters).
    job = _job()
    job.mark_paused(rsa_call("r2"))

    def proc(sim):
        ok = yield from eng.submit_async(rsa_call("r2"), job, owner="w")
        yield from eng.core.settle()
        assert not ok

    sim.process(proc(sim))
    sim.run()
    assert eng.submit_rejections == 1
    assert job.submit_attempts == 1


def test_one_rpc_per_batch():
    sim, core, backend, eng = make_env()
    backend.submit_batch([rsa_call("x") for _ in range(5)], lane=0)
    assert backend.outstanding == 5
    sim.run()
    assert backend.outstanding == 0
    done = backend.poll_completions()
    assert len(done) == 5
    # One link transfer carried the whole batch: every op reached the
    # service at the same instant.
    assert len({c.device_marks["dequeued"] for c in done}) == 1


def test_remote_testbed_run_replays_bit_for_bit():
    from repro.bench.runner import Testbed, Windows

    def run():
        bed = Testbed("QTLS", workers=1, seed=7,
                      offload_backend="remote", qat_batch_size=4)
        bed.add_s_time_fleet(n_clients=40)
        bed.run_window(Windows(warmup=0.02, measure=0.04))
        return bed

    a, b = run(), run()
    assert a.metrics.errors == 0
    assert a.metrics.cps(0.02, 0.06) > 0
    eng = a.server.workers[0].engine
    assert eng.backend.name == "remote"
    assert eng.ops_offloaded > 0
    assert a.metrics.handshakes == b.metrics.handshakes
